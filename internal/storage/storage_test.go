package storage

import (
	"sync"
	"testing"
	"testing/quick"

	"galo/internal/catalog"
)

func testDB(t *testing.T) *Database {
	t.Helper()
	s := catalog.NewSchema("T")
	item := catalog.NewTable("item",
		catalog.Column{Name: "i_item_sk", Type: catalog.KindInt},
		catalog.Column{Name: "i_category", Type: catalog.KindString},
	)
	if err := item.AddIndex(catalog.Index{Columns: []string{"i_item_sk"}, Unique: true, ClusterRatio: 0.9}); err != nil {
		t.Fatal(err)
	}
	s.AddTable(item)
	db := NewDatabase(catalog.New(s))
	cats := []string{"Music", "Jewelry", "Books", "Sports"}
	for i := int64(1); i <= 100; i++ {
		if err := db.Insert("item", Row{catalog.Int(i), catalog.String(cats[i%4])}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestInsertAndRowCount(t *testing.T) {
	db := testDB(t)
	if db.RowCount("item") != 100 {
		t.Errorf("RowCount = %d", db.RowCount("item"))
	}
	if db.RowCount("missing") != 0 {
		t.Errorf("missing table RowCount should be 0")
	}
	if err := db.Insert("missing", Row{catalog.Int(1)}); err == nil {
		t.Errorf("Insert into unknown table should fail")
	}
	if err := db.Insert("item", Row{catalog.Int(1)}); err == nil {
		t.Errorf("Insert with wrong arity should fail")
	}
	names := db.TableNames()
	if len(names) != 1 || names[0] != "ITEM" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestIndexLookupEqual(t *testing.T) {
	db := testDB(t)
	idx := db.IndexOnColumn("item", "i_item_sk")
	if idx == nil {
		t.Fatal("IndexOnColumn returned nil")
	}
	if idx.Len() != 100 {
		t.Errorf("index Len = %d", idx.Len())
	}
	ids := idx.LookupEqual(catalog.Int(42))
	if len(ids) != 1 {
		t.Fatalf("LookupEqual(42) = %v", ids)
	}
	row := db.Table("item").Rows[ids[0]]
	if row[0].AsInt() != 42 {
		t.Errorf("looked up wrong row: %v", row)
	}
	if got := idx.LookupEqual(catalog.Int(9999)); len(got) != 0 {
		t.Errorf("LookupEqual(miss) = %v", got)
	}
}

func TestIndexLookupRange(t *testing.T) {
	db := testDB(t)
	idx := db.IndexOnColumn("item", "i_item_sk")
	lo, hi := catalog.Int(10), catalog.Int(20)
	ids := idx.LookupRange(&lo, &hi)
	if len(ids) != 11 {
		t.Errorf("LookupRange(10,20) returned %d ids", len(ids))
	}
	ids = idx.LookupRange(nil, &hi)
	if len(ids) != 20 {
		t.Errorf("LookupRange(nil,20) returned %d ids", len(ids))
	}
	ids = idx.LookupRange(&lo, nil)
	if len(ids) != 91 {
		t.Errorf("LookupRange(10,nil) returned %d ids", len(ids))
	}
}

func TestIndexPositions(t *testing.T) {
	db := testDB(t)
	idx := db.IndexOnColumn("item", "i_item_sk")

	// PositionsEqual covers exactly the entries LookupEqual returns, as a
	// contiguous range — the contract the streaming executor iterates on.
	start, end := idx.PositionsEqual(catalog.Int(42))
	if end-start != 1 || idx.Entries[start].Key[0].AsInt() != 42 {
		t.Errorf("PositionsEqual(42) = [%d,%d)", start, end)
	}
	if s, e := idx.PositionsEqual(catalog.Int(9999)); e != s {
		t.Errorf("PositionsEqual(miss) = [%d,%d)", s, e)
	}
	if s, e := idx.PositionsEqual(catalog.Null()); e != s {
		t.Errorf("PositionsEqual(null) = [%d,%d)", s, e)
	}

	lo, hi := catalog.Int(10), catalog.Int(20)
	for _, tc := range []struct {
		name   string
		lo, hi *catalog.Value
		want   int
	}{
		{"both", &lo, &hi, 11},
		{"hi-only", nil, &hi, 20},
		{"lo-only", &lo, nil, 91},
		{"unbounded", nil, nil, 100},
	} {
		s, e := idx.PositionsRange(tc.lo, tc.hi)
		if e-s != tc.want {
			t.Errorf("PositionsRange(%s) covers %d entries, want %d", tc.name, e-s, tc.want)
		}
		ids := idx.LookupRange(tc.lo, tc.hi)
		if len(ids) != e-s {
			t.Errorf("PositionsRange(%s) and LookupRange disagree: %d vs %d", tc.name, e-s, len(ids))
		}
		for i := s; i < e; i++ {
			if ids[i-s] != idx.Entries[i].RowID {
				t.Fatalf("PositionsRange(%s) entry %d: RowID %d, LookupRange has %d",
					tc.name, i, idx.Entries[i].RowID, ids[i-s])
			}
		}
	}

	// Inverted bounds yield an empty, non-negative range.
	if s, e := idx.PositionsRange(&hi, &lo); e != s {
		t.Errorf("PositionsRange(inverted) = [%d,%d)", s, e)
	}
}

func TestIndexRebuiltAfterInsert(t *testing.T) {
	db := testDB(t)
	idx := db.IndexOnColumn("item", "i_item_sk")
	if idx.Len() != 100 {
		t.Fatalf("initial index len = %d", idx.Len())
	}
	if err := db.Insert("item", Row{catalog.Int(101), catalog.String("Music")}); err != nil {
		t.Fatal(err)
	}
	idx = db.IndexOnColumn("item", "i_item_sk")
	if idx.Len() != 101 {
		t.Errorf("index not rebuilt after insert: len=%d", idx.Len())
	}
}

func TestPagesAndWidth(t *testing.T) {
	db := testDB(t)
	if db.Pages("item") < 1 {
		t.Errorf("Pages = %d", db.Pages("item"))
	}
	if db.Pages("missing") != 1 {
		t.Errorf("Pages of missing table should default to 1")
	}
	if db.RowsPerPage("item") < 1 {
		t.Errorf("RowsPerPage = %d", db.RowsPerPage("item"))
	}
	w := db.Table("item").RowWidth()
	if w <= 0 {
		t.Errorf("RowWidth = %d", w)
	}
}

func TestDistinctAndCountWhere(t *testing.T) {
	db := testDB(t)
	if got := db.DistinctCount("item", "i_category"); got != 4 {
		t.Errorf("DistinctCount = %d, want 4", got)
	}
	if got := db.CountWhereEqual("item", "i_category", catalog.String("Music")); got != 25 {
		t.Errorf("CountWhereEqual(Music) = %d, want 25", got)
	}
	if got := db.CountWhereEqual("item", "i_category", catalog.String("Nope")); got != 0 {
		t.Errorf("CountWhereEqual(miss) = %d", got)
	}
	if db.DistinctCount("missing", "x") != 0 || db.DistinctCount("item", "nope") != 0 {
		t.Errorf("DistinctCount on missing table/column should be 0")
	}
}

func TestValueHelper(t *testing.T) {
	db := testDB(t)
	def := db.Table("item").Def
	row := db.Table("item").Rows[0]
	if Value(def, row, "i_item_sk").AsInt() != 1 {
		t.Errorf("Value helper returned wrong value")
	}
	if !Value(def, row, "nope").IsNull() {
		t.Errorf("Value of unknown column should be NULL")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b := NewGenerator(7), NewGenerator(7)
	for i := 0; i < 100; i++ {
		if a.UniformInt(0, 1000) != b.UniformInt(0, 1000) {
			t.Fatalf("generators with same seed diverged at %d", i)
		}
	}
}

func TestGeneratorRanges(t *testing.T) {
	g := NewGenerator(11)
	f := func(lo, span uint8) bool {
		l, h := int64(lo), int64(lo)+int64(span)
		v := g.UniformInt(l, h)
		return v >= l && v <= h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for i := 0; i < 1000; i++ {
		if v := g.SkewedInt(100, 2.0); v < 1 || v > 100 {
			t.Fatalf("SkewedInt out of range: %d", v)
		}
	}
	if v := g.SkewedInt(1, 2.0); v != 1 {
		t.Errorf("SkewedInt(1) = %d", v)
	}
	if g.Float(2, 3) < 2 || g.Float(2, 3) >= 3 {
		t.Errorf("Float out of range")
	}
}

func TestGeneratorSkewConcentratesMass(t *testing.T) {
	g := NewGenerator(3)
	low := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.SkewedInt(1000, 3.0) <= 100 {
			low++
		}
	}
	// With strong skew, far more than 10% of draws land in the first 10%.
	if float64(low)/n < 0.4 {
		t.Errorf("skewed draws in first decile = %.2f, want >= 0.4", float64(low)/n)
	}
}

func TestGeneratorChoices(t *testing.T) {
	g := NewGenerator(5)
	if g.Choice(nil) != "" {
		t.Errorf("Choice(nil) should be empty")
	}
	opts := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[g.Choice(opts)] = true
	}
	if len(seen) != 3 {
		t.Errorf("Choice never produced all options: %v", seen)
	}
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[g.WeightedChoice(opts, []float64{0.9, 0.05, 0.05})]++
	}
	if counts["a"] < 3500 {
		t.Errorf("WeightedChoice ignored weights: %v", counts)
	}
	if g.WeightedChoice(opts, []float64{0, 0, 0}) == "" {
		t.Errorf("WeightedChoice with zero weights should fall back to uniform")
	}
	nulls := 0
	for i := 0; i < 1000; i++ {
		if g.NullOr(0.5, catalog.Int(1)).IsNull() {
			nulls++
		}
	}
	if nulls < 300 || nulls > 700 {
		t.Errorf("NullOr(0.5) produced %d nulls out of 1000", nulls)
	}
}

// TestIndexAndKeyWordsBuiltOnce is the contention case of the once-only path:
// eight goroutines ask for the same cold index and the same cold key-word
// vector together. Each is built exactly once and every caller gets the one
// instance; an Insert afterwards drops both, and the next request rebuilds
// them over the new rows.
func TestIndexAndKeyWordsBuiltOnce(t *testing.T) {
	db := testDB(t)
	table := db.Table("item")
	const goroutines = 8
	indexes, vectors := make([]*IndexData, goroutines), make([][]uint64, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			indexes[g] = db.IndexOnColumn("item", "i_item_sk")
			vectors[g] = table.KeyWords(0)
		}()
	}
	close(start)
	wg.Wait()
	if table.builds != 2 {
		t.Errorf("%d builds for one index and one vector asked for by %d goroutines, want 2", table.builds, goroutines)
	}
	for g := range goroutines {
		if indexes[g] == nil || indexes[g] != indexes[0] {
			t.Errorf("goroutine %d got index %p, goroutine 0 got %p", g, indexes[g], indexes[0])
		}
		if len(vectors[g]) != 100 || &vectors[g][0] != &vectors[0][0] {
			t.Errorf("goroutine %d got a vector of its own (len %d)", g, len(vectors[g]))
		}
	}

	if err := db.Insert("item", Row{catalog.Null(), catalog.String("Music")}); err != nil {
		t.Fatal(err)
	}
	if idx := db.IndexOnColumn("item", "i_item_sk"); idx == indexes[0] || idx.Len() != 101 {
		t.Errorf("index not rebuilt after Insert: len %d", idx.Len())
	}
	words := table.KeyWords(0)
	if len(words) != 101 || words[100] != catalog.KeyWordNull {
		t.Fatalf("vector not rebuilt after Insert: len %d", len(words))
	}
	if table.builds != 4 {
		t.Errorf("%d builds after the Insert invalidated both, want 4", table.builds)
	}
	for i, row := range table.Rows {
		if w, _ := row[0].KeyWord(); words[i] != w {
			t.Errorf("row %d: word %#x, KeyWord of %v is %#x", i, words[i], row[0], w)
		}
	}
	if table.KeyWords(1) != nil {
		t.Errorf("a string column has a key-word vector")
	}
}
