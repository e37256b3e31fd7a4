package storage_test

import (
	"math"
	"testing"

	"galo/internal/catalog"
	"galo/internal/storage"
	"galo/internal/workload/client"
	"galo/internal/workload/joblike"
	"galo/internal/workload/ohlc"
	"galo/internal/workload/scenario"
	"galo/internal/workload/tpcds"
	"galo/internal/workload/trace"
)

// keyIndex stores the values as the rows of K(k, id) and returns the table
// and its single-column index on k.
func keyIndex(t *testing.T, values ...catalog.Value) (*storage.Database, *storage.Table, *storage.IndexData) {
	t.Helper()
	table := catalog.NewTable("K", catalog.Column{Name: "k", Type: catalog.KindFloat}, catalog.Column{Name: "id", Type: catalog.KindInt})
	if err := table.AddIndex(catalog.Index{Name: "K_IDX", Columns: []string{"k"}}); err != nil {
		t.Fatal(err)
	}
	schema := catalog.NewSchema("S")
	schema.AddTable(table)
	db := storage.NewDatabase(catalog.New(schema))
	for i, v := range values {
		if err := db.Insert("K", storage.Row{v, catalog.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return db, db.Table("K"), db.Index("K", "K_IDX")
}

// TestKeyWordOrdered pins when an index is in key-word order: NULLs first and
// numbers ascending, −0 and +0 in one run, integers beyond 2^53 that share a
// word in one run per word — and never with a NaN in the column (catalog.Compare
// ties it with everything) or a string (no vector). Where it is, the entries
// of each word are one run, in row order. An Insert drops the cached answer.
func TestKeyWordOrdered(t *testing.T) {
	const two53 = int64(1) << 53
	negZero := catalog.Float(math.Copysign(0, -1))
	cases := []struct {
		name    string
		values  []catalog.Value
		ordered bool
	}{
		{"nulls", []catalog.Value{catalog.Int(2), catalog.Null(), catalog.Float(1.5), catalog.Null(), catalog.Int(-4)}, true},
		{"signed zero", []catalog.Value{catalog.Float(0), negZero, catalog.Int(1), negZero, catalog.Int(0), catalog.Float(-1)}, true},
		{"beyond 2^53", []catalog.Value{catalog.Int(two53 + 1), catalog.Int(two53 + 2), catalog.Int(two53), catalog.Float(float64(two53)), catalog.Int(two53 + 3)}, true},
		{"a NaN", []catalog.Value{catalog.Int(1), catalog.Float(math.NaN()), catalog.Int(0)}, false},
		{"a string", []catalog.Value{catalog.Int(1), catalog.String("0"), catalog.Int(0)}, false},
	}
	for _, tc := range cases {
		_, table, idx := keyIndex(t, tc.values...)
		if got := table.KeyWordOrdered(idx); got != tc.ordered {
			t.Errorf("%s: KeyWordOrdered = %v, want %v", tc.name, got, tc.ordered)
		}
		if !tc.ordered {
			continue
		}
		words := table.KeyWords(0)
		runs := map[uint64]int{} // word -> the entry its run ends before
		for i, e := range idx.Entries {
			w := words[e.RowID]
			if end, seen := runs[w]; seen && end != i {
				t.Errorf("%s: entries of word %#x are not one run (entry %d after a run ending at %d)", tc.name, w, i, end)
			}
			if i > 0 && words[idx.Entries[i-1].RowID] == w && idx.Entries[i-1].RowID > e.RowID {
				t.Errorf("%s: the run of word %#x is not in row order", tc.name, w)
			}
			runs[w] = i + 1
		}
		if want := map[string]int{"nulls": 4, "signed zero": 3, "beyond 2^53": 3}[tc.name]; len(runs) != want {
			t.Errorf("%s: %d runs, want %d", tc.name, len(runs), want)
		}
	}

	db, table, idx := keyIndex(t, catalog.Int(1), catalog.Int(0))
	if !table.KeyWordOrdered(idx) {
		t.Fatal("two integers: not in key-word order")
	}
	if err := db.Insert("K", storage.Row{catalog.Float(math.NaN()), catalog.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if table.KeyWordOrdered(db.Index("K", "K_IDX")) {
		t.Error("the answer outlived an Insert of a NaN")
	}
}

// TestKeyWordsOverShippedSchemas holds the key-word vectors to their
// definition over every table of every workload the repository ships: the
// vector of a column is nil exactly when the column holds a string, and
// otherwise carries catalog.Value.KeyWord of every row — KeyWordNull where
// the row holds NULL. Every shipped index is held to KeyWordOrdered's
// definition the same way: in order exactly when its leading column has a
// vector, holds no NaN, and its words never decrease over the entries.
func TestKeyWordsOverShippedSchemas(t *testing.T) {
	dbs := map[string]*storage.Database{}
	var err error
	if dbs["tpcds"], err = tpcds.Generate(tpcds.GenOptions{Seed: 5, Scale: 0.1, Hazards: true}); err != nil {
		t.Fatal(err)
	}
	clientOpts := client.DefaultGenOptions()
	clientOpts.Scale = 0.1
	if dbs["client"], err = client.Generate(clientOpts); err != nil {
		t.Fatal(err)
	}
	for _, sc := range []scenario.Scenario{joblike.New(), ohlc.New(), trace.New()} {
		opts := sc.DefaultGen()
		opts.Scale = 0.1
		if dbs[sc.Name()], err = sc.Generate(opts); err != nil {
			t.Fatal(err)
		}
	}
	for name, db := range dbs {
		vectors, stringCols, nulls := 0, 0, 0
		for _, tn := range db.TableNames() {
			table := db.Table(tn)
			for c, col := range table.Def.Columns {
				holdsString := false
				for _, row := range table.Rows {
					holdsString = holdsString || row[c].K == catalog.KindString
				}
				words := table.KeyWords(c)
				if holdsString {
					stringCols++
					if words != nil {
						t.Errorf("%s %s.%s holds a string and has a key-word vector", name, tn, col.Name)
					}
					continue
				}
				vectors++
				if words == nil || len(words) != len(table.Rows) {
					t.Fatalf("%s %s.%s: vector of %d words (nil: %v) over %d rows", name, tn, col.Name, len(words), words == nil, len(table.Rows))
				}
				for i, row := range table.Rows {
					if w, _ := row[c].KeyWord(); words[i] != w {
						t.Fatalf("%s %s.%s row %d: word %#x, KeyWord of %v is %#x", name, tn, col.Name, i, words[i], row[c], w)
					}
					if row[c].IsNull() {
						nulls++
						if words[i] != catalog.KeyWordNull {
							t.Fatalf("%s %s.%s row %d: NULL carries word %#x", name, tn, col.Name, i, words[i])
						}
					}
				}
			}
		}
		ordered, unordered := 0, 0
		for _, tn := range db.TableNames() {
			table := db.Table(tn)
			for _, def := range table.Def.Indexes {
				idx := db.Index(tn, def.Name)
				words := table.KeyWords(table.Def.ColumnIndex(def.Columns[0]))
				want := words != nil
				for i := 0; want && i < len(idx.Entries); i++ {
					w := words[idx.Entries[i].RowID]
					nan := w != catalog.KeyWordNull && math.IsNaN(math.Float64frombits(w))
					want = !nan && (i == 0 || !catalog.KeyWordAbove(words[idx.Entries[i-1].RowID], w))
				}
				if got := table.KeyWordOrdered(idx); got != want {
					t.Errorf("%s %s: KeyWordOrdered = %v, by its definition %v", name, def.Name, got, want)
				}
				if want {
					ordered++
				} else {
					unordered++
				}
			}
		}
		t.Logf("%s: %d vectors, %d string columns, %d NULLs; %d indexes in key-word order, %d not", name, vectors, stringCols, nulls, ordered, unordered)
		if vectors == 0 || stringCols == 0 || ordered == 0 {
			t.Errorf("%s: %d vectors, %d string columns and %d ordered indexes checked: not a meaningful property", name, vectors, stringCols, ordered)
		}
	}
}
