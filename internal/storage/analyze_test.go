package storage

import (
	"testing"

	"galo/internal/catalog"
)

func analyzeSchema() *catalog.Schema {
	s := catalog.NewSchema("T")
	tbl := catalog.NewTable("NUMS",
		catalog.Column{Name: "v", Type: catalog.KindInt},
		catalog.Column{Name: "label", Type: catalog.KindString},
	)
	s.AddTable(tbl)
	return s
}

func TestBuildEquiDepthHistogramUniform(t *testing.T) {
	var values []catalog.Value
	for i := 1; i <= 1000; i++ {
		values = append(values, catalog.Int(int64(i)))
	}
	h := equiDepth(values, 10)
	if h.NumBuckets() != 10 {
		t.Fatalf("buckets = %d, want 10", h.NumBuckets())
	}
	if h.Rows != 1000 || h.Min.AsInt() != 1 || h.Max().AsInt() != 1000 {
		t.Errorf("histogram bounds wrong: rows=%d min=%v max=%v", h.Rows, h.Min, h.Max())
	}
	for i, b := range h.Buckets {
		if b.Count != 100 || b.NDV != 100 {
			t.Errorf("bucket %d: count=%d ndv=%d, want 100/100", i, b.Count, b.NDV)
		}
	}
	// Estimated vs true fraction for a mid range.
	lo, hi := catalog.Int(251), catalog.Int(500)
	if f := h.RangeFraction(&lo, &hi); f < 0.22 || f > 0.28 {
		t.Errorf("range [251,500] fraction = %v, want ~0.25", f)
	}
}

func TestBuildEquiDepthHistogramSkewed(t *testing.T) {
	// Zipf-ish: value 1 appears 500 times, values 2..501 once each.
	var values []catalog.Value
	for i := 0; i < 500; i++ {
		values = append(values, catalog.Int(1))
	}
	for i := 2; i <= 501; i++ {
		values = append(values, catalog.Int(int64(i)))
	}
	h := equiDepth(values, 10)
	// Bucket boundaries never split the heavy hitter's run.
	first := h.Buckets[0]
	if first.Hi.AsInt() != 1 || first.Count != 500 || first.NDV != 1 {
		t.Fatalf("heavy hitter bucket = %+v", first)
	}
	if f := h.EqFraction(catalog.Int(1)); f < 0.45 || f > 0.55 {
		t.Errorf("heavy hitter equality fraction = %v, want 0.5", f)
	}
	// The tail estimate stays proportional despite the skew.
	lo, hi := catalog.Int(2), catalog.Int(501)
	if f := h.RangeFraction(&lo, &hi); f < 0.4 || f > 0.6 {
		t.Errorf("tail fraction = %v, want ~0.5", f)
	}
}

func TestBuildEquiDepthHistogramConstantAndEmpty(t *testing.T) {
	var values []catalog.Value
	for i := 0; i < 64; i++ {
		values = append(values, catalog.Int(7))
	}
	h := equiDepth(values, 8)
	if h.NumBuckets() != 1 {
		t.Fatalf("constant column should collapse to one bucket, got %d", h.NumBuckets())
	}
	if h.Buckets[0].NDV != 1 || h.Buckets[0].Count != 64 {
		t.Errorf("constant bucket = %+v", h.Buckets[0])
	}
	if f := h.EqFraction(catalog.Int(7)); f != 1 {
		t.Errorf("constant equality fraction = %v, want 1", f)
	}
	lo, hi := catalog.Int(7), catalog.Int(7)
	if f := h.RangeFraction(&lo, &hi); f != 1 {
		t.Errorf("constant point-range fraction = %v, want 1", f)
	}
	if equiDepth(nil, 8) != nil {
		t.Errorf("empty input should produce a nil histogram")
	}
}

func TestAnalyzeInstallsHistogramsAndNDV(t *testing.T) {
	cat := catalog.New(analyzeSchema())
	db := NewDatabase(cat)
	for i := 1; i <= 200; i++ {
		label := catalog.String("even")
		if i%2 == 1 {
			label = catalog.String("odd")
		}
		if err := db.Insert("NUMS", Row{catalog.Int(int64(i % 50)), label}); err != nil {
			t.Fatal(err)
		}
	}
	if err := Analyze(db, "NUMS", AnalyzeOptions{Histograms: true}); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	ts := cat.Stats("NUMS")
	if ts == nil {
		t.Fatal("Analyze did not create table stats")
	}
	v := ts.ColumnStats("V")
	if v == nil || v.Histogram == nil {
		t.Fatal("no histogram on V")
	}
	if v.NDV != 50 {
		t.Errorf("NDV = %d, want 50", v.NDV)
	}
	if v.Min.AsInt() != 0 || v.Max.AsInt() != 49 {
		t.Errorf("min/max = %v/%v", v.Min, v.Max)
	}
	lbl := ts.ColumnStats("LABEL")
	if lbl == nil || lbl.Histogram == nil || lbl.NDV != 2 {
		t.Fatalf("label stats = %+v", lbl)
	}
	if f := lbl.Histogram.EqFraction(catalog.String("odd")); f < 0.4 || f > 0.6 {
		t.Errorf("odd fraction = %v, want 0.5", f)
	}
	// ANALYZE describes collection time: later inserts are invisible until
	// the next pass.
	for i := 0; i < 300; i++ {
		if err := db.Insert("NUMS", Row{catalog.Int(999), catalog.String("late")}); err != nil {
			t.Fatal(err)
		}
	}
	stale := cat.Stats("NUMS").ColumnStats("V")
	if f := stale.Histogram.EqFraction(catalog.Int(999)); f != 0 {
		t.Errorf("stale histogram sees the new load: %v", f)
	}
	if err := Analyze(db, "NUMS", AnalyzeOptions{Histograms: true}); err != nil {
		t.Fatal(err)
	}
	fresh := cat.Stats("NUMS").ColumnStats("V")
	if fresh.Max.AsInt() != 999 {
		t.Errorf("re-ANALYZE max = %v, want 999", fresh.Max)
	}
	if f := fresh.Histogram.EqFraction(catalog.Int(999)); f <= 0.1 {
		t.Errorf("re-ANALYZE should see the new load: %v", f)
	}
	if err := Analyze(db, "NO_SUCH", AnalyzeOptions{}); err == nil {
		t.Errorf("analyzing an unknown table should fail")
	}
}

// buildItemDB holds 1000 items whose category and class are perfectly
// correlated (class = category + "-cls") and whose price is NULL on every
// hundredth row.
func buildItemDB(t *testing.T) *Database {
	t.Helper()
	s := catalog.NewSchema("T")
	s.AddTable(catalog.NewTable("item",
		catalog.Column{Name: "i_item_sk", Type: catalog.KindInt},
		catalog.Column{Name: "i_category", Type: catalog.KindString},
		catalog.Column{Name: "i_class", Type: catalog.KindString},
		catalog.Column{Name: "i_current_price", Type: catalog.KindFloat},
	))
	db := NewDatabase(catalog.New(s))
	cats := []string{"Music", "Jewelry", "Books", "Sports", "Home"}
	for i := 0; i < 1000; i++ {
		cat := cats[i%5]
		price := catalog.Float(float64(i%50) + 0.5)
		if i%100 == 0 {
			price = catalog.Null()
		}
		if err := db.Insert("item", Row{catalog.Int(int64(i + 1)), catalog.String(cat), catalog.String(cat + "-cls"), price}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestAnalyzeBasicStats(t *testing.T) {
	db := buildItemDB(t)
	if err := Analyze(db, "item", AnalyzeOptions{}); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	ts := db.Catalog.Stats("ITEM")
	if ts == nil {
		t.Fatal("stats not installed in catalog")
	}
	if ts.Cardinality != 1000 || ts.Pages < 1 {
		t.Errorf("cardinality = %d, pages = %d", ts.Cardinality, ts.Pages)
	}
	sk := ts.ColumnStats("i_item_sk")
	if sk == nil || sk.NDV != 1000 {
		t.Fatalf("i_item_sk stats = %+v", sk)
	}
	if sk.Min.AsInt() != 1 || sk.Max.AsInt() != 1000 {
		t.Errorf("min/max = %v/%v", sk.Min, sk.Max)
	}
	if sk.Histogram != nil {
		t.Errorf("histogram collected without AnalyzeOptions.Histograms")
	}
	cat := ts.ColumnStats("i_category")
	if cat.NDV != 5 {
		t.Errorf("category NDV = %d", cat.NDV)
	}
	if n, ok := cat.FrequencyOf(catalog.String("Music")); !ok || n != 200 {
		t.Errorf("FrequencyOf(Music) = %d, %v", n, ok)
	}
	price := ts.ColumnStats("i_current_price")
	if price.NullCount != 10 || price.NDV != 50 {
		t.Errorf("price NullCount = %d, NDV = %d", price.NullCount, price.NDV)
	}
	if price.Min.AsFloat() != 0.5 || price.Max.AsFloat() != 49.5 {
		t.Errorf("price min/max = %v/%v", price.Min, price.Max)
	}
	// Eight bytes for each of the 990 non-null prices, averaged over all rows.
	if price.AvgWidth != 7 {
		t.Errorf("price AvgWidth = %d, want 7", price.AvgWidth)
	}
}

// TestAnalyzeFrequentValueCap pins the frequent-value list: at most ten
// entries, most frequent first, ties in Value.Key order — "n:10" sorts before
// "n:2", so the tied tail is not in numeric order.
func TestAnalyzeFrequentValueCap(t *testing.T) {
	db := NewDatabase(catalog.New(analyzeSchema()))
	insert := func(v int64, times int) {
		for i := 0; i < times; i++ {
			if err := db.Insert("NUMS", Row{catalog.Int(v), catalog.String("x")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for v := int64(12); v >= 1; v-- {
		insert(v, 2)
	}
	insert(100, 5)
	if err := Analyze(db, "NUMS", AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	freq := db.Catalog.Stats("NUMS").ColumnStats("V").Frequent
	want := []int64{100, 1, 10, 11, 12, 2, 3, 4, 5, 6}
	if len(freq) != len(want) {
		t.Fatalf("frequent list has %d entries, want %d: %+v", len(freq), len(want), freq)
	}
	for i, w := range want {
		wantCount := int64(2)
		if w == 100 {
			wantCount = 5
		}
		if freq[i].Value.AsInt() != w || freq[i].Count != wantCount {
			t.Errorf("frequent[%d] = %v x%d, want %d x%d", i, freq[i].Value, freq[i].Count, w, wantCount)
		}
	}
}

func TestAnalyzeColumnGroups(t *testing.T) {
	db := buildItemDB(t)
	opts := AnalyzeOptions{ColumnGroups: map[string][][]string{"ITEM": {{"i_category", "i_class"}}}}
	if err := Analyze(db, "item", opts); err != nil {
		t.Fatal(err)
	}
	ts := db.Catalog.Stats("ITEM")
	// Correlated columns: combined NDV is 5, not 5*5.
	if got := ts.GroupNDV([]string{"I_CATEGORY", "I_CLASS"}); got != 5 {
		t.Errorf("group NDV = %d, want 5", got)
	}
	g := ts.Group([]string{"i_class", "i_category"})
	if g == nil || len(g.Frequent) != 5 {
		t.Fatalf("group = %+v, want five frequent combinations", g)
	}
	if n, ok := g.FrequencyOf([]catalog.Value{catalog.String("Music"), catalog.String("Music-cls")}); !ok || n != 200 {
		t.Errorf("FrequencyOf(Music, Music-cls) = %d, %v", n, ok)
	}
	if _, ok := g.FrequencyOf([]catalog.Value{catalog.String("Music"), catalog.String("Books-cls")}); ok {
		t.Errorf("a combination that never occurs is frequent")
	}
	if err := Analyze(db, "item", AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	if db.Catalog.Stats("ITEM").Groups != nil {
		t.Errorf("a pass without column groups kept the previous snapshot's groups")
	}
}

func TestAnalyzeAll(t *testing.T) {
	db := buildItemDB(t)
	if err := AnalyzeAll(db, AnalyzeOptions{}); err != nil {
		t.Fatalf("AnalyzeAll: %v", err)
	}
	if got := db.Catalog.TablesWithStats(); len(got) != 1 {
		t.Errorf("TablesWithStats = %v", got)
	}
}

func TestAnalyzeEmptyTableAndAllNullColumn(t *testing.T) {
	db := NewDatabase(catalog.New(analyzeSchema()))
	if err := Analyze(db, "NUMS", AnalyzeOptions{Histograms: true}); err != nil {
		t.Fatal(err)
	}
	ts := db.Catalog.Stats("NUMS")
	if ts.Cardinality != 0 || ts.Pages != 1 {
		t.Errorf("empty table: cardinality = %d, pages = %d", ts.Cardinality, ts.Pages)
	}
	if v := ts.ColumnStats("V"); v.NDV != 0 || v.NullCount != 0 || len(v.Frequent) != 0 || v.Histogram != nil || !v.Min.IsNull() {
		t.Errorf("empty column stats = %+v", v)
	}
	for i := 0; i < 20; i++ {
		if err := db.Insert("NUMS", Row{catalog.Null(), catalog.String("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := Analyze(db, "NUMS", AnalyzeOptions{Histograms: true}); err != nil {
		t.Fatal(err)
	}
	v := db.Catalog.Stats("NUMS").ColumnStats("V")
	if v.NDV != 0 || v.NullCount != 20 || v.RowCount != 20 || len(v.Frequent) != 0 || v.Histogram != nil {
		t.Errorf("all-NULL column stats = %+v", v)
	}
	if !v.Min.IsNull() || !v.Max.IsNull() {
		t.Errorf("all-NULL column min/max = %v/%v, want NULL", v.Min, v.Max)
	}
}
