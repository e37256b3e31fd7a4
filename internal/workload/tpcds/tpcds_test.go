package tpcds

import (
	"testing"

	"galo/internal/catalog"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

func smallDB(t *testing.T) *storage.Database {
	t.Helper()
	db, err := Generate(GenOptions{Seed: 1, Scale: 0.1, Hazards: true})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return db
}

func TestSchemaHasAllTables(t *testing.T) {
	s := Schema()
	for _, name := range []string{StoreSales, CatalogSales, WebSales, Item, DateDim,
		Customer, CustomerAddress, CustomerDemographics, Store, Promotion} {
		tbl := s.Table(name)
		if tbl == nil {
			t.Errorf("missing table %s", name)
			continue
		}
		if len(tbl.Columns) < 3 {
			t.Errorf("%s has only %d columns", name, len(tbl.Columns))
		}
	}
	// Fact-table date indexes are poorly clustered (Figure 4 precondition).
	cs := s.Table(CatalogSales).IndexByName("CS_SOLD_DATE_IDX")
	if cs == nil || cs.ClusterRatio > 0.3 {
		t.Errorf("catalog_sales date index should be poorly clustered: %+v", cs)
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	a, err := Generate(GenOptions{Seed: 42, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenOptions{Seed: 42, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{Item, StoreSales, CustomerAddress} {
		if a.RowCount(tbl) != b.RowCount(tbl) {
			t.Errorf("%s row counts differ across runs: %d vs %d", tbl, a.RowCount(tbl), b.RowCount(tbl))
		}
	}
	ra := a.Table(Item).Rows[0]
	rb := b.Table(Item).Rows[0]
	for i := range ra {
		if ra[i].AsString() != rb[i].AsString() {
			t.Fatalf("row content differs at column %d: %v vs %v", i, ra[i], rb[i])
		}
	}
}

func TestGenerateScalesRowCounts(t *testing.T) {
	small, err := Generate(GenOptions{Seed: 7, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Generate(GenOptions{Seed: 7, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if small.RowCount(StoreSales) >= big.RowCount(StoreSales) {
		t.Errorf("scale did not increase store_sales rows: %d vs %d",
			small.RowCount(StoreSales), big.RowCount(StoreSales))
	}
	if small.RowCount(Store) < 4 {
		t.Errorf("tiny tables should keep a minimum row count, got %d", small.RowCount(Store))
	}
}

func TestGenerateCollectsStatsAndHazards(t *testing.T) {
	db := smallDB(t)
	ts := db.Catalog.Stats(CatalogSales)
	if ts == nil {
		t.Fatal("no stats for catalog_sales")
	}
	// The statistics snapshot predates the recent-window flood, so it is
	// genuinely stale: the recorded cardinality is the historical wave only.
	actual := int64(db.RowCount(CatalogSales))
	if ts.Cardinality >= actual/2 {
		t.Errorf("hazards should leave a stale cardinality snapshot: recorded %d of %d", ts.Cardinality, actual)
	}
	// The stale histogram on the fact date key believes the sale window holds
	// almost nothing.
	cs := ts.ColumnStats("CS_SOLD_DATE_SK")
	if cs == nil || cs.Histogram == nil {
		t.Fatal("ANALYZE histograms missing for catalog_sales date key")
	}
	lo, hi, _ := SaleDateRange(db)
	loV, hiV := catalog.Int(lo), catalog.Int(hi)
	if frac := cs.Histogram.RangeFraction(&loV, &hiV); frac > 0.1 {
		t.Errorf("stale histogram believes %.2f of sales are in the flood window", frac)
	}
	cfg := db.Catalog.Config
	if cfg.RuntimeTransferRate <= 0 || cfg.TransferRate <= cfg.RuntimeTransferRate {
		t.Errorf("hazards should overstate the configured transfer rate: %+v", cfg)
	}
	// Without hazards, estimates are honest: full cardinality and a
	// histogram that sees the flood.
	clean, err := Generate(GenOptions{Seed: 7, Scale: 0.05, Hazards: false})
	if err != nil {
		t.Fatal(err)
	}
	fresh := clean.Catalog.Stats(CatalogSales)
	if fresh.Cardinality != int64(clean.RowCount(CatalogSales)) {
		t.Errorf("hazard-free generation should keep fresh stats: %d of %d",
			fresh.Cardinality, clean.RowCount(CatalogSales))
	}
	flo, fhi, _ := SaleDateRange(clean)
	floV, fhiV := catalog.Int(flo), catalog.Int(fhi)
	if frac := fresh.ColumnStats("CS_SOLD_DATE_SK").Histogram.RangeFraction(&floV, &fhiV); frac < 0.5 {
		t.Errorf("fresh histogram should see the flood window: %.2f", frac)
	}
}

func TestSalesConcentratedInRecentDates(t *testing.T) {
	db := smallDB(t)
	lo, hi, max := SaleDateRange(db)
	if hi != max || lo <= 0 || lo >= hi {
		t.Fatalf("SaleDateRange = %d..%d of %d", lo, hi, max)
	}
	// The flood wave concentrates in the sale window: at least the
	// non-historical fraction of store_sales dates falls inside it, while the
	// historical wave spreads over the old calendar.
	ssDef := db.Table(StoreSales).Def
	ci := ssDef.ColumnIndex("SS_SOLD_DATE_SK")
	inWindow, older := 0, 0
	for _, row := range db.Table(StoreSales).Rows {
		d := row[ci].AsInt()
		if d >= lo && d <= hi {
			inWindow++
		} else {
			older++
		}
	}
	total := inWindow + older
	if float64(inWindow) < float64(total)*(1-HistoricalFraction) {
		t.Errorf("flood not concentrated: %d of %d rows in window", inWindow, total)
	}
	if older == 0 {
		t.Errorf("historical wave missing: all %d rows in the sale window", total)
	}
	// The dimension is an order of magnitude wider than the sale window — the
	// Figure 8 precondition.
	if float64(hi-lo+1) > float64(max)*0.2 {
		t.Errorf("sale window too wide: %d of %d", hi-lo+1, max)
	}
}

func TestItemCategoryClassCorrelation(t *testing.T) {
	db := smallDB(t)
	itemDef := db.Table(Item).Def
	catIdx, classIdx := itemDef.ColumnIndex("I_CATEGORY"), itemDef.ColumnIndex("I_CLASS")
	for _, row := range db.Table(Item).Rows {
		cat, class := row[catIdx].S, row[classIdx].S
		if len(class) < len(cat) || class[:len(cat)] != cat {
			t.Fatalf("class %q does not embed category %q (correlation broken)", class, cat)
		}
	}
}

func TestQueriesAreExactly99AndValid(t *testing.T) {
	qs := Queries()
	if len(qs) != 99 {
		t.Fatalf("Queries() returned %d queries, want 99", len(qs))
	}
	schema := Schema()
	names := map[string]bool{}
	maxRefs := 0
	for _, q := range qs {
		if q.Name == "" || names[q.Name] {
			t.Errorf("query name missing or duplicated: %q", q.Name)
		}
		names[q.Name] = true
		if err := sqlparser.Resolve(q.Clone(), schema); err != nil {
			t.Errorf("query %s does not resolve: %v", q.Name, err)
		}
		if len(q.From) > maxRefs {
			maxRefs = len(q.From)
		}
	}
	if maxRefs < 30 {
		t.Errorf("workload should include very wide queries (max refs = %d)", maxRefs)
	}
}

func TestWideQueryReferenceCount(t *testing.T) {
	schema := Schema()
	for _, n := range []int{2, 5, 13, 32} {
		q := WideQuery(n)
		if len(q.From) != n {
			t.Errorf("WideQuery(%d) has %d references", n, len(q.From))
		}
		if err := sqlparser.Resolve(q.Clone(), schema); err != nil {
			t.Errorf("WideQuery(%d) does not resolve: %v", n, err)
		}
	}
	if got := len(WideQuery(0).From); got != 2 {
		t.Errorf("WideQuery clamps to 2 refs, got %d", got)
	}
}

func TestFigureQueriesResolve(t *testing.T) {
	schema := Schema()
	for _, q := range []*sqlparser.Query{Fig3Query(), Fig4Query(), Fig7Query(), Fig8Query()} {
		if err := sqlparser.Resolve(q.Clone(), schema); err != nil {
			t.Errorf("%s does not resolve: %v", q.Name, err)
		}
	}
	if Fig4Query().NumJoins() != 3 {
		t.Errorf("Fig4Query joins = %d, want 3", Fig4Query().NumJoins())
	}
	if len(Fig4Query().From) != 4 {
		t.Errorf("Fig4Query should reference catalog_sales twice")
	}
}
