package catalog

import "testing"

func TestCatalogStatsRoundtrip(t *testing.T) {
	c := New(testSchema())
	if c.Stats("ITEM") != nil {
		t.Errorf("stats should be nil before SetStats")
	}
	if got := c.EstimatedCardinality("ITEM"); got != 1000 {
		t.Errorf("default cardinality = %v, want 1000", got)
	}
	ts := &TableStats{
		Table:       "item",
		Cardinality: 18000,
		Pages:       240,
		RowWidth:    56,
		Columns: map[string]*ColumnStats{
			"I_CATEGORY": {Column: "I_CATEGORY", NDV: 10, RowCount: 18000,
				Frequent: []FrequentValue{{Value: String("Music"), Count: 7442}}},
		},
		Groups: []ColumnGroup{{Columns: []string{"I_CATEGORY", "I_CURRENT_PRICE"}, NDV: 500}},
	}
	c.SetStats(ts)
	got := c.Stats("item")
	if got == nil || got.Cardinality != 18000 {
		t.Fatalf("Stats(item) = %+v", got)
	}
	if got.StaleFactor != 1.0 {
		t.Errorf("StaleFactor default = %v", got.StaleFactor)
	}
	cs := got.ColumnStats("i_category")
	if cs == nil || cs.NDV != 10 {
		t.Fatalf("ColumnStats = %+v", cs)
	}
	if n, ok := cs.FrequencyOf(String("Music")); !ok || n != 7442 {
		t.Errorf("FrequencyOf(Music) = %d, %v", n, ok)
	}
	if _, ok := cs.FrequencyOf(String("Jewelry")); ok {
		t.Errorf("FrequencyOf(Jewelry) should be absent")
	}
}

func TestStaleFactorDistortsEstimates(t *testing.T) {
	c := New(testSchema())
	c.SetStats(&TableStats{Table: "WEB_SALES", Cardinality: 100000, Pages: 2000})
	if got := c.EstimatedCardinality("web_sales"); got != 100000 {
		t.Fatalf("fresh cardinality = %v", got)
	}
	if err := c.SetStaleFactor("web_sales", 0.01); err != nil {
		t.Fatalf("SetStaleFactor: %v", err)
	}
	if got := c.EstimatedCardinality("web_sales"); got != 1000 {
		t.Errorf("stale cardinality = %v, want 1000", got)
	}
	if got := c.EstimatedPages("web_sales"); got != 20 {
		t.Errorf("stale pages = %v, want 20", got)
	}
	if err := c.SetStaleFactor("missing", 0.5); err == nil {
		t.Errorf("SetStaleFactor on missing table should fail")
	}
}

func TestCatalogCloneIsIndependent(t *testing.T) {
	c := New(testSchema())
	c.SetStats(&TableStats{Table: "ITEM", Cardinality: 18000, Pages: 240,
		Columns: map[string]*ColumnStats{"I_CATEGORY": {Column: "I_CATEGORY", NDV: 10}}})
	clone := c.Clone()
	if err := clone.SetStaleFactor("ITEM", 0.5); err != nil {
		t.Fatalf("clone SetStaleFactor: %v", err)
	}
	if c.Stats("ITEM").StaleFactor != 1.0 {
		t.Errorf("mutating the clone changed the original")
	}
	clone.Stats("ITEM").Columns["I_CATEGORY"].NDV = 99
	if c.Stats("ITEM").Columns["I_CATEGORY"].NDV != 10 {
		t.Errorf("clone column stats share memory with original")
	}
	if len(clone.TablesWithStats()) != 1 || clone.TablesWithStats()[0] != "ITEM" {
		t.Errorf("TablesWithStats = %v", clone.TablesWithStats())
	}
}

func TestDefaultSystemConfig(t *testing.T) {
	cfg := DefaultSystemConfig()
	if cfg.TransferRate <= 0 || cfg.Overhead <= cfg.TransferRate {
		t.Errorf("random I/O should cost more than sequential: %+v", cfg)
	}
	if cfg.BufferPoolPages <= 0 || cfg.SortHeapPages <= 0 || cfg.PageSizeBytes <= 0 {
		t.Errorf("non-positive config: %+v", cfg)
	}
}
