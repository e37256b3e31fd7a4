package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// FrequentValue records one entry of a column's most-frequent-value list.
type FrequentValue struct {
	Value Value
	Count int64
}

// ColumnStats carries the per-column statistics the cost-based optimizer
// consults: number of distinct values, null count, min/max, and the
// most-frequent-value list.
type ColumnStats struct {
	Column    string
	NDV       int64
	NullCount int64
	Min       Value
	Max       Value
	Frequent  []FrequentValue
	RowCount  int64
	AvgWidth  int // bytes, used for row-size estimates

	// Histogram is the column's equi-depth histogram when the statistics pass
	// collected one (storage.Analyze with Histograms); nil otherwise.
	// Histograms are immutable and shared between catalog clones.
	Histogram *Histogram
}

// FrequencyOf returns the recorded frequency of v if it appears in the
// frequent-value list, and whether it was found.
func (c *ColumnStats) FrequencyOf(v Value) (int64, bool) {
	for _, f := range c.Frequent {
		if Equal(f.Value, v) {
			return f.Count, true
		}
	}
	return 0, false
}

// GroupFrequentValue records one frequent combination of a column group's
// values. Values is aligned with the owning group's Columns order.
type GroupFrequentValue struct {
	Values []Value
	Count  int64
}

// ColumnGroup records the combined distinct count of a set of correlated
// columns, plus the most frequent value combinations (DB2's column-group
// frequent values). The estimator may or may not use it; the gap between
// using and ignoring it is one of the sources of mis-estimation GALO learns
// about.
type ColumnGroup struct {
	Columns  []string
	NDV      int64
	Frequent []GroupFrequentValue
}

// FrequencyOf returns the recorded row count of the exact value combination
// (aligned with g.Columns), and whether it appears in the frequent list.
func (g ColumnGroup) FrequencyOf(vals []Value) (int64, bool) {
	if len(vals) != len(g.Columns) {
		return 0, false
	}
	for _, f := range g.Frequent {
		if len(f.Values) != len(vals) {
			continue
		}
		match := true
		for i := range vals {
			if !Equal(f.Values[i], vals[i]) {
				match = false
				break
			}
		}
		if match {
			return f.Count, true
		}
	}
	return 0, false
}

// TableStats carries the per-table statistics snapshot.
type TableStats struct {
	Table       string
	Cardinality int64
	Pages       int64
	RowWidth    int // average row width in bytes
	Columns     map[string]*ColumnStats
	Groups      []ColumnGroup

	// StaleFactor scales the cardinality the optimizer sees relative to the
	// truth: 1.0 means fresh statistics; 0.1 means the optimizer believes the
	// table is 10x smaller than it really is.
	StaleFactor float64
}

// ColumnStats returns statistics for the named column, or nil.
func (t *TableStats) ColumnStats(col string) *ColumnStats {
	if t == nil || t.Columns == nil {
		return nil
	}
	return t.Columns[strings.ToUpper(col)]
}

// GroupNDV returns the combined NDV recorded for exactly the given set of
// columns (order-insensitive), or 0 if no group statistic exists.
func (t *TableStats) GroupNDV(cols []string) int64 {
	if g := t.Group(cols); g != nil {
		return g.NDV
	}
	return 0
}

// Group returns the column-group statistic recorded for exactly the given
// set of columns (order-insensitive), or nil. The returned pointer aliases
// the stats snapshot; group contents are immutable once installed.
func (t *TableStats) Group(cols []string) *ColumnGroup {
	if t == nil {
		return nil
	}
	want := normalizeCols(cols)
	for i := range t.Groups {
		if equalCols(normalizeCols(t.Groups[i].Columns), want) {
			return &t.Groups[i]
		}
	}
	return nil
}

func normalizeCols(cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = strings.ToUpper(c)
	}
	sort.Strings(out)
	return out
}

func equalCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SystemConfig carries the system-wide parameters of the cost model. In the
// paper these correspond to DB2 configuration such as the disk transfer rate
// (Figure 7), buffer pool size and sort heap size.
type SystemConfig struct {
	// TransferRate is the per-page sequential read cost in milliseconds, as
	// the optimizer believes it to be.
	TransferRate float64
	// RuntimeTransferRate is the transfer rate the runtime actually observes.
	// When zero it equals TransferRate. A mismatch reproduces the paper's
	// Figure 7 problem pattern, where the configured transfer rate makes the
	// optimizer overestimate the cost of table scans.
	RuntimeTransferRate float64
	// Overhead is the per-random-I/O seek cost in milliseconds.
	Overhead float64
	// CPUSpeed is the per-row CPU processing cost in milliseconds.
	CPUSpeed float64
	// BufferPoolPages is the number of pages the buffer pool can hold.
	BufferPoolPages int64
	// SortHeapPages is the number of pages a sort may use before spilling.
	SortHeapPages int64
	// PageSizeBytes is the page size used to convert rows to pages.
	PageSizeBytes int64
}

// EffectiveRuntimeTransferRate returns the transfer rate the runtime
// observes: RuntimeTransferRate when set, TransferRate otherwise.
func (c SystemConfig) EffectiveRuntimeTransferRate() float64 {
	if c.RuntimeTransferRate > 0 {
		return c.RuntimeTransferRate
	}
	return c.TransferRate
}

// DefaultSystemConfig returns the configuration used throughout the
// experiments: a small buffer pool and sort heap relative to the data so that
// bad plans actually spill, as in the paper's 1 GB / constrained-memory
// setup.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		TransferRate:    0.18,
		Overhead:        3.5,
		CPUSpeed:        0.0005,
		BufferPoolPages: 4000,
		SortHeapPages:   256,
		PageSizeBytes:   4096,
	}
}

// Catalog bundles a schema, its statistics and the system configuration.
// It is safe for concurrent readers; statistics updates take the write lock.
type Catalog struct {
	mu     sync.RWMutex
	Schema *Schema
	Config SystemConfig
	stats  map[string]*TableStats
}

// New creates a catalog over the given schema with default system
// configuration and no statistics.
func New(schema *Schema) *Catalog {
	return &Catalog{
		Schema: schema,
		Config: DefaultSystemConfig(),
		stats:  make(map[string]*TableStats),
	}
}

// SetStats installs (or replaces) the statistics snapshot for a table.
func (c *Catalog) SetStats(ts *TableStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts.StaleFactor == 0 {
		ts.StaleFactor = 1.0
	}
	c.stats[strings.ToUpper(ts.Table)] = ts
}

// Stats returns the statistics snapshot for a table, or nil if RUNSTATS has
// not been collected.
func (c *Catalog) Stats(table string) *TableStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stats[strings.ToUpper(table)]
}

// EstimatedCardinality returns the table cardinality as the optimizer sees it
// (after stale-factor distortion), defaulting to 1000 when no statistics
// exist, as DB2 does with default statistics.
func (c *Catalog) EstimatedCardinality(table string) float64 {
	ts := c.Stats(table)
	if ts == nil {
		return 1000
	}
	card := float64(ts.Cardinality) * ts.StaleFactor
	if card < 1 {
		card = 1
	}
	return card
}

// EstimatedPages returns the number of pages the optimizer believes the table
// occupies.
func (c *Catalog) EstimatedPages(table string) float64 {
	ts := c.Stats(table)
	if ts == nil {
		return 100
	}
	pages := float64(ts.Pages) * ts.StaleFactor
	if pages < 1 {
		pages = 1
	}
	return pages
}

// Table is a convenience accessor for the schema's table.
func (c *Catalog) Table(name string) *Table { return c.Schema.Table(name) }

// SetStaleFactor marks a table's statistics as stale by the given factor.
// It is an error if statistics have not been collected for the table.
func (c *Catalog) SetStaleFactor(table string, factor float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.stats[strings.ToUpper(table)]
	if ts == nil {
		return fmt.Errorf("catalog: no statistics for table %s", table)
	}
	ts.StaleFactor = factor
	return nil
}

// Clone returns a deep-enough copy of the catalog that statistics can be
// modified independently (the schema is shared, statistics maps are copied).
func (c *Catalog) Clone() *Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := &Catalog{Schema: c.Schema, Config: c.Config, stats: make(map[string]*TableStats, len(c.stats))}
	for k, v := range c.stats {
		cp := *v
		cp.Columns = make(map[string]*ColumnStats, len(v.Columns))
		for ck, cv := range v.Columns {
			cc := *cv
			cp.Columns[ck] = &cc
		}
		cp.Groups = append([]ColumnGroup(nil), v.Groups...)
		out.stats[k] = &cp
	}
	return out
}

// TablesWithStats returns the names of tables that have statistics, sorted.
func (c *Catalog) TablesWithStats() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.stats))
	for n := range c.stats {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
