package storage

import (
	"fmt"
	"slices"

	"galo/internal/catalog"
)

// AnalyzeOptions controls the ANALYZE pass.
type AnalyzeOptions struct {
	// Buckets is the number of equi-depth histogram buckets per column
	// (DB2's NUM_QUANTILES). Values below 1 use DefaultAnalyzeBuckets.
	Buckets int
}

// DefaultAnalyzeBuckets is the histogram resolution used when none is given.
const DefaultAnalyzeBuckets = 32

// Analyze runs the ANALYZE-style statistics pass over one table: it builds an
// equi-depth histogram and refreshed distinct count for every column and
// installs them on the table's catalog statistics snapshot. When the table
// has no snapshot yet (RUNSTATS never ran), a minimal one is created first so
// that ANALYZE alone is enough to give the optimizer statistics.
//
// Like its real-world counterpart, ANALYZE describes the data as of the time
// it runs: rows inserted afterwards are invisible to the histogram until the
// next pass. That window is where the paper's Figure 8 misestimation lives.
func Analyze(db *Database, table string, opts AnalyzeOptions) error {
	t := db.lookup(table)
	if t == nil {
		return fmt.Errorf("storage: analyze of unknown table %s", table)
	}
	buckets := opts.Buckets
	if buckets < 1 {
		buckets = DefaultAnalyzeBuckets
	}
	ts := db.Catalog.Stats(table)
	if ts == nil {
		ts = &catalog.TableStats{
			Table:       t.Def.Name,
			Columns:     make(map[string]*catalog.ColumnStats, len(t.Def.Columns)),
			StaleFactor: 1.0,
		}
	}
	// The pass snapshots the table as of now: an existing (possibly stale)
	// snapshot is refreshed wholesale, table-level counters included.
	ts.Cardinality = int64(len(t.Rows))
	ts.Pages = db.Pages(t.Def.Name)
	ts.RowWidth = t.RowWidth()
	for ci, col := range t.Def.Columns {
		values := make([]catalog.Value, 0, len(t.Rows))
		nulls := int64(0)
		for _, row := range t.Rows {
			if row[ci].IsNull() {
				nulls++
				continue
			}
			values = append(values, row[ci])
		}
		hist := BuildEquiDepthHistogram(values, buckets)
		cs := ts.Columns[col.Name]
		if cs == nil {
			cs = &catalog.ColumnStats{Column: col.Name}
			ts.Columns[col.Name] = cs
		}
		cs.RowCount = ts.Cardinality
		cs.Histogram = hist
		cs.NullCount = nulls
		if hist != nil {
			cs.Min = hist.Min
			cs.Max = hist.Max()
			ndv := int64(0)
			for _, b := range hist.Buckets {
				ndv += b.NDV
			}
			cs.NDV = ndv
		}
	}
	db.Catalog.SetStats(ts)
	return nil
}

// AnalyzeAll runs Analyze over every table that holds rows.
func AnalyzeAll(db *Database, opts AnalyzeOptions) error {
	for _, name := range db.TableNames() {
		if err := Analyze(db, name, opts); err != nil {
			return err
		}
	}
	return nil
}

// BuildEquiDepthHistogram builds an equi-depth histogram over the given
// non-null values. Bucket boundaries never split a run of equal values, so a
// heavily repeated value ends up alone in (possibly) an oversized bucket —
// which is what makes equi-depth histograms robust to skew. Returns nil for
// an empty input.
func BuildEquiDepthHistogram(values []catalog.Value, buckets int) *catalog.Histogram {
	if len(values) == 0 {
		return nil
	}
	if buckets < 1 {
		buckets = DefaultAnalyzeBuckets
	}
	sorted := append([]catalog.Value(nil), values...)
	slices.SortStableFunc(sorted, catalog.Compare)

	h := &catalog.Histogram{Min: sorted[0], Rows: int64(len(sorted))}
	depth := (len(sorted) + buckets - 1) / buckets
	if depth < 1 {
		depth = 1
	}
	i := 0
	for i < len(sorted) {
		end := i + depth
		if end > len(sorted) {
			end = len(sorted)
		}
		// Extend the bucket so it closes on a value boundary.
		for end < len(sorted) && catalog.Equal(sorted[end], sorted[end-1]) {
			end++
		}
		count := int64(end - i)
		ndv := int64(1)
		for k := i + 1; k < end; k++ {
			if !catalog.Equal(sorted[k], sorted[k-1]) {
				ndv++
			}
		}
		h.Buckets = append(h.Buckets, catalog.Bucket{Hi: sorted[end-1], Count: count, NDV: ndv})
		i = end
	}
	return h
}
