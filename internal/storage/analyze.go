package storage

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"galo/internal/catalog"
)

// AnalyzeOptions chooses what the statistics pass collects beyond the
// table counts and, per column, the distinct count, null count, min/max,
// average width and most-frequent-value list it always collects.
type AnalyzeOptions struct {
	// Histograms adds an equi-depth histogram of histogramBuckets buckets to
	// every column (DB2's quantile statistics). Without one the optimizer
	// estimates ranges from min/max and equalities from the frequent values.
	Histograms bool
	// ColumnGroups lists sets of columns per table whose combined distinct
	// count and most frequent combinations are collected, e.g. {"ITEM":
	// {{"I_CATEGORY", "I_CLASS"}}}. Without a group statistic the optimizer
	// assumes independence.
	ColumnGroups map[string][][]string
}

const (
	// histogramBuckets is the histogram resolution (DB2's NUM_QUANTILES).
	histogramBuckets = 32
	// frequentValues is the size of a column's most-frequent-value list
	// (DB2's NUM_FREQVALUES).
	frequentValues = 10
	// groupFrequentValues is the size of the most-frequent-combination list
	// collected per column group, sized so that every (tenant, dominant type)
	// combination of the trace workload fits.
	groupFrequentValues = 256
)

// Analyze runs the statistics pass over one table (DB2's RUNSTATS) and
// installs a fresh snapshot in the catalog, replacing any earlier one. Each
// column's non-null values are sorted once; the distinct count, min/max, the
// frequent values and the histogram are all read from the runs of equal
// values in that order.
//
// Like its real-world counterpart, the pass describes the data as of the time
// it runs: rows inserted afterwards are invisible to the snapshot until the
// next pass. That window is where the paper's Figure 8 misestimation lives.
func Analyze(db *Database, table string, opts AnalyzeOptions) error {
	t := db.Table(table)
	if t == nil {
		return fmt.Errorf("storage: analyze of unknown table %s", table)
	}
	def := t.Def
	ts := &catalog.TableStats{
		Table:       def.Name,
		Cardinality: int64(len(t.Rows)),
		Pages:       db.Pages(def.Name),
		RowWidth:    t.RowWidth(),
		Columns:     make(map[string]*catalog.ColumnStats, len(def.Columns)),
		StaleFactor: 1.0,
	}
	values := make([]catalog.Value, 0, len(t.Rows))
	var scratch catalog.SortScratch
	for ci, col := range def.Columns {
		cs := &catalog.ColumnStats{Column: col.Name, RowCount: ts.Cardinality}
		values = values[:0]
		var width int64
		for _, row := range t.Rows {
			v := row[ci]
			if v.IsNull() {
				cs.NullCount++
				continue
			}
			values = append(values, v)
			if v.K == catalog.KindString {
				width += int64(len(v.S)) + 4
			} else {
				width += 8
			}
		}
		if len(t.Rows) > 0 {
			cs.AvgWidth = int(width / int64(len(t.Rows)))
		}
		catalog.SortStable(values, 1, valueKey, catalog.Compare, &scratch)
		var top frequentList
		for i := 0; i < len(values); {
			end := runEnd(values, i)
			cs.NDV++
			top.offer(values[i], int64(end-i))
			i = end
		}
		cs.Frequent = top.values
		if len(values) > 0 {
			cs.Min, cs.Max = values[0], values[len(values)-1]
			if opts.Histograms {
				cs.Histogram = equiDepth(values, histogramBuckets)
			}
		}
		ts.Columns[col.Name] = cs
	}
	for tbl, groups := range opts.ColumnGroups {
		if !strings.EqualFold(tbl, def.Name) {
			continue
		}
		for _, group := range groups {
			ndv, freq := groupStats(t, group)
			cols := make([]string, len(group))
			for i, c := range group {
				cols[i] = strings.ToUpper(c)
			}
			ts.Groups = append(ts.Groups, catalog.ColumnGroup{Columns: cols, NDV: ndv, Frequent: freq})
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

// valueKey reads a statistics value as its own one-column sort key.
func valueKey(v *catalog.Value, _ int) *catalog.Value { return v }

// runEnd returns the end of the run of equal values that starts at i.
func runEnd(sorted []catalog.Value, i int) int {
	end := i + 1
	for end < len(sorted) && catalog.Equal(sorted[end], sorted[end-1]) {
		end++
	}
	return end
}

// frequentList keeps the frequentValues most frequent values offered, most
// frequent first and ties in ascending Value.Key order. A value's key is built
// only when its count reaches the list.
type frequentList struct {
	values []catalog.FrequentValue
	keys   []string
}

func (f *frequentList) offer(v catalog.Value, count int64) {
	full := len(f.values) == frequentValues
	if full && count < f.values[frequentValues-1].Count {
		return
	}
	key := v.Key()
	i := len(f.values)
	for i > 0 && (f.values[i-1].Count < count || f.values[i-1].Count == count && f.keys[i-1] > key) {
		i--
	}
	if full {
		if i == frequentValues {
			return
		}
		f.values, f.keys = f.values[:frequentValues-1], f.keys[:frequentValues-1]
	}
	f.values = slices.Insert(f.values, i, catalog.FrequentValue{Value: v, Count: count})
	f.keys = slices.Insert(f.keys, i, key)
}

// equiDepth builds an equi-depth histogram over non-null values sorted by
// catalog.Compare. Bucket boundaries never split a run of equal values, so a
// heavily repeated value ends up alone in (possibly) an oversized bucket —
// which is what makes equi-depth histograms robust to skew. Returns nil for an
// empty input.
func equiDepth(sorted []catalog.Value, buckets int) *catalog.Histogram {
	if len(sorted) == 0 {
		return nil
	}
	h := &catalog.Histogram{Min: sorted[0], Rows: int64(len(sorted))}
	depth := max((len(sorted)+buckets-1)/buckets, 1)
	for i := 0; i < len(sorted); {
		// Extend the bucket so it closes on a value boundary.
		end := runEnd(sorted, min(i+depth, len(sorted))-1)
		ndv := int64(0)
		for k := i; k < end; k = runEnd(sorted, k) {
			ndv++
		}
		h.Buckets = append(h.Buckets, catalog.Bucket{Hi: sorted[end-1], Count: int64(end - i), NDV: ndv})
		i = end
	}
	return h
}

// groupStats computes the combined NDV of a column group and its most
// frequent value combinations (groupFrequentValues of them). Only columns
// present in the table definition participate; combination values follow the
// group's column order.
func groupStats(t *Table, group []string) (int64, []catalog.GroupFrequentValue) {
	pos := make([]int, 0, len(group))
	for _, c := range group {
		if i := t.Def.ColumnIndex(c); i >= 0 {
			pos = append(pos, i)
		}
	}
	if len(pos) != len(group) {
		return 0, nil
	}
	counts := make(map[string]int64)
	samples := make(map[string][]catalog.Value)
	var sb strings.Builder
	for _, row := range t.Rows {
		sb.Reset()
		for _, p := range pos {
			sb.WriteString(row[p].Key())
			sb.WriteByte('|')
		}
		key := sb.String()
		counts[key]++
		if _, ok := samples[key]; !ok {
			vals := make([]catalog.Value, len(pos))
			for vi, p := range pos {
				vals[vi] = row[p]
			}
			samples[key] = vals
		}
	}
	ndv := int64(len(counts))
	type kv struct {
		key   string
		count int64
	}
	all := make([]kv, 0, len(counts))
	for key, c := range counts {
		all = append(all, kv{key, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].key < all[j].key
	})
	if len(all) > groupFrequentValues {
		all = all[:groupFrequentValues]
	}
	freq := make([]catalog.GroupFrequentValue, len(all))
	for i, e := range all {
		freq[i] = catalog.GroupFrequentValue{Values: samples[e.key], Count: e.count}
	}
	return ndv, freq
}
