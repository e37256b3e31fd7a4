// Package stats implements RUNSTATS-style statistics collection: it scans the
// stored data and produces the catalog statistics snapshots the cost-based
// optimizer consumes.
//
// The collector supports deliberate blind spots — sampling, frequent-value
// list truncation, and skipping column-group (correlation) statistics — so
// that the optimizer's estimates can diverge from the runtime truth, which is
// the premise of the paper: "cost estimations may go awry".
package stats

import (
	"fmt"
	"sort"
	"strings"

	"galo/internal/catalog"
	"galo/internal/storage"
)

// Options controls what the collector gathers.
type Options struct {
	// NumFrequentValues is the size of the most-frequent-value list per
	// column (DB2's NUM_FREQVALUES). Zero disables frequent-value stats.
	NumFrequentValues int
	// ColumnGroups lists sets of columns per table for which combined
	// distinct counts should be collected, e.g. {"ITEM": {{"I_CATEGORY",
	// "I_CLASS"}}}. Without a group stat the optimizer assumes independence.
	ColumnGroups map[string][][]string
	// SampleEvery collects statistics from every k-th row only (1 = full
	// scan). Sampling introduces estimation error on skewed data.
	SampleEvery int
}

// groupFrequentValues is the size of the most-frequent-combination list
// collected per column group, sized so that every (tenant, dominant type)
// combination of the trace workload fits.
const groupFrequentValues = 256

// DefaultOptions returns full-scan collection with a 10-entry frequent value
// list and no column groups.
func DefaultOptions() Options {
	return Options{NumFrequentValues: 10, SampleEvery: 1}
}

// Collect gathers statistics for one table and installs them in the catalog.
func Collect(db *storage.Database, table string, opts Options) (*catalog.TableStats, error) {
	t := db.Table(table)
	if t == nil {
		return nil, fmt.Errorf("stats: unknown table %s", table)
	}
	if opts.SampleEvery < 1 {
		opts.SampleEvery = 1
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

	type colAcc struct {
		counts   map[string]int64
		sample   map[string]catalog.Value
		nulls    int64
		min, max catalog.Value
		rows     int64
		width    int64
	}
	accs := make([]*colAcc, len(def.Columns))
	for i := range accs {
		accs[i] = &colAcc{counts: make(map[string]int64), sample: make(map[string]catalog.Value)}
	}

	for ri, row := range t.Rows {
		if ri%opts.SampleEvery != 0 {
			continue
		}
		for ci, v := range row {
			acc := accs[ci]
			acc.rows++
			if v.IsNull() {
				acc.nulls++
				continue
			}
			key := v.Key()
			acc.counts[key]++
			if _, ok := acc.sample[key]; !ok {
				acc.sample[key] = v
			}
			if acc.min.IsNull() || catalog.Compare(v, acc.min) < 0 {
				acc.min = v
			}
			if acc.max.IsNull() || catalog.Compare(v, acc.max) > 0 {
				acc.max = v
			}
			if v.K == catalog.KindString {
				acc.width += int64(len(v.S)) + 4
			} else {
				acc.width += 8
			}
		}
	}

	scale := int64(opts.SampleEvery)
	for ci, col := range def.Columns {
		acc := accs[ci]
		cs := &catalog.ColumnStats{
			Column:    col.Name,
			NDV:       int64(len(acc.counts)),
			NullCount: acc.nulls * scale,
			Min:       acc.min,
			Max:       acc.max,
			RowCount:  ts.Cardinality,
		}
		if acc.rows > 0 {
			cs.AvgWidth = int(acc.width / acc.rows)
		}
		if opts.NumFrequentValues > 0 {
			cs.Frequent = topK(acc.counts, acc.sample, opts.NumFrequentValues, scale)
		}
		ts.Columns[col.Name] = cs
	}

	// Column-group statistics, if requested for this table.
	for tbl, groups := range opts.ColumnGroups {
		if !strings.EqualFold(tbl, def.Name) {
			continue
		}
		for _, group := range groups {
			ndv, freq := groupStats(t, group, opts.SampleEvery)
			cols := make([]string, len(group))
			for i, c := range group {
				cols[i] = strings.ToUpper(c)
			}
			ts.Groups = append(ts.Groups, catalog.ColumnGroup{Columns: cols, NDV: ndv, Frequent: freq})
		}
	}

	db.Catalog.SetStats(ts)
	return ts, nil
}

// CollectAll runs Collect over every table that holds rows.
func CollectAll(db *storage.Database, opts Options) error {
	for _, name := range db.TableNames() {
		if _, err := Collect(db, name, opts); err != nil {
			return err
		}
	}
	return nil
}

func topK(counts map[string]int64, sample map[string]catalog.Value, k int, scale int64) []catalog.FrequentValue {
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
	if len(all) > k {
		all = all[:k]
	}
	out := make([]catalog.FrequentValue, len(all))
	for i, e := range all {
		out[i] = catalog.FrequentValue{Value: sample[e.key], Count: e.count * scale}
	}
	return out
}

// groupStats computes the combined NDV of a column group and its most
// frequent value combinations (groupFrequentValues of them). Only columns
// present in the table definition participate; combination values follow the
// group's column order.
func groupStats(t *storage.Table, group []string, sampleEvery int) (int64, []catalog.GroupFrequentValue) {
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
	for ri, row := range t.Rows {
		if ri%sampleEvery != 0 {
			continue
		}
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
	scale := int64(sampleEvery)
	freq := make([]catalog.GroupFrequentValue, len(all))
	for i, e := range all {
		freq[i] = catalog.GroupFrequentValue{Values: samples[e.key], Count: e.count * scale}
	}
	return ndv, freq
}
