package learning

import (
	"fmt"
	"sort"
	"strings"

	"galo/internal/catalog"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// SubQueries decomposes a large SQL query into the connected sub-queries the
// learning engine analyzes (Figure 3 of the paper): every connected subset of
// the query's table references with at least one join and at most
// maxJoins+1 tables, projecting the join and local predicates applicable to
// the subset. Enumeration is capped at maxSubQueries to keep very wide
// queries tractable; the paper bounds the same explosion with its
// join-number threshold.
//
// The query's column references must be resolved (sqlparser.Resolve) so that
// every predicate knows which table reference it belongs to.
func SubQueries(q *sqlparser.Query, maxJoins, maxSubQueries int) []*sqlparser.Query {
	if maxJoins < 1 {
		maxJoins = 1
	}
	if maxSubQueries <= 0 {
		maxSubQueries = 64
	}
	n := len(q.From)
	if n < 2 {
		return nil
	}
	maxTables := maxJoins + 1

	// Adjacency over FROM entries via join predicates.
	adj := make([][]int, n)
	nameToIdx := map[string]int{}
	for i, tr := range q.From {
		nameToIdx[strings.ToUpper(tr.Name())] = i
	}
	for _, p := range q.Where {
		if !p.IsJoin() {
			continue
		}
		li, lok := nameToIdx[strings.ToUpper(p.Left.Table)]
		ri, rok := nameToIdx[strings.ToUpper(p.Right.Table)]
		if !lok || !rok || li == ri {
			continue
		}
		adj[li] = append(adj[li], ri)
		adj[ri] = append(adj[ri], li)
	}

	seen := map[string]bool{}
	var out []*sqlparser.Query
	var grow func(subset []int)
	grow = func(subset []int) {
		if len(out) >= maxSubQueries {
			return
		}
		if len(subset) >= 2 {
			key := subsetKey(subset)
			if !seen[key] {
				seen[key] = true
				if sq := projectSubQuery(q, subset); sq != nil && sq.NumJoins() >= 1 {
					out = append(out, sq)
				}
			}
		}
		if len(subset) >= maxTables {
			return
		}
		// Extend with any neighbour of the subset with a larger index than the
		// smallest element to limit duplicate enumeration orders.
		inSubset := map[int]bool{}
		for _, i := range subset {
			inSubset[i] = true
		}
		candidates := map[int]bool{}
		for _, i := range subset {
			for _, nb := range adj[i] {
				if !inSubset[nb] {
					candidates[nb] = true
				}
			}
		}
		cands := make([]int, 0, len(candidates))
		for c := range candidates {
			cands = append(cands, c)
		}
		sort.Ints(cands)
		for _, c := range cands {
			if len(out) >= maxSubQueries {
				return
			}
			grow(append(append([]int{}, subset...), c))
		}
	}
	for i := 0; i < n && len(out) < maxSubQueries; i++ {
		grow([]int{i})
	}
	return out
}

func subsetKey(subset []int) string {
	cp := append([]int(nil), subset...)
	sort.Ints(cp)
	parts := make([]string, len(cp))
	for i, v := range cp {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, ",")
}

// projectSubQuery builds the sub-query over the given FROM indices: it keeps
// the referenced tables, the join predicates fully inside the subset, the
// local predicates on subset tables, and the select-list columns that belong
// to subset tables (falling back to the join columns when none do).
func projectSubQuery(q *sqlparser.Query, subset []int) *sqlparser.Query {
	inSubset := map[string]bool{}
	sub := &sqlparser.Query{Name: q.Name}
	for _, i := range subset {
		sub.From = append(sub.From, q.From[i])
		inSubset[strings.ToUpper(q.From[i].Name())] = true
	}
	for _, p := range q.Where {
		switch {
		case p.Kind == sqlparser.PredJoin:
			if inSubset[strings.ToUpper(p.Left.Table)] && inSubset[strings.ToUpper(p.Right.Table)] {
				sub.Where = append(sub.Where, p)
			}
		default:
			if inSubset[strings.ToUpper(p.Left.Table)] {
				sub.Where = append(sub.Where, p)
			}
		}
	}
	for _, c := range q.Select {
		if inSubset[strings.ToUpper(c.Table)] {
			sub.Select = append(sub.Select, c)
		}
	}
	if len(sub.Select) == 0 {
		for _, p := range sub.Where {
			if p.Kind == sqlparser.PredJoin {
				sub.Select = append(sub.Select, p.Left)
				break
			}
		}
	}
	if len(sub.Select) == 0 {
		sub.Star = true
	}
	return sub
}

// StructureKey returns a key identifying the sub-query's structure
// independent of predicate values, used to merge sub-queries with the same
// structure across workload queries ("the sub-queries with the same structure
// over different queries can be merged and evaluated once").
func StructureKey(q *sqlparser.Query) string {
	var parts []string
	tables := make([]string, len(q.From))
	for i, tr := range q.From {
		tables[i] = strings.ToUpper(tr.Table)
	}
	sort.Strings(tables)
	parts = append(parts, "T:"+strings.Join(tables, ","))
	var preds []string
	for _, p := range q.Where {
		if p.Kind == sqlparser.PredJoin {
			cols := []string{p.Left.Column, p.Right.Column}
			sort.Strings(cols)
			preds = append(preds, "J:"+strings.Join(cols, "="))
		} else {
			preds = append(preds, fmt.Sprintf("L:%s:%d", p.Left.Column, p.Kind))
		}
	}
	sort.Strings(preds)
	parts = append(parts, preds...)
	return strings.Join(parts, "|")
}

// PredicateVariants generates variations of a sub-query by replacing the
// values of its equality predicates with other values sampled from the
// database, producing different reduction factors and hence result
// cardinalities (Section 3.2: "the values of the query's predicates are
// varied"). The original query is always the first variant.
func PredicateVariants(db *storage.Database, q *sqlparser.Query, perPredicate int, gen *storage.Generator) []*sqlparser.Query {
	variants := []*sqlparser.Query{q}
	if perPredicate <= 0 {
		return variants
	}
	for pi, p := range q.Where {
		table := baseTableOf(q, p.Left.Table)
		var samples []catalog.Value
		between := p.Kind == sqlparser.PredBetween && !p.Not
		switch {
		case p.Kind == sqlparser.PredCompare && p.Op == "=":
			samples = sampleColumnValues(db, table, p.Left.Column, perPredicate, gen)
		case p.Kind == sqlparser.PredCompare:
			switch p.Op {
			case ">", ">=", "<", "<=":
				// Range predicates are varied across the column's value
				// quantiles, so both wide ranges (the Figure 8 over-estimation
				// hazard) and narrow ones contribute observations — that
				// spread is what establishes a template's cardinality bounds.
				samples = sampleColumnQuantiles(db, table, p.Left.Column, perPredicate)
			}
		case between:
			// BETWEEN ranges vary their lower bound across quantiles: the
			// same problem shape is observed at several range widths, so the
			// learned template's cardinality bounds cover a band of ranges
			// rather than one point.
			samples = sampleColumnQuantiles(db, table, p.Left.Column, perPredicate)
		}
		for _, v := range samples {
			if between {
				// Skip samples that would not change the range (equal to the
				// current lower bound, or above the upper bound).
				if catalog.Equal(v, p.Lo) || catalog.Compare(v, p.Hi) > 0 {
					continue
				}
			} else if catalog.Equal(v, p.Value) {
				continue
			}
			variant := q.Clone()
			if between {
				variant.Where[pi].Lo = v
			} else {
				variant.Where[pi].Value = v
			}
			variants = append(variants, variant)
		}
	}
	return variants
}

// sampleColumnQuantiles returns n values spread across the column's sorted
// distinct values (excluding the extremes when possible), for varying range
// predicates.
func sampleColumnQuantiles(db *storage.Database, table, column string, n int) []catalog.Value {
	t := db.Table(table)
	if t == nil || n <= 0 {
		return nil
	}
	ci := t.Def.ColumnIndex(column)
	if ci < 0 {
		return nil
	}
	seen := map[string]catalog.Value{}
	for _, row := range t.Rows {
		v := row[ci]
		if v.IsNull() {
			continue
		}
		seen[v.Key()] = v
	}
	if len(seen) == 0 {
		return nil
	}
	values := make([]catalog.Value, 0, len(seen))
	for _, v := range seen {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return catalog.Compare(values[i], values[j]) < 0 })
	out := make([]catalog.Value, 0, n)
	for i := 1; i <= n; i++ {
		pos := len(values) * i / (n + 1)
		if pos >= len(values) {
			pos = len(values) - 1
		}
		out = append(out, values[pos])
	}
	return out
}

func baseTableOf(q *sqlparser.Query, refName string) string {
	if tr := q.TableByName(refName); tr != nil {
		return tr.Table
	}
	return refName
}

// sampleColumnValues picks distinct values of a column with varying
// frequencies: the most frequent value, the least frequent, and random picks
// in between, following the paper's property-range sampling.
func sampleColumnValues(db *storage.Database, table, column string, n int, gen *storage.Generator) []catalog.Value {
	t := db.Table(table)
	if t == nil || n <= 0 {
		return nil
	}
	ci := t.Def.ColumnIndex(column)
	if ci < 0 {
		return nil
	}
	counts := map[string]int{}
	byKey := map[string]catalog.Value{}
	for _, row := range t.Rows {
		v := row[ci]
		if v.IsNull() {
			continue
		}
		counts[v.Key()]++
		byKey[v.Key()] = v
	}
	if len(counts) == 0 {
		return nil
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	var out []catalog.Value
	out = append(out, byKey[keys[0]]) // most frequent
	if n > 1 && len(keys) > 1 {
		out = append(out, byKey[keys[len(keys)-1]]) // least frequent
	}
	for len(out) < n && len(keys) > 2 {
		out = append(out, byKey[keys[1+gen.Intn(len(keys)-2)]])
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}
