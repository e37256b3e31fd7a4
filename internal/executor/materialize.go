package executor

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"galo/internal/catalog"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// This file is the pre-streaming executor, kept verbatim behind
// Executor.Materialize: every operator drains its input into a full rowset
// before producing output. It is the golden baseline the streaming path is
// tested against — both must return byte-identical rows and charge identical
// per-operator actuals — and the comparison point for BENCH_executor's
// peak-intermediate-row measurements. The only additions over the original
// code are the holdRowset/releaseRowset calls feeding the intermediate-row
// accounting (an operator's output is held before its inputs are released,
// so the peak reflects the in+out residency materialization actually has).

// holdRowset charges a materialized intermediate rowset to the same residency
// tracker the streaming path uses (execContext.res), remembering the footprint
// so release returns exactly what was held.
func (c *execContext) holdRowset(rs *rowset) {
	rs.heldBytes = rowsFootprint(rs.rows, len(rs.cols))
	rs.heldRows = len(rs.rows)
	c.hold(rs.heldRows, rs.heldBytes)
}

// releaseRowset returns a materialized rowset's rows to the accounting.
func (c *execContext) releaseRowset(rs *rowset) {
	c.release(rs.heldRows, rs.heldBytes)
	rs.heldRows, rs.heldBytes = 0, 0
}

// matRun executes the subtree rooted at node and returns its output rows.
func (c *execContext) matRun(node *qgm.Node) (*rowset, error) {
	switch {
	case node.Op == qgm.OpRETURN:
		rs, err := c.matRun(node.Outer)
		if err != nil {
			return nil, err
		}
		c.charge(node, float64(len(rs.rows))*c.cfg.CPUSpeed*0.1, len(rs.rows))
		return rs, nil
	case node.Op.IsScan():
		return c.matScan(node)
	case node.Op.IsJoin():
		return c.matJoin(node)
	case node.Op == qgm.OpSORT:
		return c.matSort(node)
	case node.Op == qgm.OpFILTER:
		rs, err := c.matRun(node.Outer)
		if err != nil {
			return nil, err
		}
		c.charge(node, float64(len(rs.rows))*c.cfg.CPUSpeed*0.2, len(rs.rows))
		return rs, nil
	case node.Op == qgm.OpGRPBY:
		return c.matGroupBy(node)
	default:
		return nil, fmt.Errorf("executor: unsupported operator %s", node.Op)
	}
}

func (c *execContext) matScan(node *qgm.Node) (*rowset, error) {
	refName := c.instToRef[node.TableInstance]
	if refName == "" {
		return nil, fmt.Errorf("executor: plan instance %s not present in query", node.TableInstance)
	}
	table := c.exec.DB.Table(node.Table)
	if table == nil {
		return nil, fmt.Errorf("executor: unknown table %s", node.Table)
	}
	preds := sqlparser.PredicatesFor(c.query, refName)
	cols := scanColumns(node.TableInstance, table.Def)
	tablePages := float64(c.exec.DB.Pages(node.Table))
	tableRows := float64(len(table.Rows))
	rowsPerPage := float64(c.exec.DB.RowsPerPage(node.Table))

	switch node.Op {
	case qgm.OpTBSCAN:
		var out []storage.Row
		for _, row := range table.Rows {
			if c.rowMatches(table.Def, row, preds) {
				out = append(out, row)
			}
		}
		c.stats.LogicalReads += int64(tablePages)
		c.stats.PhysicalReads += int64(tablePages)
		c.stats.CPURows += int64(tableRows)
		c.charge(node, tablePages*c.rt()+tableRows*c.cfg.CPUSpeed, len(out))
		rs := &rowset{cols: cols, rows: out}
		c.holdRowset(rs)
		return rs, nil

	case qgm.OpIXSCAN, qgm.OpFETCH:
		idxDef := table.Def.IndexByName(node.Index)
		if idxDef == nil {
			return nil, fmt.Errorf("executor: table %s has no index %s", node.Table, node.Index)
		}
		lead := idxDef.Columns[0]
		matched := c.indexMatches(node.Table, idxDef, lead, table, preds)
		var out []storage.Row
		for _, rid := range matched {
			row := table.Rows[rid]
			if c.rowMatches(table.Def, row, preds) {
				out = append(out, row)
			}
		}
		matchRows := float64(len(matched))
		leafPages := math.Max(tableRows/300, 1)
		frac := matchRows / math.Max(tableRows, 1)
		// Mirrors ixscanCost: the B-tree dive only pays a full random I/O when
		// the table exceeds the buffer pool.
		dive := c.cfg.Overhead
		if tablePages <= float64(c.cfg.BufferPoolPages) {
			dive = c.cfg.Overhead * 0.1
		}
		millis := dive + leafPages*frac*c.rt() + matchRows*c.cfg.CPUSpeed*0.5
		c.stats.LogicalReads += int64(leafPages * frac)
		c.stats.CPURows += int64(matchRows)
		if node.Op == qgm.OpFETCH {
			clustered := matchRows * idxDef.ClusterRatio
			unclustered := matchRows * (1 - idxDef.ClusterRatio)
			randomIO := c.cfg.Overhead
			if tablePages <= float64(c.cfg.BufferPoolPages) {
				randomIO = c.rt() * 0.25
			}
			millis = millis + (clustered/math.Max(rowsPerPage, 1))*c.rt() + unclustered*randomIO + matchRows*c.cfg.CPUSpeed
			c.stats.PhysicalReads += int64(unclustered) + int64(clustered/math.Max(rowsPerPage, 1))
			c.stats.LogicalReads += int64(matchRows)
		}
		c.charge(node, millis, len(out))
		rs := &rowset{cols: cols, rows: out}
		c.holdRowset(rs)
		return rs, nil
	}
	return nil, fmt.Errorf("executor: unsupported scan %s", node.Op)
}

// indexMatches returns the row IDs the index access touches, using the local
// predicates on the index's leading column to narrow the range when possible.
// (The streaming path's indexBounds covers the same candidates as positions;
// this materializes them as a row-ID list.)
func (c *execContext) indexMatches(tableName string, idxDef *catalog.Index, lead string, table *storage.Table, preds []sqlparser.Predicate) []int {
	idx := c.exec.DB.Index(tableName, idxDef.Name)
	if idx == nil {
		return nil
	}
	for _, p := range preds {
		if !strings.EqualFold(p.Left.Column, lead) {
			continue
		}
		switch {
		case p.Kind == sqlparser.PredCompare && p.Op == "=":
			return idx.LookupEqual(p.Value)
		case p.Kind == sqlparser.PredCompare && (p.Op == ">" || p.Op == ">="):
			v := p.Value
			return idx.LookupRange(&v, nil)
		case p.Kind == sqlparser.PredCompare && (p.Op == "<" || p.Op == "<="):
			v := p.Value
			return idx.LookupRange(nil, &v)
		case p.Kind == sqlparser.PredBetween && !p.Not:
			lo, hi := p.Lo, p.Hi
			return idx.LookupRange(&lo, &hi)
		}
	}
	// No sargable predicate: the access touches every entry (in index order).
	all := make([]int, 0, idx.Len())
	for _, e := range idx.Entries {
		all = append(all, e.RowID)
	}
	return all
}

// matJoin executes one join operator over fully materialized inputs.
func (c *execContext) matJoin(node *qgm.Node) (*rowset, error) {
	outer, err := c.matRun(node.Outer)
	if err != nil {
		return nil, err
	}
	inner, err := c.matRun(node.Inner)
	if err != nil {
		return nil, err
	}
	key, preds := c.joinKeys(node, outer.cols, inner.cols)
	joined := hashJoinRows(outer, inner, key, presizeHint(node.EstCardinality))
	cols := append(append([]string{}, outer.cols...), inner.cols...)
	out := &rowset{cols: cols, rows: joined}

	outerRows := float64(len(outer.rows))
	innerRows := float64(len(inner.rows))
	outRows := float64(len(joined))
	cpu := c.cfg.CPUSpeed

	switch node.Op {
	case qgm.OpHSJOIN:
		probeFactor := 1.0
		if node.BloomFilter {
			probeFactor = 0.6
		}
		millis := innerRows*cpu*2 + outerRows*cpu*probeFactor + outRows*cpu*0.1
		buildPages := pagesOf(c.cfg, innerRows, rowWidth(inner))
		if buildPages > float64(c.cfg.SortHeapPages) {
			spill := buildPages
			outerPages := pagesOf(c.cfg, outerRows, rowWidth(outer))
			if node.BloomFilter {
				outerPages *= 0.5
			}
			spill += outerPages
			millis += 2 * spill * c.rt()
			c.stats.SortSpillPages += int64(spill)
			c.stats.PhysicalReads += int64(spill)
		}
		c.stats.CPURows += int64(innerRows + outerRows)
		c.charge(node, millis, len(joined))

	case qgm.OpNLJOIN:
		matchedPerProbe := 0.0
		if outerRows > 0 {
			matchedPerProbe = outRows / outerRows
		}
		perProbe := c.nlProbeMillis(node.Inner, matchedPerProbe, innerRows)
		millis := outerRows*perProbe + outRows*cpu
		c.stats.CPURows += int64(outerRows)
		c.charge(node, millis, len(joined))

	case qgm.OpMSJOIN:
		// A merge join over sorted inputs can stop reading the outer as soon
		// as its key exceeds the largest inner key (the Figure 8 early-out).
		outerProcessed := outerRows
		if node.EarlyOut && len(key.outerPos) > 0 && innerRows > 0 {
			maxInner := maxKey(inner.rows, key.innerPos[0])
			processed := 0
			for _, r := range outer.rows {
				if catalog.Compare(r[key.outerPos[0]], maxInner) <= 0 {
					processed++
				}
			}
			outerProcessed = float64(processed) + 1
			if outerProcessed > outerRows {
				outerProcessed = outerRows
			}
		}
		if innerRows == 0 {
			outerProcessed = 1
		}
		// Same formula as the optimizer's msjoinCost, over actual row counts:
		// a single interleaved pass over pre-sorted inputs.
		millis := (outerProcessed+innerRows)*cpu*0.5 + outRows*cpu*0.1
		c.stats.CPURows += int64(outerProcessed + innerRows)
		c.charge(node, millis, len(joined))
	default:
		return nil, fmt.Errorf("executor: unsupported join %s", node.Op)
	}
	_ = preds
	c.holdRowset(out)
	c.releaseRowset(outer)
	c.releaseRowset(inner)
	return out, nil
}

func (c *execContext) matSort(node *qgm.Node) (*rowset, error) {
	rs, err := c.matRun(node.Outer)
	if err != nil {
		return nil, err
	}
	// A SORT carrying an order property (one feeding a merge join, or a final
	// ORDER BY sort) physically establishes that order, so downstream
	// operators — the merge join's early-out in particular — see honestly
	// sorted rows. When the property names the query's leading ORDER BY
	// column, the full ORDER BY key list is used (the property only records
	// the primary order); SORTs without a property fall back to the query's
	// ORDER BY columns.
	idx := c.sortKey(node, rs.cols)
	if len(idx) > 0 {
		sort.SliceStable(rs.rows, func(i, j int) bool {
			for _, p := range idx {
				if cmp := catalog.Compare(rs.rows[i][p], rs.rows[j][p]); cmp != 0 {
					return cmp < 0
				}
			}
			return false
		})
	}
	rows := float64(len(rs.rows))
	millis := c.sortMillis(rows, rowWidth(rs))
	c.charge(node, millis, len(rs.rows))
	return rs, nil
}

func (c *execContext) matGroupBy(node *qgm.Node) (*rowset, error) {
	rs, err := c.matRun(node.Outer)
	if err != nil {
		return nil, err
	}
	idx := make([]int, 0, len(c.query.GroupBy))
	for _, k := range c.query.GroupBy {
		inst := c.refToInst[strings.ToUpper(k.Table)]
		if p := rs.colIndex(inst + "." + k.Column); p >= 0 {
			idx = append(idx, p)
		}
	}
	seen := map[string]bool{}
	var out []storage.Row
	var key strings.Builder
	for _, row := range rs.rows {
		key.Reset()
		for _, p := range idx {
			key.WriteString(row[p].Key())
			key.WriteByte('|')
		}
		if !seen[key.String()] {
			seen[key.String()] = true
			out = append(out, row)
		}
	}
	c.charge(node, float64(len(rs.rows))*c.cfg.CPUSpeed, len(out))
	res := &rowset{cols: rs.cols, rows: out}
	c.holdRowset(res)
	c.releaseRowset(rs)
	return res, nil
}

// hashJoinRows computes the equi-join of two rowsets (the materializing
// baseline path). With no key it degrades to a cartesian product. The build
// map is pre-sized from the inner's actual row count and the output slice
// from the plan's estimated output cardinality.
func hashJoinRows(outer, inner *rowset, key joinKey, estOut int) []storage.Row {
	out := make([]storage.Row, 0, estOut)
	if len(key.outerPos) == 0 {
		for _, orow := range outer.rows {
			for _, irow := range inner.rows {
				out = append(out, concatRows(orow, irow))
			}
		}
		return out
	}
	build := make(map[string][]storage.Row, len(inner.rows))
	var kb strings.Builder
	for _, irow := range inner.rows {
		kb.Reset()
		null := false
		for _, p := range key.innerPos {
			if irow[p].IsNull() {
				null = true
				break
			}
			kb.WriteString(irow[p].Key())
			kb.WriteByte('|')
		}
		if null {
			continue
		}
		build[kb.String()] = append(build[kb.String()], irow)
	}
	for _, orow := range outer.rows {
		kb.Reset()
		null := false
		for _, p := range key.outerPos {
			if orow[p].IsNull() {
				null = true
				break
			}
			kb.WriteString(orow[p].Key())
			kb.WriteByte('|')
		}
		if null {
			continue
		}
		for _, irow := range build[kb.String()] {
			out = append(out, concatRows(orow, irow))
		}
	}
	return out
}

func concatRows(a, b storage.Row) storage.Row {
	out := make(storage.Row, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func maxKey(rows []storage.Row, pos int) catalog.Value {
	var max catalog.Value
	for _, r := range rows {
		if max.IsNull() || catalog.Compare(r[pos], max) > 0 {
			max = r[pos]
		}
	}
	return max
}
