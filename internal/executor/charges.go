package executor

import (
	"galo/internal/catalog"
	"galo/internal/qgm"
)

// This file books the actual-cost charges. Each operator's simulated charge
// is the cost model's run-time view (catalog.CostModel) evaluated over the
// row counts the operator actually processed; the counters beside it come out
// of the same evaluation. Each function has one caller, the operator's own
// finalize.

// chargeTBScan charges a table scan for the fraction of the table actually
// read: the whole table when drained, a proportional slice when a bounded
// consumer stopped it early.
func (c *execContext) chargeTBScan(node *qgm.Node, nScan, nOut int, tablePages, tableRows float64) {
	frac := 1.0
	if tableRows > 0 {
		frac = float64(nScan) / tableRows
	}
	pages := tablePages * frac
	c.stats.LogicalReads += int64(pages)
	c.stats.PhysicalReads += int64(pages)
	c.stats.CPURows += int64(nScan)
	c.charge(node, c.cost.TableScan(pages, float64(nScan)), nOut)
}

// chargeIXScan charges an index access over the candidate entries actually
// touched (nCand), including the FETCH row-access terms.
func (c *execContext) chargeIXScan(node *qgm.Node, idxDef *catalog.Index, nCand, nOut int, tablePages, tableRows, rowsPerPage float64) {
	fetch := node.Op == qgm.OpFETCH
	ix := c.cost.IndexScan(tablePages, tableRows, float64(nCand), idxDef.ClusterRatio, fetch, rowsPerPage)
	c.stats.LogicalReads += int64(ix.LeafPages)
	c.stats.CPURows += int64(nCand)
	if fetch {
		c.stats.PhysicalReads += int64(ix.UnclusteredRows) + int64(ix.ClusteredPages)
		c.stats.LogicalReads += int64(nCand)
	}
	c.charge(node, ix.Millis, nOut)
}

// joinActuals carries the processed-row truth one join operator observed.
type joinActuals struct {
	outerRows, outRows int
	innerRows          int
	// outerWidth / innerWidth are the row widths sampled from the first tuple
	// that entered each side (slotList.rowWidth; 8 bytes per column when none
	// did); they size the spill-branch page estimates.
	outerWidth, innerWidth int
	// MSJOIN early-out: how many outer rows a merge join would have read
	// before passing the largest inner key.
	trackEarlyOut bool
	nProcessed    int
}

// chargeJoin charges one join operator's simulated cost from the row counts
// actually processed.
func (c *execContext) chargeJoin(node *qgm.Node, a joinActuals) {
	outerRows := float64(a.outerRows)
	innerRows := float64(a.innerRows)
	outRows := float64(a.outRows)

	switch node.Op {
	case qgm.OpHSJOIN:
		millis, spill := c.cost.HashJoin(outerRows, innerRows, outRows,
			a.outerWidth, a.innerWidth, node.BloomFilter)
		c.stats.SortSpillPages += int64(spill)
		c.stats.PhysicalReads += int64(spill)
		c.stats.CPURows += int64(innerRows + outerRows)
		c.charge(node, millis, a.outRows)

	case qgm.OpNLJOIN:
		matchedPerProbe := 0.0
		if outerRows > 0 {
			matchedPerProbe = outRows / outerRows
		}
		perProbe := c.nlProbeMillis(node.Inner, matchedPerProbe, innerRows)
		millis := outerRows*perProbe + c.cost.PerRow(outRows, catalog.NLJoinOutRowCPU)
		c.stats.CPURows += int64(outerRows)
		c.charge(node, millis, a.outRows)

	case qgm.OpMSJOIN:
		// A merge join over sorted inputs can stop reading the outer as soon
		// as its key exceeds the largest inner key (the Figure 8 early-out).
		outerProcessed := outerRows
		if a.trackEarlyOut {
			outerProcessed = float64(a.nProcessed) + 1
			if outerProcessed > outerRows {
				outerProcessed = outerRows
			}
		}
		if innerRows == 0 {
			outerProcessed = 1
		}
		c.stats.CPURows += int64(outerProcessed + innerRows)
		c.charge(node, c.cost.MergeJoin(outerProcessed, innerRows, outRows), a.outRows)
	}
}
