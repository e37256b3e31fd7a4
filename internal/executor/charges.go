package executor

import (
	"math"

	"galo/internal/catalog"
	"galo/internal/qgm"
)

// This file centralizes the actual-cost charge formulas. Each operator's
// simulated charge is computed from the row counts it actually processed,
// through the same formulas the optimizer used at plan time (the PR 2
// cost-parity invariant). The serial iterators call these at exhaustion; the
// exchange operator calls the very same functions over counts summed across
// its workers — integer totals fed through one formula evaluation, in the
// serial pipeline's charge order, which is what makes per-operator ActMillis
// bit-identical at any worker count.

// chargeTBScan charges a table scan for the fraction of the table actually
// read: the full tbscanCost formula when drained, a proportional slice when a
// bounded consumer stopped it early.
func (c *execContext) chargeTBScan(node *qgm.Node, nScan, nOut int, tablePages, tableRows float64) {
	frac := 1.0
	if tableRows > 0 {
		frac = float64(nScan) / tableRows
	}
	pages := tablePages * frac
	c.stats.LogicalReads += int64(pages)
	c.stats.PhysicalReads += int64(pages)
	c.stats.CPURows += int64(nScan)
	c.charge(node, pages*c.rt()+float64(nScan)*c.cfg.CPUSpeed, nOut)
}

// chargeIXScan mirrors ixscanCost over the candidate entries actually
// touched (nCand), including the FETCH row-access terms.
func (c *execContext) chargeIXScan(node *qgm.Node, idxDef *catalog.Index, nCand, nOut int, tablePages, tableRows, rowsPerPage float64) {
	matchRows := float64(nCand)
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
		millis += (clustered/math.Max(rowsPerPage, 1))*c.rt() + unclustered*randomIO + matchRows*c.cfg.CPUSpeed
		c.stats.PhysicalReads += int64(unclustered) + int64(clustered/math.Max(rowsPerPage, 1))
		c.stats.LogicalReads += int64(matchRows)
	}
	c.charge(node, millis, nOut)
}

// joinActuals carries the processed-row truth one join operator observed —
// whether from a serial joinIter or summed over exchange workers.
type joinActuals struct {
	outerRows, outRows int
	innerRows          int
	// outerSample / innerSample are the first tuples that entered each side
	// (nil when none did); they size the spill-branch page estimates. The
	// exchange picks the sample from the lowest-indexed partition that
	// produced one, which is exactly the serial first row.
	outerSample, innerSample tuple
	nOuterCols, nInnerCols   int
	// MSJOIN early-out: how many outer rows a merge join would have read
	// before passing the largest inner key.
	trackEarlyOut bool
	nProcessed    int
}

// chargeJoin charges one join operator's simulated cost from the row counts
// actually processed, through the same formulas the optimizer used at plan
// time.
func (c *execContext) chargeJoin(node *qgm.Node, a joinActuals) {
	outerRows := float64(a.outerRows)
	innerRows := float64(a.innerRows)
	outRows := float64(a.outRows)
	cpu := c.cfg.CPUSpeed

	switch node.Op {
	case qgm.OpHSJOIN:
		probeFactor := 1.0
		if node.BloomFilter {
			probeFactor = 0.6
		}
		millis := innerRows*cpu*2 + outerRows*cpu*probeFactor + outRows*cpu*0.1
		buildPages := pagesOf(c.cfg, innerRows, rowWidthOf(a.innerSample, a.nInnerCols))
		if buildPages > float64(c.cfg.SortHeapPages) {
			spill := buildPages
			outerPages := pagesOf(c.cfg, outerRows, rowWidthOf(a.outerSample, a.nOuterCols))
			if node.BloomFilter {
				outerPages *= 0.5
			}
			spill += outerPages
			millis += 2 * spill * c.rt()
			c.stats.SortSpillPages += int64(spill)
			c.stats.PhysicalReads += int64(spill)
		}
		c.stats.CPURows += int64(innerRows + outerRows)
		c.charge(node, millis, a.outRows)

	case qgm.OpNLJOIN:
		matchedPerProbe := 0.0
		if outerRows > 0 {
			matchedPerProbe = outRows / outerRows
		}
		perProbe := c.nlProbeMillis(node.Inner, matchedPerProbe, innerRows)
		millis := outerRows*perProbe + outRows*cpu
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
		// Same formula as the optimizer's msjoinCost, over actual row counts:
		// a single interleaved pass over pre-sorted inputs.
		millis := (outerProcessed+innerRows)*cpu*0.5 + outRows*cpu*0.1
		c.stats.CPURows += int64(outerProcessed + innerRows)
		c.charge(node, millis, a.outRows)
	}
}
