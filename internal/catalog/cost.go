package catalog

import "math"

// CostModel is the cost model: every formula the optimizer estimates with and
// the executor charges with, held once. Everything is measured in
// milliseconds-equivalent "timerons": sequential page reads cost the transfer
// rate each, random page reads cost Overhead each (discounted when the table
// fits in the buffer pool), and rows processed cost CPUSpeed each. Sorts and
// hash joins that exceed the sort heap spill and pay the pages back out and
// in again. These are the same levers DB2's cost model exposes, which is what
// lets the Figure 7 transfer-rate problem pattern arise here.
//
// A CostModel is one view of a SystemConfig: PlanCost prices pages at the
// configured TransferRate, RunCost at the rate the runtime observes, and that
// rate is the only thing the two views differ in. An estimate and a charge
// over the same row counts therefore differ through the transfer rate alone —
// and, the counts being estimates on one side and truth on the other, through
// cardinalities. Each formula returns the milliseconds and, beside them, the
// page counts it derived on the way, so the executor's RunStats come out of
// the same evaluation.
//
// The expression trees are load-bearing: estimates and charges are compared
// bit for bit, so an operand may not be moved across a parenthesis.
type CostModel struct {
	rate, overhead, cpu            float64
	bufferPool, sortHeap, pageSize float64
}

// PlanCost is the cost model as the optimizer believes it to be.
func (c SystemConfig) PlanCost() CostModel { return c.costAt(c.TransferRate) }

// RunCost is the cost model the runtime observes.
func (c SystemConfig) RunCost() CostModel { return c.costAt(c.EffectiveRuntimeTransferRate()) }

func (c SystemConfig) costAt(rate float64) CostModel {
	m := CostModel{
		rate: rate, overhead: c.Overhead, cpu: c.CPUSpeed,
		bufferPool: float64(c.BufferPoolPages), sortHeap: float64(c.SortHeapPages),
		pageSize: float64(c.PageSizeBytes),
	}
	if m.pageSize <= 0 {
		m.pageSize = 4096
	}
	return m
}

// Per-row CPU factors of the operators that cost a multiple of CPUSpeed per
// row and nothing else. RETURN and FILTER are charged at run time only: plan
// time copies the child's estimate through them.
const (
	ReturnRowCPU    = 0.1
	FilterRowCPU    = 0.2
	GroupByRowCPU   = 1.0
	NLJoinOutRowCPU = 1.0
)

// PerRow is the cost of passing rows through an operator at one of the
// per-row factors above.
func (m *CostModel) PerRow(rows, factor float64) float64 { return rows * m.cpu * factor }

// Pages converts rows of the given width to pages, never fewer than one.
func (m *CostModel) Pages(rows float64, rowWidth int) float64 {
	if rowWidth <= 0 {
		rowWidth = 64
	}
	pages := rows * float64(rowWidth) / m.pageSize
	if pages < 1 {
		pages = 1
	}
	return pages
}

// TableScan is the cost of sequentially reading pages holding rows: the whole
// table at plan time, the slice actually read at run time.
func (m *CostModel) TableScan(pages, rows float64) float64 {
	return pages*m.rate + rows*m.cpu
}

// IndexScanCost is an index access's cost and the page traffic behind it.
type IndexScanCost struct {
	Millis    float64
	LeafPages float64 // index leaf pages read
	// FETCH only: base-table pages read in index order, and rows fetched one
	// random I/O each.
	ClusteredPages, UnclusteredRows float64
}

// IndexScan is the cost of an index scan matching matchRows of tableRows. If
// fetch is true the base rows must also be fetched, paying random I/O on the
// unclustered fraction; poorly clustered indexes over tables larger than the
// buffer pool are where the Figure 4 "flooding" cost explodes.
func (m *CostModel) IndexScan(tablePages, tableRows, matchRows, clusterRatio float64, fetch bool, rowsPerPage float64) IndexScanCost {
	leafPages := tableRows / 300
	if leafPages < 1 {
		leafPages = 1
	}
	frac := matchRows / math.Max(tableRows, 1)
	// The B-tree dive pays a full random I/O only when the table (and with it
	// the index) is too big for the buffer pool; a pool-resident index's root
	// and internal pages are cached after the first touch.
	fits := tablePages <= m.bufferPool
	dive := m.overhead
	if fits {
		dive = m.overhead * 0.1
	}
	c := IndexScanCost{LeafPages: leafPages * frac}
	c.Millis = dive + leafPages*frac*m.rate + matchRows*m.cpu*0.5
	if fetch {
		if rowsPerPage < 1 {
			rowsPerPage = 1
		}
		c.ClusteredPages = matchRows * clusterRatio / rowsPerPage
		c.UnclusteredRows = matchRows * (1 - clusterRatio)
		c.Millis += c.ClusteredPages * m.rate
		randomIO := m.overhead
		if fits {
			// Random reads hit cache after the first pass.
			randomIO = m.rate * 0.25
		}
		c.Millis += c.UnclusteredRows * randomIO
		c.Millis += matchRows * m.cpu
	}
	return c
}

// SortCost is a sort's cost, the pages it occupies and the pages it spills
// (zero when the run fits the sort heap).
type SortCost struct {
	Millis, Pages, SpillPages float64
}

// Sort is the cost of sorting rows of the given width, including spill I/O
// when the run exceeds the sort heap.
func (m *CostModel) Sort(rows float64, rowWidth int) SortCost {
	if rows < 2 {
		return SortCost{Millis: m.cpu}
	}
	c := SortCost{Millis: rows * math.Log2(rows) * m.cpu, Pages: m.Pages(rows, rowWidth)}
	if c.Pages > m.sortHeap {
		// External sort: write and re-read the spilled pages.
		c.SpillPages = c.Pages
		c.Millis += 2 * c.Pages * m.rate * 1.5
	}
	return c
}

// HashJoin is the incremental cost of a hash join given already-costed
// inputs: build on the inner (hashing costs 2x the base per-row CPU), probe
// with the outer, emit the result rows, plus spill I/O when the build side
// exceeds the sort heap. A bloom filter discounts probe CPU and the spilled
// outer fraction. spillPages is zero when the build fits.
func (m *CostModel) HashJoin(outerRows, innerRows, outRows float64, outerWidth, innerWidth int, bloom bool) (millis, spillPages float64) {
	build := innerRows * m.cpu * 2
	probeFactor := 1.0
	if bloom {
		probeFactor = 0.6
	}
	probe := outerRows * m.cpu * probeFactor
	millis = build + probe + outRows*m.cpu*0.1
	buildPages := m.Pages(innerRows, innerWidth)
	if buildPages > m.sortHeap {
		spillPages = buildPages
		outerPages := m.Pages(outerRows, outerWidth)
		if bloom {
			outerPages *= 0.5
		}
		spillPages += outerPages
		millis += 2 * spillPages * m.rate
	}
	return millis, spillPages
}

// MergeJoin is the incremental cost of a merge join over two already-sorted
// inputs: a single interleaved pass comparing pre-sorted keys, which is
// cheaper per row (0.5x) than building and probing a hash table. This is why
// a merge join that can claim sort-avoidance through input order properties
// undercuts a hash join at plan time — and why an optimizer that believes the
// sorted inputs are small walks into the Figure 8 trap.
func (m *CostModel) MergeJoin(outerRows, innerRows, outRows float64) float64 {
	return (outerRows+innerRows)*m.cpu*0.5 + outRows*m.cpu*0.1
}

// NLProbe is the per-probe cost of re-evaluating the inner input of a
// nested-loop join. For an index access the probe is one index lookup; for a
// scan the probe re-reads the inner (discounted when it fits in the buffer
// pool and is therefore cached after the first pass). randomRows is the rows
// one index probe fetches by random I/O.
func (m *CostModel) NLProbe(index bool, clusterRatio, innerPages, innerRows, matchPerProbe float64) (millis, randomRows float64) {
	fits := innerPages <= m.bufferPool
	if index {
		perProbe := m.overhead * 0.5
		if fits {
			perProbe = m.rate
		}
		fetchRows := matchPerProbe
		if fetchRows < 1 {
			fetchRows = 1
		}
		randomIO := m.overhead
		if fits {
			randomIO = m.rate * 0.25
		}
		if randomIO > 0 {
			randomRows = fetchRows * (1 - clusterRatio)
		}
		return perProbe + fetchRows*(1-clusterRatio)*randomIO + fetchRows*clusterRatio*m.rate/8 + fetchRows*m.cpu, randomRows
	}
	// Scan probe: first pass reads all pages; later passes are cached when the
	// inner fits in the buffer pool.
	if fits {
		return innerPages*m.rate*0.05 + innerRows*m.cpu, 0
	}
	return innerPages*m.rate + innerRows*m.cpu, 0
}
