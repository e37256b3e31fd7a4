package optimizer

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"galo/internal/catalog"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
)

// accessPath is one way to read a quantifier's base table. Like a candidate
// it holds no pointers: the index is named by position and the order the
// access produces by its interesting-order id.
type accessPath struct {
	cost, card   float64
	indexCluster float64
	index        int32 // position in the quantifier's Table.Indexes; -1 for a table scan
	ord          int32 // interesting-order id of the order the access produces; 0 for none
	fetch        bool  // the index does not cover the query: FETCH, not IXSCAN
}

func (a accessPath) usesIndex() bool { return a.index >= 0 }

func (a accessPath) op() qgm.OpType {
	switch {
	case a.index < 0:
		return qgm.OpTBSCAN
	case a.fetch:
		return qgm.OpFETCH
	}
	return qgm.OpIXSCAN
}

func (a accessPath) clusterRatio() float64 {
	if a.indexCluster == 0 {
		return 0.5
	}
	return a.indexCluster
}

// planCand is a costed partial plan over a set of quantifier instances: what
// the search compares and what its parents' cost expressions read, and no plan
// nodes. Candidates live in the planning context's slab and name their inputs
// by slab index, so a candidate holds no pointers — the collector never scans
// the slab — and one that is displaced a few splits later has cost 72 bytes of
// an already-allocated chunk. qgm.Nodes are built once, for the winner, by
// planCtx.node.
type planCand struct {
	cost float64
	card float64
	sort float64 // sortCost of the output, memoised by sortCost
	// MSJOIN only: the cumulative input costs, each with its explicit SORT
	// when sortLeft / sortRight says the input needs one.
	leftCost, rightCost float64
	mask                uint64 // quantifiers covered: bit i is quants[i]
	// left and right are the slab indices of a join's outer and inner inputs
	// (pushJoin sets them). A base-table access (method == candAccess) reads
	// the one quantifier of mask, and right indexes planCtx.paths: the access
	// chosen, which is also what a nested-loop join re-evaluates once per
	// outer row.
	left, right         int32
	rowSize             int32
	ord                 int32 // interesting-order id of the output's order property; 0 for none
	method              uint8 // candAccess, or the join method
	bloom               bool
	sortLeft, sortRight bool
}

// The values of planCand.method; candOps maps the join methods back.
const (
	candAccess uint8 = iota
	candNLJOIN
	candHSJOIN
	candMSJOIN
)

var candOps = [...]qgm.OpType{candNLJOIN: qgm.OpNLJOIN, candHSJOIN: qgm.OpHSJOIN, candMSJOIN: qgm.OpMSJOIN}

// sortCost returns the cost of an explicit SORT over the candidate's output;
// every merge join that considers the candidate as an unsorted input asks.
func (c *planCand) sortCost(m *catalog.CostModel) float64 {
	if c.sort == 0 {
		c.sort = m.Sort(c.card, int(c.rowSize)).Millis
	}
	return c.sort
}

// maxQuantifiers bounds the table references of one query: quantifier sets
// are uint64 bitmasks.
const maxQuantifiers = 64

// planCtx is the planning context of one OptimizePrepared (or BuildPlan)
// call: the prepared query — quantifier sets are bitmasks over quants, join
// predicates pre-resolved edges, interesting orders small integers — plus cons,
// the active guideline constraints as masks, and the call's scratch. The
// scratch is borrowed from arenaPool for the length of the call.
type planCtx struct {
	*Prepared
	o    *Optimizer
	cons constraintSet
	// cost is the plan-time view of the cost model (internal/catalog/cost.go)
	// every estimate of the call goes through; what stays in this package is
	// what only the optimizer knows — quantifiers, access paths, clamps.
	cost catalog.CostModel
	*planArena
	pushed int32 // the last slab index handed out
}

// planArena is the scratch of one planning call; every array in it is
// pointer-free, so neither a call nor the pool gives the collector anything to
// scan.
type planArena struct {
	// slab holds the candidates of the current attempt in chunks of
	// maxSlabChunk that are never moved: a *planCand stays valid (and keeps
	// its memoised sort cost) while later candidates are pushed. Index 0 is
	// reserved to mean "no candidate", so zeroed tables start empty. Chunks
	// are not cleared between calls: push fills a slot before anything reads it.
	slab  [][]planCand
	table dpTable
	paths []accessPath // the access paths of the call's base-table candidates
	tried []accessPath // accessPaths' latest answer
}

var arenaPool = sync.Pool{New: func() any { return new(planArena) }}

const (
	// maxSlabChunk is the size of a slab chunk (18 KB of candidates): a wider
	// query takes more chunks, not bigger ones.
	maxSlabChunk = 256
	// maxKeptChunks and maxKeptTable bound what an arena takes back to the
	// pool (288 KB of candidates, 128 KB of table): what planning TPCDS.Q91
	// (8 joins, the widest workload query; 8 192 table entries, 15 chunks
	// unbounded, 3 bounded) holds at its peak, so nothing wider pins the heap.
	maxKeptChunks = 16
	maxKeptTable  = 1 << 15
)

func (o *Optimizer) newPlanCtx(p *Prepared) *planCtx {
	return &planCtx{Prepared: p, o: o, cost: o.Cat.Config.PlanCost(), planArena: arenaPool.Get().(*planArena)}
}

// release hands the scratch back; nothing a call returns points into it.
func (pc *planCtx) release() {
	a := pc.planArena
	a.slab = slices.Delete(a.slab, min(len(a.slab), maxKeptChunks), len(a.slab)) // which also lets the spine go of them
	if cap(a.table.slots) > maxKeptTable {
		a.table = dpTable{}
	}
	a.paths = a.paths[:0]
	pc.planArena = nil
	arenaPool.Put(a)
}

// joinEdge is one join predicate of the query resolved against the
// quantifiers.
type joinEdge struct {
	l, r       uint64  // bits of the quantifiers owning the left / right column
	sel        float64 // 1/max(NDV left, NDV right); defaultJoinSel without statistics
	text       string  // the rendered predicate: one qgm.Node.JoinCols entry
	lCol, rCol string  // instance-qualified columns: the sort columns a merge join needs
	lOrd, rOrd int32   // their interesting-order ids
}

// links reports whether the edge connects the two quantifier sets.
func (e *joinEdge) links(left, right uint64) bool {
	return (e.l&left != 0 && e.r&right != 0) || (e.r&left != 0 && e.l&right != 0)
}

// resolveJoins resolves the prepared query's join predicates and ORDER BY
// columns against its quantifiers: byName, edges and orderID.
func (o *Optimizer) resolveJoins(pr *Prepared) {
	q := pr.q
	pr.byName, pr.orderID = make(map[string]*Quantifier, 2*len(pr.quants)), map[string]int32{}
	for _, qt := range pr.quants {
		pr.byName[strings.ToUpper(qt.Ref.Name())] = qt
		pr.byName[qt.Instance] = qt
	}
	// qualify resolves a column to its quantifier and instance-qualified name,
	// and registers the name as an interesting order.
	var keys []string
	qualify := func(c sqlparser.ColumnRef) (*Quantifier, string) {
		qt := pr.byName[strings.ToUpper(c.Table)]
		if qt == nil {
			return nil, ""
		}
		col := qt.Instance + "." + c.Column
		key := strings.ToUpper(col)
		if _, seen := pr.orderID[key]; !seen {
			pr.orderID[key] = 0
			keys = append(keys, key)
		}
		return qt, col
	}
	for _, p := range q.Where {
		if !p.IsJoin() {
			continue
		}
		lq, lCol := qualify(p.Left)
		rq, rCol := qualify(p.Right)
		if lq == nil || rq == nil {
			continue
		}
		e := joinEdge{l: lq.bit, r: rq.bit, sel: defaultJoinSel, text: p.String(), lCol: lCol, rCol: rCol}
		if ndv := max(columnNDV(o.Cat, lq.Ref.Table, p.Left.Column), columnNDV(o.Cat, rq.Ref.Table, p.Right.Column)); ndv > 0 {
			e.sel = 1.0 / float64(ndv)
		}
		pr.edges = append(pr.edges, e)
	}
	for _, c := range q.OrderBy {
		qualify(c)
	}
	sort.Strings(keys)
	for i, key := range keys {
		pr.orderID[key] = int32(i + 1)
	}
	for i := range pr.edges {
		e := &pr.edges[i]
		e.lOrd, e.rOrd = pr.ordOf(e.lCol), pr.ordOf(e.rCol)
	}
}

// ordOf returns the interesting-order id of an order property, 0 for none.
func (pr *Prepared) ordOf(orderedOn string) int32 {
	if orderedOn == "" {
		return 0
	}
	return pr.orderID[strings.ToUpper(orderedOn)]
}

// cand returns the candidate at a slab index.
func (pc *planCtx) cand(i int32) *planCand {
	u := uint32(i)
	return &pc.slab[u/maxSlabChunk][u%maxSlabChunk]
}

// push copies a candidate into the slab and returns its index.
func (pc *planCtx) push(c *planCand) int32 {
	pc.pushed++
	if int(pc.pushed)/maxSlabChunk == len(pc.slab) {
		pc.slab = append(pc.slab, make([]planCand, maxSlabChunk))
	}
	*pc.cand(pc.pushed) = *c
	return pc.pushed
}

// compact ends a subset's enumeration: of the candidates pushed since mark
// only the subset's retained list is still referenced (every one of them
// reads inputs from below mark), so the list moves down to mark+1.. and the
// slab is cut there. The copy goes through the top of the slab, which the
// destination cannot reach: the list's entries were all pushed since mark.
func (pc *planCtx) compact(mark int32, list []int32) {
	top := pc.pushed
	for _, i := range list {
		pc.push(pc.cand(i))
	}
	for k := range list {
		list[k] = mark + 1 + int32(k)
		*pc.cand(list[k]) = *pc.cand(top + 1 + int32(k))
	}
	pc.pushed = mark + int32(len(list))
}

// pushJoin keeps a join costed by buildJoinCand: it records the slab indices
// of the inputs it was costed over and pushes it.
func (pc *planCtx) pushJoin(jc *planCand, left, right int32) int32 {
	jc.left, jc.right = left, right
	return pc.push(jc)
}

// enumerate drives cost-based plan construction, retrying with progressively
// fewer guidelines when the constrained search cannot produce a plan. This is
// the paper's "not all guidelines may be honored" behaviour.
func (o *Optimizer) enumerate(p *Prepared, report *Report) (*qgm.Node, error) {
	pc := o.newPlanCtx(p)
	defer pc.release()
	perGuideline := pc.buildConstraints()
	active := make([]bool, len(perGuideline))
	for i := range active {
		active[i] = true
	}
	for {
		root, considered, usedDP, err := pc.enumerateWith(filterConstraints(perGuideline, active))
		report.PlansConsidered += considered
		if err == nil {
			report.UsedDP = usedDP
			pc.reportGuidelineOutcome(root, perGuideline, active, report)
			return root, nil
		}
		// Drop the last still-active guideline and retry.
		dropped := false
		for i := len(active) - 1; i >= 0; i-- {
			if active[i] {
				active[i] = false
				dropped = true
				break
			}
		}
		if !dropped {
			return nil, err
		}
	}
}

func (pc *planCtx) reportGuidelineOutcome(root *qgm.Node, perGuideline []guidelineConstraints, active []bool, report *Report) {
	for i, gc := range perGuideline {
		if active[i] && gc.satisfiedBy(root, pc) {
			report.GuidelinesApplied = append(report.GuidelinesApplied, i)
		} else {
			report.GuidelinesIgnored = append(report.GuidelinesIgnored, i)
		}
	}
}

// enumerateWith builds the join tree honouring the given constraints and
// reports whether exhaustive enumeration was used. It returns an error when
// no complete plan satisfies the constraints. The dynamic program is bounded
// by greedyBound, and runs again unbounded if the bound pruned every plan.
func (pc *planCtx) enumerateWith(cons constraintSet) (root *qgm.Node, considered int, usedDP bool, err error) {
	pc.cons, pc.pushed, pc.paths = cons, 0, pc.paths[:0] // an abandoned attempt's candidates go
	switch n := len(pc.quants); {
	case n == 1: // single-table query: best access path only
		return pc.node(pc.bestAccess(pc.quants[0])), 1, false, nil
	case n <= pc.o.Opts.JoinEnumDPLimit:
		root, considered, err = pc.dpEnumerate(pc.greedyBound())
		if errors.Is(err, errPruned) {
			pruned := considered
			root, considered, err = pc.dpEnumerate(math.Inf(1))
			considered += pruned
		}
		return root, considered, true, err
	default:
		var i int32
		if i, considered, _, err = pc.greedyCand(); err != nil {
			return nil, considered, false, err
		}
		return pc.node(i), considered, false, nil
	}
}

// --- access path selection --------------------------------------------------

// accessPaths lists the valid ways to read one quantifier, honouring access
// constraints when present. The list is scratch: the next call overwrites it.
func (pc *planCtx) accessPaths(qt *Quantifier) []accessPath {
	rowsPerPage := math.Max(qt.RawCard/math.Max(qt.Pages, 1), 1)
	paths := pc.tried[:0]
	tbscan := accessPath{cost: pc.cost.TableScan(qt.Pages, qt.RawCard), card: qt.Card, index: -1}

	ac, hasAC := pc.cons.access[qt.Instance]

	if !hasAC || ac.method == qgm.OpTBSCAN {
		paths = append(paths, tbscan)
	}
	if qt.Table != nil && (!hasAC || ac.method != qgm.OpTBSCAN) {
		for i := range qt.Table.Indexes {
			idx := &qt.Table.Indexes[i]
			if hasAC && ac.index != "" && !strings.EqualFold(ac.index, idx.Name) {
				continue
			}
			lead := idx.Columns[0]
			matchRows := clampCard(qt.RawCard * pc.o.leadingColumnSelectivity(qt, lead))
			fetch := !coversAll(idx.Columns, qt.refCols)
			paths = append(paths, accessPath{
				cost:         pc.cost.IndexScan(qt.Pages, qt.RawCard, matchRows, idx.ClusterRatio, fetch, rowsPerPage).Millis,
				card:         qt.Card,
				indexCluster: idx.ClusterRatio,
				index:        int32(i),
				ord:          pc.ordOf(qt.Instance + "." + lead),
				fetch:        fetch,
			})
		}
	}
	if len(paths) == 0 {
		// The access constraint could not be satisfied (e.g. IXSCAN requested
		// but the table has no index): fall back to a table scan so that the
		// query can still be planned; the guideline will be reported ignored.
		paths = append(paths, tbscan)
	}
	pc.tried = paths
	return paths
}

// leadingColumnSelectivity estimates how selective the quantifier's local
// predicates on the given column are (1.0 when there is none).
func (o *Optimizer) leadingColumnSelectivity(qt *Quantifier, column string) float64 {
	ts := o.Cat.Stats(qt.Ref.Table)
	sel := 1.0
	for _, p := range qt.LocalPreds {
		if strings.EqualFold(p.Left.Column, column) {
			sel *= o.predicateSelectivity(ts, p)
		}
	}
	return clampSel(sel)
}

// referencedColumns returns the columns of a FROM reference that the query
// mentions anywhere, repeats included: what an index must hold to answer for
// the table without fetching rows.
func referencedColumns(q *sqlparser.Query, refName string) []string {
	var out []string
	add := func(c sqlparser.ColumnRef) {
		if strings.EqualFold(c.Table, refName) {
			out = append(out, c.Column)
		}
	}
	for _, c := range q.Select {
		add(c)
	}
	for _, p := range q.Where {
		add(p.Left)
		if p.Kind == sqlparser.PredJoin {
			add(p.Right)
		}
	}
	for _, c := range q.GroupBy {
		add(c)
	}
	for _, c := range q.OrderBy {
		add(c)
	}
	return out
}

func coversAll(indexCols, needed []string) bool {
	for _, c := range needed {
		if !slices.ContainsFunc(indexCols, func(ic string) bool { return strings.EqualFold(ic, c) }) {
			return false
		}
	}
	return true
}

// bestAccess returns the cheapest access path wrapped as a plan candidate.
func (pc *planCtx) bestAccess(qt *Quantifier) int32 {
	paths := pc.accessPaths(qt)
	best := paths[0]
	for _, p := range paths[1:] {
		if p.cost < best.cost {
			best = p
		}
	}
	return pc.accessCand(qt, best)
}

func (pc *planCtx) accessCand(qt *Quantifier, path accessPath) int32 {
	pc.paths = append(pc.paths, path)
	return pc.push(&planCand{
		cost:    path.cost,
		card:    path.card,
		rowSize: int32(qt.RowWidth),
		mask:    qt.bit,
		ord:     path.ord,
		right:   int32(len(pc.paths) - 1),
	})
}

// addAccessCands adds to a quantifier's table entry the access paths worth
// remembering: the overall cheapest, plus — per interesting order — the
// cheapest path producing that order. These are the System-R "interesting
// orders": a sorted access that loses on raw cost may still win globally by
// letting a merge join skip a sort.
func (pc *planCtx) addAccessCands(qt *Quantifier, set candSet) {
	paths := pc.accessPaths(qt)
	best := paths[0]
	bestByOrder := make([]*accessPath, len(pc.orderID)+1) // indexed by interesting-order id
	for i := range paths {
		p := &paths[i]
		if p.cost < best.cost {
			best = *p
		}
		if p.ord != 0 && (bestByOrder[p.ord] == nil || p.cost < bestByOrder[p.ord].cost) {
			bestByOrder[p.ord] = p
		}
	}
	set.add(pc, pc.accessCand(qt, best))
	for _, p := range bestByOrder {
		if p != nil && *p != best { // else the cheapest path already carries this order
			set.add(pc, pc.accessCand(qt, *p))
		}
	}
}

// --- join construction -------------------------------------------------------

// joinSplit is what an (outer set, inner set) pair fixes for every candidate
// joining them, whichever retained sub-plans and join method are combined:
// whether a predicate connects them, the selectivity, and the merge columns.
type joinSplit struct {
	connected  bool
	sel        float64 // product of the connecting edges' selectivities, clamped
	lCol, rCol string  // outer / inner sort columns of a merge join (first connecting predicate)
	lOrd, rOrd int32
}

// connects reports whether a join predicate links the two quantifier sets.
func (pc *planCtx) connects(left, right uint64) bool {
	for i := range pc.edges {
		if pc.edges[i].links(left, right) {
			return true
		}
	}
	return false
}

// split resolves the join predicates between two disjoint quantifier sets.
func (pc *planCtx) split(left, right uint64) joinSplit {
	sp := joinSplit{sel: 1.0}
	for i := range pc.edges {
		e := &pc.edges[i]
		forward := e.l&left != 0 && e.r&right != 0
		if !forward && (e.r&left == 0 || e.l&right == 0) {
			continue
		}
		if !sp.connected {
			sp.connected = true
			sp.lCol, sp.rCol, sp.lOrd, sp.rOrd = e.lCol, e.rCol, e.lOrd, e.rOrd
			if !forward {
				sp.lCol, sp.rCol, sp.lOrd, sp.rOrd = e.rCol, e.lCol, e.rOrd, e.lOrd
			}
		}
		sp.sel *= e.sel
	}
	sp.sel = clampSel(sp.sel)
	return sp
}

// joinCols renders the predicates connecting two quantifier sets, in WHERE
// order: a materialized join's qgm.Node.JoinCols (empty, not nil, for a
// cartesian product).
func (pc *planCtx) joinCols(left, right uint64) []string {
	cols := []string{}
	for i := range pc.edges {
		if e := &pc.edges[i]; e.links(left, right) {
			cols = append(cols, e.text)
		}
	}
	return cols
}

// buildJoinCand costs joining left (outer) and right (inner) with the given
// method into the caller's jc, which allocates nothing: a candidate enters the
// slab only if the caller keeps it, through pushJoin. It returns false when
// the method is not applicable (NLJOIN over a multi-table inner, MSJOIN
// without an equality join predicate). Every cost expression keeps the operand
// order it always had: estimates are compared bit for bit.
func (pc *planCtx) buildJoinCand(jc *planCand, method qgm.OpType, left, right *planCand, sp *joinSplit) bool {
	m := &pc.cost
	*jc = planCand{mask: left.mask | right.mask, rowSize: left.rowSize + right.rowSize,
		card: clampCard(left.card * right.card * sp.sel),
		ord:  left.ord} // hash probe and nested-loop outer order is preserved
	switch method {
	case qgm.OpHSJOIN:
		jc.method = candHSJOIN
		jc.bloom = pc.o.Opts.EnableBloomFilters && right.card <= left.card
		inc, _ := m.HashJoin(left.card, right.card, jc.card, int(left.rowSize), int(right.rowSize), jc.bloom)
		jc.cost = left.cost + right.cost + inc
	case qgm.OpNLJOIN:
		// Nested loops only when the inner is a single base-table access.
		if right.method != candAccess {
			return false
		}
		jc.method = candNLJOIN
		inner, path := pc.quants[bits.TrailingZeros64(right.mask)], &pc.paths[right.right]
		matchPerProbe := right.card * sp.sel
		probe, _ := m.NLProbe(path.usesIndex(), path.clusterRatio(), inner.Pages, inner.RawCard, matchPerProbe)
		inc := left.card*probe + m.PerRow(jc.card, catalog.NLJoinOutRowCPU)
		// The inner's own scan cost is not paid up-front; probes pay it.
		jc.cost = left.cost + inc
	case qgm.OpMSJOIN:
		if !sp.connected {
			return false // merge join needs an equality join predicate
		}
		jc.method = candMSJOIN
		// An input whose order property already matches its merge column
		// claims sort-avoidance; the others get an explicit SORT.
		jc.leftCost, jc.rightCost = left.cost, right.cost
		if jc.sortLeft = left.ord != sp.lOrd; jc.sortLeft {
			jc.leftCost += left.sortCost(m)
		}
		if jc.sortRight = right.ord != sp.rOrd; jc.sortRight {
			jc.rightCost += right.sortCost(m)
		}
		inc := m.MergeJoin(left.card, right.card, jc.card)
		jc.cost = jc.leftCost + jc.rightCost + inc
		jc.ord = sp.lOrd
	default:
		return false
	}
	return true
}

// node materializes the plan of the candidate at slab index i: one fresh
// qgm.Node per operator (MSJOIN's explicit SORTs included), with the
// predicates and join columns rendered here and nowhere earlier. The tree
// shares nothing with the slab but immutable strings, so it outlives the call.
func (pc *planCtx) node(i int32) *qgm.Node {
	c := pc.cand(i)
	if c.method == candAccess {
		qt, path := pc.quants[bits.TrailingZeros64(c.mask)], &pc.paths[c.right]
		node := &qgm.Node{
			Op:             path.op(),
			Table:          strings.ToUpper(qt.Ref.Table),
			TableInstance:  qt.Instance,
			EstCardinality: path.card,
			EstCost:        path.cost,
			RowSize:        qt.RowWidth,
			Pages:          qt.Pages,
		}
		if path.usesIndex() {
			idx := &qt.Table.Indexes[path.index]
			node.Index, node.OrderedOn = idx.Name, qt.Instance+"."+idx.Columns[0]
		}
		for _, p := range qt.LocalPreds {
			node.Predicates = append(node.Predicates, p.String())
		}
		return node
	}
	left, right := pc.cand(c.left), pc.cand(c.right)
	node := &qgm.Node{
		Op:             candOps[c.method],
		EstCardinality: c.card,
		EstCost:        c.cost,
		RowSize:        int(c.rowSize),
		JoinCols:       pc.joinCols(left.mask, right.mask),
		BloomFilter:    c.bloom,
		EarlyOut:       c.method == candMSJOIN,
		Outer:          pc.node(c.left),
		Inner:          pc.node(c.right),
	}
	node.OrderedOn = node.Outer.OrderedOn // hash probe and nested-loop outer order is preserved
	if c.method == candMSJOIN {
		sp := pc.split(left.mask, right.mask)
		node.OrderedOn = sp.lCol
		if c.sortLeft {
			node.Outer = &qgm.Node{Op: qgm.OpSORT, Outer: node.Outer, EstCardinality: left.card, EstCost: c.leftCost, RowSize: int(left.rowSize), OrderedOn: sp.lCol}
		}
		if c.sortRight {
			node.Inner = &qgm.Node{Op: qgm.OpSORT, Outer: node.Inner, EstCardinality: right.card, EstCost: c.rightCost, RowSize: int(right.rowSize), OrderedOn: sp.rCol}
		}
	}
	return node
}

// --- dynamic programming -----------------------------------------------------

// candSet is the dynamic-programming table entry for one quantifier subset,
// as slab indices: slot 0 is the overall-cheapest candidate and slot k > 0
// the cheapest candidate whose output carries interesting order k (0 where
// there is none). Keeping the ordered runners-up is what lets a merge join
// higher in the tree claim sort-avoidance from a plan that was not locally
// cheapest.
type candSet []int32

// admits reports whether a candidate of this cost and order would displace an
// incumbent, i.e. whether add would keep it.
func (cs candSet) admits(pc *planCtx, cost float64, ord int32) bool {
	if cs[0] == 0 || cost < pc.cand(cs[0]).cost {
		return true
	}
	if ord == 0 {
		return false
	}
	return cs[ord] == 0 || cost < pc.cand(cs[ord]).cost
}

// add folds the candidate at slab index i into the set, keeping per-order
// winners.
func (cs candSet) add(pc *planCtx, i int32) {
	cand := pc.cand(i)
	if cs[0] == 0 || cand.cost < pc.cand(cs[0]).cost {
		cs[0] = i
	}
	if cand.ord != 0 && (cs[cand.ord] == 0 || cand.cost < pc.cand(cs[cand.ord]).cost) {
		cs[cand.ord] = i
	}
}

// freeze compacts a fully enumerated set, in place, into the list of its
// retained candidates and returns the list's length: the cheapest first, then
// the ordered alternatives (in sorted order for determinism), skipping ones
// that carry no information beyond the cheapest. 0 means the subset has no
// plan.
func (cs candSet) freeze(pc *planCtx) int32 {
	if cs[0] == 0 {
		return 0
	}
	n, bestOrd := int32(1), pc.cand(cs[0]).ord
	for ord := int32(1); int(ord) < len(cs); ord++ {
		if cs[ord] != 0 && ord != bestOrd {
			cs[n] = cs[ord]
			n++
		}
	}
	return n
}

// dpTable is the dynamic-programming table: one candSet per quantifier mask in
// one pointer-free array sized by the query, the length of each subset's frozen
// list (0: none under the bound), and reach: whether it has a plan at all.
type dpTable struct {
	stride uint64 // 1 + the number of interesting orders
	slots  []int32
	frozen []int32
	reach  []bool
}

// reset sizes the table for a query and empties it, reusing an earlier call's
// arrays when they are large enough; frozen is the tail of slots.
func (t *dpTable) reset(subsets, stride uint64) {
	n := subsets * (stride + 1)
	if uint64(cap(t.slots)) < n {
		t.slots = make([]int32, n)
	}
	if uint64(cap(t.reach)) < subsets {
		t.reach = make([]bool, subsets)
	}
	t.slots, t.reach = t.slots[:n], t.reach[:subsets]
	clear(t.slots)
	clear(t.reach)
	t.stride, t.frozen = stride, t.slots[subsets*stride:]
}

func (t *dpTable) set(mask uint64) candSet { return t.slots[mask*t.stride : (mask+1)*t.stride] }

// list returns a finished subset's retained candidates.
func (t *dpTable) list(mask uint64) []int32 {
	return t.slots[mask*t.stride:][:t.frozen[mask]]
}

// errPruned is dpEnumerate's answer when the bound pruned every plan of a
// query that has one; enumerateWith then searches again, unbounded.
var errPruned = errors.New("optimizer: the bound pruned every plan")

// dpEnumerate runs the dynamic program, pruning every join candidate above
// bound (+Inf: none). A join costs its inputs plus non-negative increments, so
// nothing above the bound is an input of a plan under it — but a base-table
// access, which a nested-loop join pays for per probe: those are never pruned.
// Comparisons are strict, so the lists are the unbounded ones minus entries
// above the bound, ties included; plannability reads table.reach.
func (pc *planCtx) dpEnumerate(bound float64) (*qgm.Node, int, error) {
	pc.pushed, pc.paths = 0, pc.paths[:0] // the bound's greedy candidates go
	n := len(pc.quants)
	considered := 0
	subsets := uint64(1) << uint(n)
	table := &pc.table
	table.reset(subsets, uint64(len(pc.orderID)+1))
	for _, qt := range pc.quants {
		set := table.set(qt.bit)
		pc.addAccessCands(qt, set)
		table.frozen[qt.bit], table.reach[qt.bit] = set.freeze(pc), true
	}

	var jc planCand
	full := subsets - 1
	for size := 2; size <= n; size++ {
		for mask := uint64(1); mask <= full; mask++ {
			if bits.OnesCount64(mask) != size {
				continue
			}
			acc, mark := table.set(mask), pc.pushed
			// Whether mask has any connected split is asked by every
			// disconnected one; answer it once (0 unknown, 1 yes, -1 no).
			connectedSplit := 0
			// Enumerate proper splits; (sub, rest) visits both orders.
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				rest := mask ^ sub
				if !table.reach[sub] || !table.reach[rest] {
					continue
				}
				sp := pc.split(sub, rest)
				if !sp.connected {
					if connectedSplit == 0 {
						connectedSplit = -1
						if pc.hasConnectedSplit(mask, table.reach) {
							connectedSplit = 1
						}
					}
					if connectedSplit > 0 {
						continue // avoid cartesian products when a connected split exists
					}
				}
				if !pc.cons.allowsPartition(mask, sub, rest) {
					continue
				}
				if !table.reach[mask] {
					table.reach[mask] = pc.joinable(mask, sub, rest, sp.connected)
				}
				for _, li := range table.list(sub) {
					left := pc.cand(li)
					if left.cost > bound {
						continue
					}
					for _, ri := range table.list(rest) {
						right := pc.cand(ri)
						// A hash or merge join costs at least its two inputs.
						inputs := left.cost + right.cost
						for _, method := range qgm.JoinMethods() {
							if (method != qgm.OpNLJOIN && inputs > bound) || !pc.cons.allowsJoin(mask, sub, rest, method) {
								continue
							}
							ok := pc.buildJoinCand(&jc, method, left, right, &sp)
							considered++
							if ok && !(jc.cost > bound) && acc.admits(pc, jc.cost, jc.ord) {
								acc.add(pc, pc.pushJoin(&jc, li, ri))
							}
						}
					}
				}
			}
			table.frozen[mask] = acc.freeze(pc)
			pc.compact(mark, table.list(mask))
		}
	}
	switch {
	case table.frozen[full] != 0:
		return pc.node(table.list(full)[0]), considered, nil
	case table.reach[full]:
		return nil, considered, errPruned
	}
	return nil, considered, fmt.Errorf("optimizer: no plan satisfies the active guideline constraints")
}

func (pc *planCtx) hasConnectedSplit(mask uint64, reach []bool) bool {
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		if rest := mask ^ sub; reach[sub] && reach[rest] && pc.connects(sub, rest) {
			return true
		}
	}
	return false
}

// joinable reports whether the constraints allow a method that applies to the
// split by buildJoinCand's rules: HSJOIN, MSJOIN if connected, NLJOIN to one table.
func (pc *planCtx) joinable(mask, sub, rest uint64, connected bool) bool {
	for _, method := range qgm.JoinMethods() {
		applies := method == qgm.OpHSJOIN || (method == qgm.OpMSJOIN && connected) || (method == qgm.OpNLJOIN && rest&(rest-1) == 0)
		if applies && pc.cons.allowsJoin(mask, sub, rest, method) {
			return true
		}
	}
	return false
}

// --- greedy enumeration ------------------------------------------------------

// greedyBound returns the greedy plan's cost, the bound dpEnumerate prunes
// against; +Inf when greedy fails or joins unconnected components, a plan the
// dynamic program (no cartesian split where a connected one exists) may lack.
// Greedy's combinations are not counted as considered.
func (pc *planCtx) greedyBound() float64 {
	root, _, connected, err := pc.greedyCand()
	if err != nil || !connected {
		return math.Inf(1)
	}
	return pc.cand(root).cost
}

// greedyCand plans by repeatedly merging the pair of components with the
// cheapest join, honouring guideline constraints first. It returns the plan's
// slab index and whether every merge joined connected components.
func (pc *planCtx) greedyCand() (root int32, considered int, connected bool, err error) {
	var buf [maxQuantifiers]int32
	comps, connected := buf[:0], true // slab indices
	for _, qt := range pc.quants {
		comps = append(comps, pc.bestAccess(qt))
	}
	// merge replaces components i and j by their join, which goes last.
	merge := func(i, j int, jc *planCand, linked bool) {
		joined := pc.pushJoin(jc, comps[i], comps[j])
		comps = slices.Delete(comps, max(i, j), max(i, j)+1)
		comps = append(slices.Delete(comps, min(i, j), min(i, j)+1), joined)
		connected = connected && linked
	}
	var jc, best planCand
	for len(comps) > 1 {
		// Honour guideline join constraints first: when two components match a
		// constrained join's outer and inner sets exactly, perform that merge
		// now so the constrained subtree exists in the final plan (DP gets
		// this for free; greedy must construct it eagerly).
		constrained := false
		for _, con := range pc.cons.joins {
			oi, ii := -1, -1
			for k, c := range comps {
				switch pc.cand(c).mask {
				case con.outer:
					oi = k
				case con.inner:
					ii = k
				}
			}
			if oi < 0 || ii < 0 || oi == ii {
				continue
			}
			sp := pc.split(con.outer, con.inner)
			ok := pc.buildJoinCand(&jc, con.method, pc.cand(comps[oi]), pc.cand(comps[ii]), &sp)
			considered++
			if !ok {
				continue
			}
			merge(oi, ii, &jc, sp.connected)
			constrained = true
			break
		}
		if constrained {
			continue
		}
		bi, bj, bestLinked := -1, -1, false
		tryPair := func(i, j int, requireConn bool) {
			left, right := pc.cand(comps[i]), pc.cand(comps[j])
			sp := pc.split(left.mask, right.mask)
			if requireConn && !sp.connected {
				return
			}
			set := left.mask | right.mask
			if !pc.cons.allowsPartition(set, left.mask, right.mask) {
				return
			}
			for _, method := range qgm.JoinMethods() {
				if !pc.cons.allowsJoin(set, left.mask, right.mask, method) {
					continue
				}
				ok := pc.buildJoinCand(&jc, method, left, right, &sp)
				considered++
				if ok && (bi < 0 || jc.cost < best.cost) {
					best, bi, bj, bestLinked = jc, i, j, sp.connected
				}
			}
		}
		allPairs := func(requireConn bool) {
			for i := range comps {
				for j := range comps {
					if i != j {
						tryPair(i, j, requireConn)
					}
				}
			}
		}
		allPairs(true)
		if bi < 0 {
			allPairs(false) // no connected pair: allow a cartesian product
		}
		if bi < 0 {
			return 0, considered, false, fmt.Errorf("optimizer: greedy enumeration found no joinable pair under the active constraints")
		}
		merge(bi, bj, &best, bestLinked)
	}
	return comps[0], considered, connected, nil
}
