package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"galo/internal/catalog"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
)

// accessPath is one way to read a quantifier's base table.
type accessPath struct {
	op           qgm.OpType
	indexName    string
	indexCluster float64
	cost         float64
	card         float64
	sortedOn     string // "Qi.COL" when the access produces that order
}

func (a accessPath) usesIndex() bool { return a.op == qgm.OpIXSCAN || a.op == qgm.OpFETCH }

func (a accessPath) clusterRatio() float64 {
	if a.indexCluster == 0 {
		return 0.5
	}
	return a.indexCluster
}

// planCand is a partial plan over a set of quantifier instances. Its order
// property lives on the plan node itself (qgm.Node.OrderedOn), so the
// property survives into the emitted plan and the executor can honour it.
type planCand struct {
	node    *qgm.Node
	cost    float64
	card    float64
	rowSize int
	mask    uint64 // quantifiers covered: bit i is quants[i]
	ord     int    // planCtx.orderID of node.OrderedOn; 0 when it is not an interesting order
	// leaf and probe are set on base-table accesses only: the quantifier read
	// and the access a nested-loop join re-evaluates once per outer row.
	leaf  *Quantifier
	probe accessPath
	sort  float64 // sortCost of the output, memoised by sortCost
}

// sortCost returns the cost of an explicit SORT over the candidate's output;
// every merge join that considers the candidate as an unsorted input asks.
func (c *planCand) sortCost(m *catalog.CostModel) float64 {
	if c.sort == 0 {
		c.sort = m.Sort(c.card, c.rowSize).Millis
	}
	return c.sort
}

// orderedOn returns the candidate's order property.
func (c *planCand) orderedOn() string {
	if c == nil || c.node == nil {
		return ""
	}
	return c.node.OrderedOn
}

// maxQuantifiers bounds the table references of one query: quantifier sets
// are uint64 bitmasks.
const maxQuantifiers = 64

// planCtx is the planning context of one Optimize (or BuildPlan) call:
// everything the enumerators need from the query, derived once after
// Quantifiers instead of once per candidate. Quantifier sets are bitmasks
// over quants, join predicates are pre-resolved edges, interesting orders are
// small integers, and cons holds the active guideline constraints as masks.
// It lives and dies with the call; nothing is pooled across requests.
type planCtx struct {
	o      *Optimizer
	q      *sqlparser.Query
	quants []*Quantifier
	byName map[string]*Quantifier // FROM reference name and instance name -> quantifier
	edges  []joinEdge
	// orderID numbers the interesting orders — the instance-qualified columns
	// an order property could pay for: equality join columns (merge joins) and
	// ORDER BY columns (final sort elimination). Keys are upper-cased "Qi.COL";
	// ids start at 1 and ascend in key order, so walking ids walks keys sorted.
	orderID map[string]int
	cons    constraintSet
	// cost is the plan-time view of the cost model (internal/catalog/cost.go)
	// every estimate of the call goes through; what stays in this package is
	// what only the optimizer knows — quantifiers, access paths, clamps.
	cost catalog.CostModel
}

// joinEdge is one join predicate of the query resolved against the
// quantifiers.
type joinEdge struct {
	l, r       uint64  // bits of the quantifiers owning the left / right column
	sel        float64 // 1/max(NDV left, NDV right); defaultJoinSel without statistics
	text       string  // the rendered predicate: one qgm.Node.JoinCols entry
	lCol, rCol string  // instance-qualified columns: the sort columns a merge join needs
	lOrd, rOrd int     // their interesting-order ids
}

func (o *Optimizer) newPlanCtx(q *sqlparser.Query, quants []*Quantifier) (*planCtx, error) {
	if len(quants) == 0 {
		return nil, fmt.Errorf("optimizer: query references no tables")
	}
	if len(quants) > maxQuantifiers {
		return nil, fmt.Errorf("optimizer: query references %d tables, the enumerator plans at most %d", len(quants), maxQuantifiers)
	}
	pc := &planCtx{o: o, q: q, quants: quants, byName: make(map[string]*Quantifier, 2*len(quants)), orderID: map[string]int{},
		cost: o.Cat.Config.PlanCost()}
	for _, qt := range quants {
		pc.byName[strings.ToUpper(qt.Ref.Name())] = qt
		pc.byName[qt.Instance] = qt
	}
	// qualify resolves a column to its quantifier and instance-qualified name,
	// and registers the name as an interesting order.
	var keys []string
	qualify := func(c sqlparser.ColumnRef) (*Quantifier, string) {
		qt := pc.byName[strings.ToUpper(c.Table)]
		if qt == nil {
			return nil, ""
		}
		col := qt.Instance + "." + c.Column
		key := strings.ToUpper(col)
		if _, seen := pc.orderID[key]; !seen {
			pc.orderID[key] = 0
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
		pc.edges = append(pc.edges, e)
	}
	for _, c := range q.OrderBy {
		qualify(c)
	}
	sort.Strings(keys)
	for i, key := range keys {
		pc.orderID[key] = i + 1
	}
	for i := range pc.edges {
		e := &pc.edges[i]
		e.lOrd, e.rOrd = pc.ordOf(e.lCol), pc.ordOf(e.rCol)
	}
	return pc, nil
}

// ordOf returns the interesting-order id of an order property, 0 for none.
func (pc *planCtx) ordOf(orderedOn string) int {
	if orderedOn == "" {
		return 0
	}
	return pc.orderID[strings.ToUpper(orderedOn)]
}

// enumerate drives cost-based plan construction, retrying with progressively
// fewer guidelines when the constrained search cannot produce a plan. This is
// the paper's "not all guidelines may be honored" behaviour.
func (o *Optimizer) enumerate(q *sqlparser.Query, quants []*Quantifier, report *Report) (*qgm.Node, error) {
	pc, err := o.newPlanCtx(q, quants)
	if err != nil {
		return nil, err
	}
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
// no complete plan satisfies the constraints.
func (pc *planCtx) enumerateWith(cons constraintSet) (root *qgm.Node, considered int, usedDP bool, err error) {
	pc.cons = cons
	switch n := len(pc.quants); {
	case n == 1: // single-table query: best access path only
		return pc.bestAccess(pc.quants[0]).node, 1, false, nil
	case n <= pc.o.Opts.JoinEnumDPLimit:
		root, considered, err = pc.dpEnumerate()
		return root, considered, true, err
	default:
		root, considered, err = pc.greedyEnumerate()
		return root, considered, false, err
	}
}

// --- access path selection --------------------------------------------------

// accessPaths lists the valid ways to read one quantifier, honouring access
// constraints when present.
func (pc *planCtx) accessPaths(qt *Quantifier) []accessPath {
	o := pc.o
	sel := o.localSelectivity(qt.Ref.Table, qt.LocalPreds)
	outCard := clampCard(qt.RawCard * sel)
	rowsPerPage := math.Max(qt.RawCard/math.Max(qt.Pages, 1), 1)
	var paths []accessPath

	ac, hasAC := pc.cons.access[qt.Instance]

	if !hasAC || ac.method == qgm.OpTBSCAN {
		paths = append(paths, accessPath{
			op:   qgm.OpTBSCAN,
			cost: pc.cost.TableScan(qt.Pages, qt.RawCard),
			card: outCard,
		})
	}
	if qt.Table != nil && (!hasAC || ac.method != qgm.OpTBSCAN) {
		needed := referencedColumns(pc.q, qt)
		for i := range qt.Table.Indexes {
			idx := &qt.Table.Indexes[i]
			if hasAC && ac.index != "" && !strings.EqualFold(ac.index, idx.Name) {
				continue
			}
			lead := idx.Columns[0]
			idxSel := o.leadingColumnSelectivity(qt, lead)
			matchRows := clampCard(qt.RawCard * idxSel)
			indexOnly := coversAll(idx.Columns, needed)
			op := qgm.OpFETCH
			if indexOnly {
				op = qgm.OpIXSCAN
			}
			cost := pc.cost.IndexScan(qt.Pages, qt.RawCard, matchRows, idx.ClusterRatio, !indexOnly, rowsPerPage).Millis
			paths = append(paths, accessPath{
				op:           op,
				indexName:    idx.Name,
				indexCluster: idx.ClusterRatio,
				cost:         cost,
				card:         outCard,
				sortedOn:     qt.Instance + "." + lead,
			})
		}
	}
	if len(paths) == 0 {
		// The access constraint could not be satisfied (e.g. IXSCAN requested
		// but the table has no index): fall back to a table scan so that the
		// query can still be planned; the guideline will be reported ignored.
		paths = append(paths, accessPath{
			op:   qgm.OpTBSCAN,
			cost: pc.cost.TableScan(qt.Pages, qt.RawCard),
			card: outCard,
		})
	}
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

// referencedColumns returns the columns of the quantifier's table referenced
// anywhere in the query.
func referencedColumns(q *sqlparser.Query, qt *Quantifier) []string {
	name := strings.ToUpper(qt.Ref.Name())
	seen := map[string]struct{}{}
	add := func(c sqlparser.ColumnRef) {
		if strings.EqualFold(c.Table, name) {
			seen[strings.ToUpper(c.Column)] = struct{}{}
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
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func coversAll(indexCols, needed []string) bool {
	have := map[string]bool{}
	for _, c := range indexCols {
		have[strings.ToUpper(c)] = true
	}
	for _, c := range needed {
		if !have[strings.ToUpper(c)] {
			return false
		}
	}
	return true
}

// bestAccess returns the cheapest access path wrapped as a plan candidate.
func (pc *planCtx) bestAccess(qt *Quantifier) *planCand {
	paths := pc.accessPaths(qt)
	best := paths[0]
	for _, p := range paths[1:] {
		if p.cost < best.cost {
			best = p
		}
	}
	return pc.accessCand(qt, best)
}

func (pc *planCtx) accessCand(qt *Quantifier, path accessPath) *planCand {
	node := &qgm.Node{
		Op:             path.op,
		Table:          strings.ToUpper(qt.Ref.Table),
		TableInstance:  qt.Instance,
		Index:          path.indexName,
		EstCardinality: path.card,
		EstCost:        path.cost,
		RowSize:        qt.RowWidth,
		Pages:          qt.Pages,
		OrderedOn:      path.sortedOn,
	}
	for _, p := range qt.LocalPreds {
		node.Predicates = append(node.Predicates, p.String())
	}
	// A nested-loop join re-reads this access per outer row; its probe cost
	// wants the index's cluster ratio as the catalog names it.
	probe := accessPath{op: path.op, indexName: path.indexName, indexCluster: 0.5}
	if path.indexName != "" && qt.Table != nil {
		if idx := qt.Table.IndexByName(path.indexName); idx != nil {
			probe.indexCluster = idx.ClusterRatio
		}
	}
	return &planCand{
		node:    node,
		cost:    path.cost,
		card:    path.card,
		rowSize: qt.RowWidth,
		mask:    qt.bit,
		ord:     pc.ordOf(path.sortedOn),
		leaf:    qt,
		probe:   probe,
	}
}

// accessCands returns the candidate access paths worth remembering for one
// quantifier: the overall cheapest, plus — per interesting order — the
// cheapest path producing that order. These are the System-R "interesting
// orders": a sorted access that loses on raw cost may still win globally by
// letting a merge join skip a sort.
func (pc *planCtx) accessCands(qt *Quantifier) []*planCand {
	paths := pc.accessPaths(qt)
	best := paths[0]
	bestByOrder := make([]*accessPath, len(pc.orderID)+1) // indexed by interesting-order id
	for i := range paths {
		p := &paths[i]
		if p.cost < best.cost {
			best = *p
		}
		if ord := pc.ordOf(p.sortedOn); ord != 0 && (bestByOrder[ord] == nil || p.cost < bestByOrder[ord].cost) {
			bestByOrder[ord] = p
		}
	}
	out := []*planCand{pc.accessCand(qt, best)}
	for _, p := range bestByOrder {
		if p != nil && *p != best { // else the cheapest path already carries this order
			out = append(out, pc.accessCand(qt, *p))
		}
	}
	return out
}

// --- join construction -------------------------------------------------------

// joinSplit is what an (outer set, inner set) pair fixes for every candidate
// joining them, whichever retained sub-plans and join method are combined:
// the connecting predicates, their selectivity, and the merge columns.
type joinSplit struct {
	connected  bool
	sel        float64  // product of the connecting edges' selectivities, clamped
	joinCols   []string // the connecting predicates, rendered
	lCol, rCol string   // outer / inner sort columns of a merge join (first connecting predicate)
	lOrd, rOrd int
}

// connects reports whether a join predicate links the two quantifier sets.
func (pc *planCtx) connects(left, right uint64) bool {
	for i := range pc.edges {
		if e := &pc.edges[i]; (e.l&left != 0 && e.r&right != 0) || (e.r&left != 0 && e.l&right != 0) {
			return true
		}
	}
	return false
}

// split resolves the join predicates between two disjoint quantifier sets.
func (pc *planCtx) split(left, right uint64) joinSplit {
	sp := joinSplit{sel: 1.0, joinCols: []string{}}
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
		sp.joinCols = append(sp.joinCols, e.text)
	}
	sp.sel = clampSel(sp.sel)
	return sp
}

// joinCand is a costed join that has no plan nodes yet. The enumerators cost
// every (outer, inner, method) combination but call plan only on a candidate
// that displaces an incumbent, so losers allocate nothing.
type joinCand struct {
	method      qgm.OpType
	left, right *planCand
	cost, card  float64
	ord         int // order property of the output, as id and as column
	ordered     string
	bloom       bool
	// MSJOIN only: whether each input needs an explicit SORT, and the
	// cumulative input costs with it.
	sortLeft, sortRight bool
	leftCost, rightCost float64
}

// buildJoinCand costs joining two inputs with the given method; ok is false
// when the method is not applicable (NLJOIN over a multi-table inner, MSJOIN
// without an equality join predicate). Every cost expression keeps the
// operand order it always had: estimates are compared bit for bit.
func (pc *planCtx) buildJoinCand(method qgm.OpType, left, right *planCand, sp *joinSplit) (jc joinCand, ok bool) {
	m := &pc.cost
	jc = joinCand{method: method, left: left, right: right,
		card: clampCard(left.card * right.card * sp.sel),
		ord:  left.ord, ordered: left.orderedOn()} // hash probe and nested-loop outer order is preserved
	switch method {
	case qgm.OpHSJOIN:
		jc.bloom = pc.o.Opts.EnableBloomFilters && right.card <= left.card
		inc, _ := m.HashJoin(left.card, right.card, jc.card, left.rowSize, right.rowSize, jc.bloom)
		jc.cost = left.cost + right.cost + inc
	case qgm.OpNLJOIN:
		// Nested loops only when the inner is a single base-table access.
		if right.leaf == nil {
			return jc, false
		}
		matchPerProbe := right.card * sp.sel
		probe, _ := m.NLProbe(right.probe.usesIndex(), right.probe.clusterRatio(), right.leaf.Pages, right.leaf.RawCard, matchPerProbe)
		inc := left.card*probe + m.PerRow(jc.card, catalog.NLJoinOutRowCPU)
		// The inner's own scan cost is not paid up-front; probes pay it.
		jc.cost = left.cost + inc
	case qgm.OpMSJOIN:
		if !sp.connected {
			return jc, false // merge join needs an equality join predicate
		}
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
		jc.ord, jc.ordered = sp.lOrd, sp.lCol
	default:
		return jc, false
	}
	return jc, true
}

// plan materializes the candidate's plan nodes; sp is the split it was built
// over.
func (jc *joinCand) plan(sp *joinSplit) *planCand {
	left, right := jc.left, jc.right
	node := &qgm.Node{
		Op:             jc.method,
		EstCardinality: jc.card,
		EstCost:        jc.cost,
		RowSize:        left.rowSize + right.rowSize,
		JoinCols:       sp.joinCols,
		BloomFilter:    jc.bloom,
		EarlyOut:       jc.method == qgm.OpMSJOIN,
		OrderedOn:      jc.ordered,
		Outer:          left.node,
		Inner:          right.node,
	}
	if jc.sortLeft {
		node.Outer = &qgm.Node{Op: qgm.OpSORT, Outer: left.node, EstCardinality: left.card, EstCost: jc.leftCost, RowSize: left.rowSize, OrderedOn: sp.lCol}
	}
	if jc.sortRight {
		node.Inner = &qgm.Node{Op: qgm.OpSORT, Outer: right.node, EstCardinality: right.card, EstCost: jc.rightCost, RowSize: right.rowSize, OrderedOn: sp.rCol}
	}
	return &planCand{node: node, cost: jc.cost, card: jc.card, rowSize: node.RowSize, mask: left.mask | right.mask, ord: jc.ord}
}

// --- dynamic programming -----------------------------------------------------

// candSet is the dynamic-programming table entry for one quantifier subset:
// the overall-cheapest candidate plus, per interesting order, the cheapest
// candidate whose output carries that order. Keeping the ordered runners-up
// is what lets a merge join higher in the tree claim sort-avoidance from a
// plan that was not locally cheapest.
type candSet struct {
	best    *planCand
	byOrder []*planCand // indexed by interesting-order id; nil until an ordered candidate arrives
	list    []*planCand // cands(), frozen once the subset is fully enumerated
}

// admits reports whether a candidate of this cost and order would displace an
// incumbent, i.e. whether add would keep it.
func (cs *candSet) admits(cost float64, ord int) bool {
	if cs.best == nil || cost < cs.best.cost {
		return true
	}
	if ord == 0 {
		return false
	}
	return cs.byOrder == nil || cs.byOrder[ord] == nil || cost < cs.byOrder[ord].cost
}

// add folds a candidate into the set, keeping per-order winners.
func (cs *candSet) add(cand *planCand, orders int) {
	if cs.best == nil || cand.cost < cs.best.cost {
		cs.best = cand
	}
	if cand.ord == 0 {
		return
	}
	if cs.byOrder == nil {
		cs.byOrder = make([]*planCand, orders+1)
	}
	if prev := cs.byOrder[cand.ord]; prev == nil || cand.cost < prev.cost {
		cs.byOrder[cand.ord] = cand
	}
}

// cands lists the retained candidates: the cheapest first, then the ordered
// alternatives (in sorted order for determinism), skipping ones that carry no
// information beyond the cheapest.
func (cs *candSet) cands() []*planCand {
	out := []*planCand{cs.best}
	for ord, cand := range cs.byOrder {
		if cand != nil && ord != cs.best.ord {
			out = append(out, cand)
		}
	}
	return out
}

func (pc *planCtx) dpEnumerate() (*qgm.Node, int, error) {
	n := len(pc.quants)
	considered := 0
	orders := len(pc.orderID)
	table := make([]candSet, uint64(1)<<uint(n)) // indexed by quantifier mask; best == nil means no plan
	for _, qt := range pc.quants {
		set := &table[qt.bit]
		for _, cand := range pc.accessCands(qt) {
			set.add(cand, orders)
		}
		set.list = set.cands()
	}

	full := uint64(1)<<uint(n) - 1
	for size := 2; size <= n; size++ {
		for mask := uint64(1); mask <= full; mask++ {
			if bits.OnesCount64(mask) != size {
				continue
			}
			acc := &table[mask]
			// Whether mask has any connected split is asked by every
			// disconnected one; answer it once (0 unknown, 1 yes, -1 no).
			connectedSplit := 0
			// Enumerate proper splits; (sub, rest) visits both orders.
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				rest := mask ^ sub
				ls, rs := &table[sub], &table[rest]
				if ls.best == nil || rs.best == nil {
					continue
				}
				sp := pc.split(sub, rest)
				if !sp.connected {
					if connectedSplit == 0 {
						connectedSplit = -1
						if pc.hasConnectedSplit(mask, table) {
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
				for _, left := range ls.list {
					for _, right := range rs.list {
						for _, method := range qgm.JoinMethods() {
							if !pc.cons.allowsJoin(mask, sub, rest, method) {
								continue
							}
							jc, ok := pc.buildJoinCand(method, left, right, &sp)
							considered++
							if ok && acc.admits(jc.cost, jc.ord) {
								acc.add(jc.plan(&sp), orders)
							}
						}
					}
				}
			}
			if acc.best != nil {
				acc.list = acc.cands()
			}
		}
	}
	if table[full].best == nil {
		return nil, considered, fmt.Errorf("optimizer: no plan satisfies the active guideline constraints")
	}
	return table[full].best.node, considered, nil
}

func (pc *planCtx) hasConnectedSplit(mask uint64, table []candSet) bool {
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		if rest := mask ^ sub; table[sub].best != nil && table[rest].best != nil && pc.connects(sub, rest) {
			return true
		}
	}
	return false
}

// --- greedy enumeration ------------------------------------------------------

// greedyEnumerate plans very large queries by repeatedly merging the pair of
// components with the cheapest join, honouring guideline constraints first.
func (pc *planCtx) greedyEnumerate() (*qgm.Node, int, error) {
	considered := 0
	comps := make([]*planCand, 0, len(pc.quants))
	for _, qt := range pc.quants {
		comps = append(comps, pc.bestAccess(qt))
	}
	// merge replaces components i and j by their join, which goes last.
	merge := func(i, j int, cand *planCand) {
		next := make([]*planCand, 0, len(comps)-1)
		for k, c := range comps {
			if k != i && k != j {
				next = append(next, c)
			}
		}
		comps = append(next, cand)
	}
	for len(comps) > 1 {
		// Honour guideline join constraints first: when two components match a
		// constrained join's outer and inner sets exactly, perform that merge
		// now so the constrained subtree exists in the final plan (DP gets
		// this for free; greedy must construct it eagerly).
		constrained := false
		for _, con := range pc.cons.joins {
			oi, ii := -1, -1
			for k, c := range comps {
				if c.mask == con.outer {
					oi = k
				}
				if c.mask == con.inner {
					ii = k
				}
			}
			if oi < 0 || ii < 0 || oi == ii {
				continue
			}
			sp := pc.split(comps[oi].mask, comps[ii].mask)
			jc, ok := pc.buildJoinCand(con.method, comps[oi], comps[ii], &sp)
			considered++
			if !ok {
				continue
			}
			merge(oi, ii, jc.plan(&sp))
			constrained = true
			break
		}
		if constrained {
			continue
		}
		var best *planCand
		bi, bj := -1, -1
		tryPair := func(i, j int, requireConn bool) {
			left, right := comps[i], comps[j]
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
				jc, ok := pc.buildJoinCand(method, left, right, &sp)
				considered++
				if ok && (best == nil || jc.cost < best.cost) {
					best, bi, bj = jc.plan(&sp), i, j
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
		if best == nil {
			allPairs(false) // no connected pair: allow a cartesian product
		}
		if best == nil {
			return nil, considered, fmt.Errorf("optimizer: greedy enumeration found no joinable pair under the active constraints")
		}
		merge(bi, bj, best)
	}
	return comps[0].node, considered, nil
}
