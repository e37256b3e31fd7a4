package executor

import (
	"fmt"
	"strings"
	"sync/atomic"

	"galo/internal/catalog"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// rowIter is the pull iterator every streaming operator implements.
//
// The contract: Next returns the next output row, or false once the operator
// is exhausted — at which point the operator has charged its simulated cost
// (from the row counts it actually processed, through the same formulas the
// optimizer used at plan time) and released any buffered state. Close stops
// the operator early: it closes the children, charges the partial work done
// so far, and is idempotent. Tuples handed out — and the base rows their IDs
// stand for, which are table storage — must not be mutated by callers. A
// tuple stays valid until the cursor is finished, and no longer: a join's
// output is carved from the execution's arena, which Cursor.finish recycles
// once the whole pipeline is closed. Whoever keeps a tuple — a sort buffer, a
// build side, a spill-formula sample — reads it before then (operators charge
// inside Next or Close, both of which finish precedes); what must outlive the
// cursor is copied out, as Cursor.Next does with the values it projects.
type rowIter interface {
	Next() (tuple, bool)
	Close()
}

// spineIter is a streaming operator an exchange segment can run in parallel —
// a scan, a FILTER, a join. The segment keeps one copy, the lead, which never
// runs; every worker pulls a replica of it over its partition of the scan. A
// replica counts rows as the serial operator does and is born charged and
// closed: it books no charge and never touches the residency accounting, which
// is unsynchronized and belongs to the goroutine driving the cursor. Once the
// workers have exited, their counts are folded into the lead, and the lead is
// finalized and closed as a serial pipeline is.
type spineIter interface {
	rowIter
	// replica copies the operator for one partition, pulling from child (nil
	// for a scan).
	replica(child rowIter, p *partition) spineIter
	// fold adds the counts of one of the operator's replicas.
	fold(replica spineIter)
	// finalize charges the operator from its counts, once.
	finalize()
}

// open builds the iterator pipeline for the subtree rooted at node and
// returns it with its output layout. All plan validation (unknown tables,
// missing indexes) and all column resolution — names to tuple references —
// happens here, before the first row flows.
func (c *execContext) open(node *qgm.Node) (rowIter, layout, error) {
	if c.workers > 1 {
		// Try to run this subtree as a parallel exchange segment; shapes
		// that don't qualify fall through to the serial operators (whose
		// children get their own chance to qualify).
		it, lay, ok, err := c.openParallel(node)
		if err != nil {
			return nil, layout{}, err
		}
		if ok {
			return it, lay, nil
		}
	}
	switch {
	case node.Op.IsScan():
		return c.openScan(node)
	case node.Op.IsJoin():
		return c.openJoin(node)
	}
	openChild := c.open
	switch node.Op {
	case qgm.OpRETURN, qgm.OpFILTER:
	case qgm.OpSORT, qgm.OpGRPBY:
		openChild = c.openOrdered
	default:
		return nil, layout{}, fmt.Errorf("executor: unsupported operator %s", node.Op)
	}
	child, lay, err := openChild(node.Outer)
	if err != nil {
		return nil, layout{}, err
	}
	switch node.Op {
	case qgm.OpRETURN:
		return &passIter{ctx: c, node: node, child: child, cpuFactor: catalog.ReturnRowCPU}, lay, nil
	case qgm.OpFILTER:
		return c.filterOver(node, child), lay, nil
	case qgm.OpSORT:
		return &sortIter{ctx: c, node: node, child: child, slots: lay.slots, key: lay.refs(c.sortKey(node, lay.cols))}, lay, nil
	default:
		return &groupByIter{ctx: c, node: node, child: child, key: lay.refs(c.groupKey(lay.cols)), seen: map[string]struct{}{}}, lay, nil
	}
}

// openOrdered opens a subtree whose consumer observes the order rows arrive
// in — a join's build side (insertion order, spill sample), a hash join's
// outer (spill sample), a SORT (ties) or a GRPBY (first-seen rows). Any
// exchange below it must then deliver in partition order, or rows and
// per-operator charges would depend on goroutine scheduling.
func (c *execContext) openOrdered(n *qgm.Node) (rowIter, layout, error) {
	c.orderObserved++
	defer func() { c.orderObserved-- }()
	return c.open(n)
}

// groupKey resolves the positions of the query's GROUP BY columns present in
// the input.
func (c *execContext) groupKey(cols []string) []int {
	idx := make([]int, 0, len(c.query.GroupBy))
	for _, k := range c.query.GroupBy {
		inst := c.refToInst[strings.ToUpper(k.Table)]
		if p := colPos(cols, inst+"."+k.Column); p >= 0 {
			idx = append(idx, p)
		}
	}
	return idx
}

// sortKey resolves the column positions a SORT orders by: the query's ORDER
// BY columns present in the input, overridden by the node's single-column
// order property when it names a different leading column (a SORT feeding a
// merge join establishes the merge column's order).
func (c *execContext) sortKey(node *qgm.Node, cols []string) []int {
	orderByIdx := make([]int, 0, len(c.query.OrderBy))
	for _, k := range c.query.OrderBy {
		inst := c.refToInst[strings.ToUpper(k.Table)]
		if p := colPos(cols, inst+"."+k.Column); p >= 0 {
			orderByIdx = append(orderByIdx, p)
		}
	}
	idx := orderByIdx
	if node.OrderedOn != "" {
		if p := colPos(cols, node.OrderedOn); p >= 0 && (len(orderByIdx) == 0 || orderByIdx[0] != p) {
			idx = []int{p}
		}
	}
	return idx
}

// --- pass-through operators (RETURN, FILTER) ---------------------------------

// passIter counts rows through and charges them at cpuFactor per row at the
// end.
type passIter struct {
	ctx       *execContext
	node      *qgm.Node
	child     rowIter
	cpuFactor float64
	n         int
	charged   bool
	closed    bool
}

// filterOver returns the FILTER operator over a child already open.
func (c *execContext) filterOver(node *qgm.Node, child rowIter) *passIter {
	return &passIter{ctx: c, node: node, child: child, cpuFactor: catalog.FilterRowCPU}
}

func (p *passIter) Next() (tuple, bool) {
	t, ok := p.child.Next()
	if !ok {
		p.finalize()
		return nil, false
	}
	p.n++
	return t, true
}

func (p *passIter) finalize() {
	if p.charged {
		return
	}
	p.charged = true
	p.ctx.charge(p.node, p.ctx.cost.PerRow(float64(p.n), p.cpuFactor), p.n)
}

func (p *passIter) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.child.Close()
	p.finalize()
}

func (p *passIter) replica(child rowIter, _ *partition) spineIter {
	r := *p
	r.child, r.charged, r.closed = child, true, true
	return &r
}

func (p *passIter) fold(r spineIter) { p.n += r.(*passIter).n }

// --- scans -------------------------------------------------------------------

// scanSource is a base-table access resolved against the database: what a
// scan iterator and every replica of it read, none of them writing.
type scanSource struct {
	node   *qgm.Node
	slot            // the table and its rows, pinned at open
	ids    []uint32 // the identity vector: ids[i:i+1] is the tuple of row i
	preds  []scanPred
	idxDef *catalog.Index // IXSCAN/FETCH only

	entries []storage.IndexEntry
	lo, hi  int // candidate range: row positions (TBSCAN) or entry positions

	tablePages, tableRows, rowsPerPage float64
}

// match applies the scan's local predicates to a row. A scan without any
// leaves the row untouched: whatever joins above it reads its key from a
// key-word vector.
func (s *scanSource) match(id int) bool {
	return len(s.preds) == 0 || matchRow(s.rows[id], s.preds)
}

func (c *execContext) resolveScan(node *qgm.Node) (*scanSource, layout, error) {
	refName := c.instToRef[node.TableInstance]
	if refName == "" {
		return nil, layout{}, fmt.Errorf("executor: plan instance %s not present in query", node.TableInstance)
	}
	table := c.exec.DB.Table(node.Table)
	if table == nil {
		return nil, layout{}, fmt.Errorf("executor: unknown table %s", node.Table)
	}
	preds := sqlparser.PredicatesFor(c.query, refName)
	rows := table.Rows
	sc := &scanSource{
		node: node, slot: slot{ncols: len(table.Def.Columns), rows: rows, table: table},
		ids: rowIDs(len(rows)), preds: compilePreds(table.Def, preds),
		tablePages: float64(c.exec.DB.Pages(node.Table)),
		tableRows:  float64(len(rows)),
	}
	lay := layout{cols: scanColumns(node.TableInstance, table.Def), slots: slotList{&sc.slot}}
	switch node.Op {
	case qgm.OpTBSCAN:
		sc.hi = len(rows)
	case qgm.OpIXSCAN, qgm.OpFETCH:
		if sc.idxDef = table.Def.IndexByName(node.Index); sc.idxDef == nil {
			return nil, layout{}, fmt.Errorf("executor: table %s has no index %s", node.Table, node.Index)
		}
		sc.rowsPerPage = float64(c.exec.DB.RowsPerPage(node.Table))
		if idx := c.exec.DB.Index(node.Table, sc.idxDef.Name); idx != nil {
			sc.entries = idx.Entries
			sc.lo, sc.hi = indexBounds(idx, sc.idxDef.Columns[0], preds)
		}
	default:
		return nil, layout{}, fmt.Errorf("executor: unsupported scan %s", node.Op)
	}
	return sc, lay, nil
}

func (c *execContext) openScan(node *qgm.Node) (rowIter, layout, error) {
	sc, lay, err := c.resolveScan(node)
	if err != nil {
		return nil, layout{}, err
	}
	return c.scanOver(sc, sc.lo, sc.hi), lay, nil
}

// scanOver returns the scan iterator over candidate positions [lo, hi) of a
// resolved access.
func (c *execContext) scanOver(sc *scanSource, lo, hi int) spineIter {
	s := scanIter{ctx: c, scanSource: sc, pos: lo, stop: hi, end: hi}
	if sc.node.Op == qgm.OpTBSCAN {
		return &tbscanIter{s}
	}
	return &ixscanIter{s}
}

// indexBounds resolves the entry range an index access touches, pushing the
// first sargable predicate on the index's leading column into the B-tree
// positioning instead of materializing a candidate row-ID list.
func indexBounds(idx *storage.IndexData, lead string, preds []sqlparser.Predicate) (start, end int) {
	for _, p := range preds {
		if !strings.EqualFold(p.Left.Column, lead) {
			continue
		}
		switch {
		case p.Kind == sqlparser.PredCompare && p.Op == "=":
			return idx.PositionsEqual(p.Value)
		case p.Kind == sqlparser.PredCompare && (p.Op == ">" || p.Op == ">="):
			v := p.Value
			return idx.PositionsRange(&v, nil)
		case p.Kind == sqlparser.PredCompare && (p.Op == "<" || p.Op == "<="):
			v := p.Value
			return idx.PositionsRange(nil, &v)
		case p.Kind == sqlparser.PredBetween && !p.Not:
			lo, hi := p.Lo, p.Hi
			return idx.PositionsRange(&lo, &hi)
		}
	}
	// No sargable predicate: the access touches every entry (in index order).
	return 0, idx.Len()
}

// scanIter is what the two scan iterators share: the candidate positions
// [pos, end) of the access they stream — the source's whole range on the serial
// path, one partition of it in an exchange worker — and the counts it is
// charged from.
type scanIter struct {
	ctx *execContext
	*scanSource

	// The scan loops run to stop, which on the serial path is end. A replica
	// gets there in strides of 1024 positions, looking between two of them at
	// cancel, the flag of the exchange whose worker pulls it.
	pos, stop, end int
	cancel         *atomic.Bool

	nScan, nOut     int // candidates read, rows passed on
	charged, closed bool
}

// stride moves stop on; false once the range is scanned or the exchange
// cancelled.
func (s *scanIter) stride() bool {
	if s.stop == s.end || s.cancel != nil && s.cancel.Load() {
		return false
	}
	s.stop = min(s.end, s.stop+1024)
	return true
}

// finalize charges the scan for the candidates actually read — the whole
// range when it was drained, a proportional slice when a bounded consumer
// stopped it early.
func (s *scanIter) finalize() {
	if s.charged {
		return
	}
	s.charged = true
	if s.node.Op == qgm.OpTBSCAN {
		s.ctx.chargeTBScan(s.node, s.nScan, s.nOut, s.tablePages, s.tableRows)
	} else {
		s.ctx.chargeIXScan(s.node, s.idxDef, s.nScan, s.nOut, s.tablePages, s.tableRows, s.rowsPerPage)
	}
}

func (s *scanIter) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.finalize()
}

// over is the scan's replica for one partition (see spineIter).
func (s *scanIter) over(p *partition) scanIter {
	r := *s
	r.pos, r.stop, r.end, r.cancel = p.lo, p.lo, p.hi, p.cancel
	r.charged, r.closed = true, true
	return r
}

func (s *scanIter) add(r *scanIter) {
	s.nScan += r.nScan
	s.nOut += r.nOut
}

// tbscanIter streams a table scan over the rows pinned at Open, filtering each
// row before it leaves the operator (predicate pushdown: non-matching rows
// never enter the pipeline). Rows travel as one-slot tuples aliasing the
// identity vector.
type tbscanIter struct{ scanIter }

func (s *tbscanIter) Next() (tuple, bool) {
	for s.pos < s.stop || s.stride() {
		i := s.pos
		s.pos++
		s.nScan++
		if s.match(i) {
			s.nOut++
			return s.ids[i : i+1 : i+1], true
		}
	}
	s.finalize()
	return nil, false
}

func (s *tbscanIter) replica(_ rowIter, p *partition) spineIter { return &tbscanIter{s.over(p)} }
func (s *tbscanIter) fold(r spineIter)                          { s.add(&r.(*tbscanIter).scanIter) }

// ixscanIter streams an index (or fetch-through-index) access: candidates
// come straight from the index's entry range — no row-ID list is ever
// materialized — and residual predicates filter each row before it leaves.
type ixscanIter struct{ scanIter }

func (s *ixscanIter) Next() (tuple, bool) {
	for s.pos < s.stop || s.stride() {
		id := s.entries[s.pos].RowID
		s.pos++
		s.nScan++
		if s.match(id) {
			s.nOut++
			return s.ids[id : id+1 : id+1], true
		}
	}
	s.finalize()
	return nil, false
}

func (s *ixscanIter) replica(_ rowIter, p *partition) spineIter { return &ixscanIter{s.over(p)} }
func (s *ixscanIter) fold(r spineIter)                          { s.add(&r.(*ixscanIter).scanIter) }

// --- sort --------------------------------------------------------------------

// sortIter is a pipeline breaker: the first Next drains the child into a
// buffer (held in the intermediate accounting), sorts it, and charges the
// sort; rows then stream out of the buffer.
type sortIter struct {
	ctx   *execContext
	node  *qgm.Node
	child rowIter
	slots slotList
	key   []colRef

	rows      []tuple
	pos       int
	heldBytes int64
	sorted    bool
	closed    bool
}

func (s *sortIter) Next() (tuple, bool) {
	if !s.sorted {
		s.buffer()
	}
	if s.pos < len(s.rows) {
		t := s.rows[s.pos]
		s.pos++
		return t, true
	}
	return nil, false
}

func (s *sortIter) buffer() {
	s.sorted = true
	s.rows = make([]tuple, 0, presizeHint(s.node.Outer.EstCardinality))
	for {
		t, ok := s.child.Next()
		if !ok {
			break
		}
		s.rows = append(s.rows, t)
	}
	s.child.Close()
	if s.ctx.overBudget() {
		// The input alone cost more than the run may: nothing is sorted,
		// held or served.
		s.rows = nil
		return
	}
	// A bounded run books the sort's charge before sorting — the charge needs
	// only the row count and the row the sort would put first — so a sort that
	// takes the run over its budget is never performed. An unbounded run
	// (every serving path) sorts and reads that row off the front.
	sortFirst := s.ctx.budget == 0 || len(s.key) == 0
	if sortFirst && len(s.key) > 0 {
		sortStableBy(s.rows, s.key)
	}
	var sample tuple
	if len(s.rows) > 0 {
		if sample = s.rows[0]; !sortFirst {
			sample = firstMin(s.rows, s.key)
		}
	}
	width := s.slots.rowWidth(sample)
	s.ctx.charge(s.node, s.ctx.sortMillis(float64(len(s.rows)), width), len(s.rows))
	if !sortFirst {
		if s.ctx.overBudget() {
			s.rows = nil
			return
		}
		sortStableBy(s.rows, s.key)
	}
	s.heldBytes = int64(width) * int64(len(s.rows))
	s.ctx.hold(len(s.rows), s.heldBytes)
}

// firstMin returns the row a stable sort on key would put first: the first of
// the smallest.
func firstMin(rows []tuple, key []colRef) tuple {
	first := rows[0]
	for _, t := range rows[1:] {
		if compareRows(t, first, key) < 0 {
			first = t
		}
	}
	return first
}

func (s *sortIter) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.child.Close()
	if s.sorted {
		s.ctx.release(len(s.rows), s.heldBytes)
		s.rows = nil
	}
}

// --- group-by ----------------------------------------------------------------

// groupByIter streams distinct group keys in first-seen order. Only the key
// set is retained (held in the intermediate accounting) — group rows
// themselves flow straight through.
type groupByIter struct {
	ctx   *execContext
	node  *qgm.Node
	child rowIter
	key   []colRef
	seen  map[string]struct{}

	nIn, nOut       int
	heldBytes       int64
	kb              strings.Builder
	charged, closed bool
}

func (g *groupByIter) Next() (tuple, bool) {
	for {
		t, ok := g.child.Next()
		if !ok {
			g.finalize()
			return nil, false
		}
		g.nIn++
		k := groupKeyOf(t, g.key, &g.kb)
		if _, dup := g.seen[k]; dup {
			continue
		}
		g.seen[k] = struct{}{}
		g.ctx.hold(1, int64(len(k)))
		g.heldBytes += int64(len(k))
		g.nOut++
		return t, true
	}
}

func (g *groupByIter) finalize() {
	if g.charged {
		return
	}
	g.charged = true
	g.ctx.charge(g.node, g.ctx.cost.PerRow(float64(g.nIn), catalog.GroupByRowCPU), g.nOut)
}

func (g *groupByIter) Close() {
	if g.closed {
		return
	}
	g.closed = true
	g.child.Close()
	g.finalize()
	g.ctx.release(g.nOut, g.heldBytes)
	g.seen = nil
}

// --- materialized-rowset adapter ---------------------------------------------

// rowsetIter serves an already-materialized rowset (the Materialize baseline
// path behind the Cursor API): each flat row travels as a one-slot tuple, its
// position in the rowset the row ID.
type rowsetIter struct {
	ctx    *execContext
	rs     *rowset
	ids    []uint32
	pos    int
	closed bool
}

func (r *rowsetIter) Next() (tuple, bool) {
	if i := r.pos; i < len(r.rs.rows) {
		r.pos++
		return r.ids[i : i+1 : i+1], true
	}
	return nil, false
}

func (r *rowsetIter) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.ctx.releaseRowset(r.rs)
}
