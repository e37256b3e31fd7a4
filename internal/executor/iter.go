package executor

import (
	"fmt"
	"strings"
	"sync"
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

// walk is the drain of an input through Next for the row IDs in one slot
// alone: it appends words[id] to dst for the ID in slot s of every tuple the
// input has left, and returns dst. A join walks its matches and a bare scan
// outer in place (joinIter.walk), a scan its candidate positions, and a
// RETURN or FILTER forwards the walk and counts what it passed; any other
// input is pulled through Next. Every operator counts, samples and finalizes
// as its Next would have.
func walk(it rowIter, s int32, words, dst []uint64) []uint64 {
	switch it := it.(type) {
	case *joinIter:
		drainsWalked.Add(1)
		return it.walk(s, words, dst)
	case *passIter:
		n := len(dst)
		dst = walk(it.child, s, words, dst)
		it.n += len(dst) - n
		it.finalize()
		return dst
	}
	if sc := bareScan(it); sc != nil { // a scan's tuple is its one slot
		for id := sc.pass(); id >= 0; id = sc.pass() {
			dst = append(dst, words[id])
		}
		return dst
	}
	for t, ok := it.Next(); ok; t, ok = it.Next() {
		dst = append(dst, words[t[s]])
	}
	return dst
}

// bareScan returns the scan an input is, or nil when it is none.
func bareScan(it rowIter) *scanIter {
	switch it := it.(type) {
	case *tbscanIter:
		return &it.scanIter
	case *ixscanIter:
		return &it.scanIter
	}
	return nil
}

// rootsCounted counts, process-wide, the runs countRows drained, and
// drainsWalked the joins those drains walked (tests).
var rootsCounted, drainsWalked atomic.Int64

// countRows drains a pipeline for its row count alone when its root's chain of
// RETURN and FILTERs, which only count, ends at a join that can count
// (joinIter.countable); each operator finalizes, bottom-up, as the drain
// through Next has it. False leaves the pipeline untouched.
func countRows(it rowIter) (int, bool) {
	switch it := it.(type) {
	case *passIter:
		n, ok := countRows(it.child)
		if ok {
			it.n = n
			it.finalize()
		}
		return n, ok
	case *joinIter:
		if it.countable() {
			rootsCounted.Add(1)
			return it.count(), true
		}
	}
	return 0, false
}

// open builds the iterator pipeline for the subtree rooted at node and
// returns it with its output slots. All plan validation (instances the query
// lacks, unknown tables, missing indexes) and all column resolution — the
// query's columns to tuple references — happens here, before the first row
// flows.
func (c *execContext) open(node *qgm.Node) (rowIter, slotList, error) {
	if c.workers > 1 {
		// Try to run this subtree as a parallel exchange segment; shapes
		// that don't qualify fall through to the serial operators (whose
		// children get their own chance to qualify).
		it, lay, ok, err := c.openParallel(node)
		if err != nil {
			return nil, nil, err
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
		return nil, nil, fmt.Errorf("executor: unsupported operator %s", node.Op)
	}
	child, lay, err := openChild(node.Outer)
	if err != nil {
		return nil, nil, err
	}
	switch node.Op {
	case qgm.OpRETURN:
		return &passIter{ctx: c, node: node, child: child, cpuFactor: catalog.ReturnRowCPU}, lay, nil
	case qgm.OpFILTER:
		return c.filterOver(node, child), lay, nil
	case qgm.OpSORT:
		return c.sortOver(node, child, lay), lay, nil
	default:
		return c.groupByOver(node, child, lay), lay, nil
	}
}

// openOrdered opens a subtree whose consumer observes the order rows arrive
// in — a join's build side (insertion order, spill sample), a hash join's
// outer (spill sample), a SORT (ties) or a GRPBY (first-seen rows). Any
// exchange below it must then deliver in partition order, or rows and
// per-operator charges would depend on goroutine scheduling.
func (c *execContext) openOrdered(n *qgm.Node) (rowIter, slotList, error) {
	c.orderObserved++
	defer func() { c.orderObserved-- }()
	return c.open(n)
}

// sortOver returns the SORT operator over a child already open. It orders by
// the query's ORDER BY columns present in the input, overridden by the node's
// single-column order property when it names a different leading column (a
// SORT feeding a merge join establishes the merge column's order).
func (c *execContext) sortOver(node *qgm.Node, child rowIter, lay slotList) *sortIter {
	key := lay.refs(c.prep.orderBy)
	if node.OrderedOn != "" {
		if r, ok := lay.named(node.OrderedOn); ok && (len(key) == 0 || key[0] != r) {
			key = []colRef{r}
		}
	}
	return &sortIter{ctx: c, node: node, child: child, slots: lay, key: key}
}

// groupByOver returns the GRPBY operator over a child already open.
func (c *execContext) groupByOver(node *qgm.Node, child rowIter, lay slotList) *groupByIter {
	return &groupByIter{ctx: c, node: node, child: child, groups: newGroupSet(lay.refs(c.prep.groupBy))}
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

func (c *execContext) resolveScan(node *qgm.Node) (*scanSource, slotList, error) {
	inst := c.prep.instanceOf(node.TableInstance)
	if inst < 0 {
		return nil, nil, fmt.Errorf("executor: plan instance %s not present in query", node.TableInstance)
	}
	table := c.prep.exec.DB.Table(node.Table)
	if table == nil {
		return nil, nil, fmt.Errorf("executor: unknown table %s", node.Table)
	}
	if def := c.prep.tables[inst]; table.Def != def {
		return nil, nil, fmt.Errorf("executor: plan instance %s reads %s, the query's reads %s", node.TableInstance, node.Table, def.Name)
	}
	rows := table.Rows
	sc := &scanSource{
		node: node, slot: slot{inst: int32(inst), ncols: len(table.Def.Columns), rows: rows, table: table},
		ids: rowIDs(len(rows)), preds: c.prep.preds[inst],
		tablePages: float64(c.prep.exec.DB.Pages(node.Table)),
		tableRows:  float64(len(rows)),
	}
	switch node.Op {
	case qgm.OpTBSCAN:
		sc.hi = len(rows)
	case qgm.OpIXSCAN, qgm.OpFETCH:
		if sc.idxDef = table.Def.IndexByName(node.Index); sc.idxDef == nil {
			return nil, nil, fmt.Errorf("executor: table %s has no index %s", node.Table, node.Index)
		}
		sc.rowsPerPage = float64(c.prep.exec.DB.RowsPerPage(node.Table))
		if idx := c.prep.exec.DB.Index(node.Table, sc.idxDef.Name); idx != nil {
			sc.entries = idx.Entries
			sc.lo, sc.hi = indexBounds(idx, sc.idxDef.Columns[0], sc.preds)
		}
	default:
		return nil, nil, fmt.Errorf("executor: unsupported scan %s", node.Op)
	}
	return sc, slotList{&sc.slot}, nil
}

func (c *execContext) openScan(node *qgm.Node) (rowIter, slotList, error) {
	sc, lay, err := c.resolveScan(node)
	if err != nil {
		return nil, nil, err
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
func indexBounds(idx *storage.IndexData, lead string, preds []scanPred) (start, end int) {
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

// pass returns the row ID at the next candidate position the scan passes, or
// -1 once the range is read, the scan finalized: a table scan's position is
// the row, an index scan's an entry of the row.
func (s *scanIter) pass() int {
	for s.pos < s.stop || s.stride() {
		id := s.pos
		if s.idxDef != nil {
			id = s.entries[id].RowID
		}
		s.pos++
		s.nScan++
		if s.match(id) {
			s.nOut++
			return id
		}
	}
	s.finalize()
	return -1
}

// Next hands on the passed row as a one-slot tuple aliasing the identity
// vector.
func (s *scanIter) Next() (tuple, bool) {
	if id := s.pass(); id >= 0 {
		return s.ids[id : id+1 : id+1], true
	}
	return nil, false
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

func (s *tbscanIter) replica(_ rowIter, p *partition) spineIter { return &tbscanIter{s.over(p)} }
func (s *tbscanIter) fold(r spineIter)                          { s.add(&r.(*tbscanIter).scanIter) }

// ixscanIter streams an index (or fetch-through-index) access: candidates
// come straight from the index's entry range — no row-ID list is ever
// materialized — and residual predicates filter each row before it leaves.
type ixscanIter struct{ scanIter }

func (s *ixscanIter) replica(_ rowIter, p *partition) spineIter { return &ixscanIter{s.over(p)} }
func (s *ixscanIter) fold(r spineIter)                          { s.add(&r.(*ixscanIter).scanIter) }

// --- sort --------------------------------------------------------------------

// sortIter is a pipeline breaker: the first Next drains the child into a
// buffer (held in the intermediate accounting), sorts it, and charges the
// sort; rows then stream out of the buffer. The buffer is the rows' IDs in
// arena chunks, and what is sorted is a permutation of their ordinals. Over an
// exchange the buffer is the runs its workers filled, one per partition, in
// place of the drain: the runs are sorted concurrently and merged, the lowest
// run first on a tie, which is the stable sort of their concatenation — the
// serial drain.
type sortIter struct {
	ctx   *execContext
	node  *qgm.Node
	child rowIter
	slots slotList
	key   []colRef

	rows      tupleBuf // every run's chunks, each run from a chunk boundary on
	order     []int32  // the buffered ordinals in output order; nil serves nothing
	pos       int
	heldBytes int64
	sorted    bool
	closed    bool
}

func (s *sortIter) Next() (tuple, bool) {
	if !s.sorted {
		s.buffer()
	}
	if s.pos < len(s.order) {
		t := s.rows.at(int(s.order[s.pos]))
		s.pos++
		return t, true
	}
	return nil, false
}

func (s *sortIter) buffer() {
	s.sorted = true
	var runs []tupleBuf
	if ex, ok := s.child.(*exchangeIter); ok {
		runs = ex.runs()
	} else {
		run := newTupleBuf(s.ctx.mem, len(s.slots))
		for t, ok := s.child.Next(); ok; t, ok = s.child.Next() {
			run.add(t)
		}
		runs = []tupleBuf{run}
	}
	s.child.Close()
	if s.ctx.overBudget() {
		// The input alone cost more than the run may: nothing is sorted,
		// held or served.
		return
	}
	// A bounded run books the sort's charge before sorting — the charge needs
	// only the row count and the row the sort would put first — so a sort that
	// takes the run over its budget is never performed. An unbounded run
	// (every serving path) sorts and reads that row off the front.
	ends := s.gather(runs)
	n := len(s.order)
	sortFirst := s.ctx.budget == 0 || len(s.key) == 0
	if sortFirst {
		s.sort(ends)
	}
	var sample tuple
	if n > 0 {
		if sample = s.rows.at(int(s.order[0])); !sortFirst {
			sample = s.firstMin()
		}
	}
	width := s.slots.rowWidth(sample)
	s.ctx.charge(s.node, s.ctx.sortMillis(float64(n), width), n)
	if !sortFirst {
		if s.ctx.overBudget() {
			s.order = nil
			return
		}
		s.sort(ends)
	}
	s.heldBytes = int64(width) * int64(n)
	s.ctx.hold(n, s.heldBytes)
}

// gather lays the runs end to end: rows is the first with every later run's
// chunks appended, each run's from a chunk boundary on, and order their
// ordinals, run after run — the order the serial pipeline drains the rows in.
// It returns where each run's ordinals end.
func (s *sortIter) gather(runs []tupleBuf) []int {
	n := 0
	for _, r := range runs {
		n += r.n
	}
	s.rows, s.order = runs[0], s.ctx.mem.ints(n)
	ends := make([]int, len(runs))
	k := 0
	for i, r := range runs {
		base := int32(0)
		if i > 0 {
			base = int32(len(s.rows.chunks)) << s.rows.shift
			s.rows.chunks = append(s.rows.chunks, r.chunks...)
		}
		for j := range int32(r.n) {
			s.order[k] = base + j
			k++
		}
		ends[i] = k
	}
	return ends
}

// sort stable-sorts the ordinals on the key: every run's on a goroutine of
// its own but the last, which sorts on the caller's, and then the runs
// merged.
func (s *sortIter) sort(ends []int) {
	if len(s.key) == 0 {
		return
	}
	var wg sync.WaitGroup
	lo := 0
	for _, hi := range ends[:len(ends)-1] {
		wg.Add(1)
		go func(run []int32) {
			defer wg.Done()
			sortStableBy(run, &s.rows, s.key)
		}(s.order[lo:hi])
		lo = hi
	}
	sortStableBy(s.order[lo:], &s.rows, s.key)
	wg.Wait()
	if len(ends) > 1 {
		s.order = s.merge(ends)
	}
}

// merge merges the sorted runs of order, run r ending at ends[r], into a new
// permutation: the smallest head first and, on a tie, the lowest run's — what
// a stable sort of the concatenated runs leaves.
func (s *sortIter) merge(ends []int) []int32 {
	heads := make([]int, len(ends))
	for r := 1; r < len(ends); r++ {
		heads[r] = ends[r-1]
	}
	out := s.ctx.mem.ints(len(s.order))
	for k := range out {
		best := -1
		for r, h := range heads {
			if h < ends[r] && (best < 0 || compareRows(s.rows.at(int(s.order[h])), s.rows.at(int(s.order[heads[best]])), s.key) < 0) {
				best = r
			}
		}
		out[k] = s.order[heads[best]]
		heads[best]++
	}
	return out
}

// firstMin returns the row a stable sort on the key would put first: the first
// of the smallest.
func (s *sortIter) firstMin() tuple {
	first := s.rows.at(int(s.order[0]))
	for _, i := range s.order[1:] {
		if t := s.rows.at(int(i)); compareRows(t, first, s.key) < 0 {
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
		s.ctx.release(len(s.order), s.heldBytes)
		s.order = nil
	}
}

// sortStableBy stable-sorts the ordinals of rows on the key columns. The sort
// kernel's pairs come from a pool, not from the request.
func sortStableBy(order []int32, rows *tupleBuf, key []colRef) {
	s := sortScratch.Get().(*catalog.SortScratch)
	catalog.SortStable(order, len(key),
		func(i *int32, c int) *catalog.Value { return key[c].of(rows.at(int(*i))) },
		func(a, b int32) int { return compareRows(rows.at(int(a)), rows.at(int(b)), key) }, s)
	sortScratch.Put(s)
}

// sortScratch holds the sort kernel's scratch between sorts.
var sortScratch = sync.Pool{New: func() any { return new(catalog.SortScratch) }}

// compareRows orders two rows on the key columns.
func compareRows(a, b tuple, key []colRef) int {
	for i := range key {
		if cmp := catalog.Compare(*key[i].of(a), *key[i].of(b)); cmp != 0 {
			return cmp
		}
	}
	return 0
}

// --- group-by ----------------------------------------------------------------

// groupByIter streams distinct group keys in first-seen order. Only the key
// set is retained (held in the intermediate accounting) — group rows
// themselves flow straight through. Over an exchange it reads the
// partition-ordered stream, less the rows whose group a worker's partition had
// already passed; it charges for those too (exchangeIter.dropped).
type groupByIter struct {
	ctx    *execContext
	node   *qgm.Node
	child  rowIter
	groups groupSet

	nIn, nOut       int
	heldBytes       int64
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
		if n, fresh := g.groups.add(t); fresh {
			g.ctx.hold(1, int64(n))
			g.heldBytes += int64(n)
			g.nOut++
			return t, true
		}
	}
}

func (g *groupByIter) finalize() {
	if g.charged {
		return
	}
	g.charged = true
	nIn := g.nIn
	if ex, ok := g.child.(*exchangeIter); ok {
		nIn += ex.dropped
	}
	g.ctx.charge(g.node, g.ctx.cost.PerRow(float64(nIn), catalog.GroupByRowCPU), g.nOut)
}

func (g *groupByIter) Close() {
	if g.closed {
		return
	}
	g.closed = true
	g.child.Close()
	g.finalize()
	g.ctx.release(g.nOut, g.heldBytes)
	g.groups.seen = nil
}

// groupSet is the set of groups a GRPBY has passed, each keyed by its key
// columns' values serialized.
type groupSet struct {
	key  []colRef
	seen map[string]struct{}
	kb   strings.Builder
}

func newGroupSet(key []colRef) groupSet {
	return groupSet{key: key, seen: make(map[string]struct{})}
}

// add reports whether the row's group is new to the set, and then the length
// of the key it keeps.
func (g *groupSet) add(t tuple) (int, bool) {
	g.kb.Reset()
	for i := range g.key {
		g.kb.WriteString(g.key[i].of(t).Key())
		g.kb.WriteByte('|')
	}
	k := g.kb.String()
	if _, dup := g.seen[k]; dup {
		return 0, false
	}
	g.seen[k] = struct{}{}
	return len(k), true
}
