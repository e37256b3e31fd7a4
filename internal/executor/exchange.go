package executor

import (
	"strings"
	"sync"
	"sync/atomic"

	"galo/internal/catalog"
	"galo/internal/qgm"
	"galo/internal/storage"
)

// The exchange operator: intra-query parallelism on the rowIter contract.
//
// A qualifying pipeline segment — a TBSCAN/IXSCAN/FETCH leaf, the
// FILTER/HSJOIN spine above it, and an optional terminal SORT or GRPBY — runs
// as one exchange: the scan's row (or index-entry) range is split into
// contiguous partitions, one worker goroutine drives each partition through a
// replica of the spine (probing shared hash builds drained once on the
// consumer thread), and the consumer merges. Merging preserves the serial row
// order when it matters: partition-order concatenation reproduces an ordered
// scan exactly, worker-local sorts plus a stable lowest-partition-first merge
// reproduce the terminal SORT's sort.SliceStable output exactly, and
// partition-order global deduplication reproduces the terminal GRPBY's
// first-seen rows exactly. Segments with neither an order property nor a
// terminal breaker use unordered fan-in: the row multiset is deterministic,
// the interleaving is not.
//
// The exchange is a partitioner and a merger, nothing else: the operators a
// worker runs are replicas (spineIter) of the serial iterators, which count
// rows and charge nothing. The segment keeps one more copy of the spine, the
// lead, which never runs: its joins own the build sides, and once the workers
// have exited their counts are folded into it in partition order and it is
// finalized and closed as a serial pipeline is — the scan, then the spine
// bottom-up. One float evaluation per operator over identical integers, in
// the serial order ⇒ bit-identical ActMillis at any worker count.
//
// Early Close propagates cancellation: workers observe a done channel on
// every send and their scan a cancel flag every 1024 positions, the consumer
// waits for them to exit, then folds and charges the partial counts — the
// same proportional charging a serial pipeline does when cut short.

const (
	// exchangeMinRows is the smallest partition source worth parallelizing.
	exchangeMinRows = 2048
	// exchangeBatchRows is the fan-in granularity; row-at-a-time channel
	// sends would drown the speedup in synchronization. A batch is cut from
	// one arena chunk, so tuples of more than idChunkLen/256 slots travel in
	// smaller ones.
	exchangeBatchRows = 256
	// exchangeChanDepth bounds the batches buffered per partition stream, so
	// a fast worker cannot run unboundedly ahead of the consumer.
	exchangeChanDepth = 8
)

// exchangeWorkers counts live exchange worker goroutines process-wide; tests
// assert it returns to zero after early Close. exchangeSegments counts
// segments that actually started (parallelism engaged, not just requested).
var (
	exchangeWorkers  atomic.Int64
	exchangeSegments atomic.Int64
)

// ExchangeWorkerCount reports the number of currently running exchange
// worker goroutines (test and /stats instrumentation).
func ExchangeWorkerCount() int64 { return exchangeWorkers.Load() }

// ExchangeSegmentCount reports the cumulative number of exchange segments
// started process-wide (test and /stats instrumentation).
func ExchangeSegmentCount() int64 { return exchangeSegments.Load() }

type termKind int

const (
	termNone termKind = iota
	termSort
	termGrpBy
)

// partition is what tells one replica of a spine from another: the scan's
// candidate positions, the flag that stops it, and the arena its joins carve
// their output from.
type partition struct {
	lo, hi int
	cancel *atomic.Bool
	mem    *arena
}

// spine is one copy of a segment's streaming operators, bottom-up: the leaf
// scan, then the FILTERs and HSJOINs above it.
type spine []spineIter

func (s spine) root() spineIter { return s[len(s)-1] }

func (s spine) replica(p *partition) spine {
	r := make(spine, len(s))
	var child rowIter
	for i, op := range s {
		r[i] = op.replica(child, p)
		child = r[i]
	}
	return r
}

// drainBuilds drains the lead's build sides on the calling goroutine, the
// consumer's, topmost first — the exact order serial nested buildInner calls
// fire — so build-subtree charges, insertion order and samples are identical
// to serial. A lead always builds: its replicas probe the build concurrently.
// It stops, and reports false, at a build that puts the run over its budget.
func (s spine) drainBuilds(c *execContext) bool {
	for i := len(s) - 1; i > 0; i-- {
		if j, ok := s[i].(*joinIter); ok {
			if j.buildInner(nil, false); c.overBudget() {
				return false
			}
		}
	}
	return true
}

func (s spine) fold(r spine) {
	for i, op := range s {
		op.fold(r[i])
	}
}

type segment struct {
	scan     *scanSource // the partitioned leaf access
	lead     spine       // over none of it: owns the builds, takes the folded counts
	term     termKind
	termNode *qgm.Node
	sortKey  []colRef
	grpKey   []colRef
	slots    slotList // of the spine's output
}

// openParallel tries to open node as an exchange segment. ok=false means the
// shape does not qualify and the caller should build serial operators.
func (c *execContext) openParallel(node *qgm.Node) (rowIter, slotList, bool, error) {
	term, termNode, cur := termNone, (*qgm.Node)(nil), node
	switch node.Op {
	case qgm.OpSORT:
		term, termNode, cur = termSort, node, node.Outer
	case qgm.OpGRPBY:
		term, termNode, cur = termGrpBy, node, node.Outer
	}
	var chain []*qgm.Node // top-down spine
	nJoins := 0
walk:
	for {
		if cur == nil {
			return nil, nil, false, nil
		}
		switch cur.Op {
		case qgm.OpFILTER:
			chain = append(chain, cur)
			cur = cur.Outer
		case qgm.OpHSJOIN:
			chain = append(chain, cur)
			nJoins++
			cur = cur.Outer
		case qgm.OpTBSCAN, qgm.OpIXSCAN, qgm.OpFETCH:
			break walk
		default:
			// NLJOIN/MSJOIN (and anything else) break the segment; their
			// subtrees get their own qualification attempts.
			return nil, nil, false, nil
		}
	}
	// A bare unordered scan gains nothing from fan-in (and would make plain
	// result order nondeterministic for free): require a join, a terminal
	// breaker, or an ordered scan worth preserving in parallel.
	if nJoins == 0 && term == termNone && cur.OrderedOn == "" {
		return nil, nil, false, nil
	}
	sc, lay, err := c.resolveScan(cur)
	if err != nil {
		return nil, nil, false, err
	}
	if sc.hi-sc.lo < exchangeMinRows {
		return nil, nil, false, nil
	}

	lead, lay, err := c.openLead(sc, lay, chain)
	if err != nil {
		return nil, nil, false, err
	}
	seg := &segment{scan: sc, lead: lead, term: term, termNode: termNode, slots: lay}
	switch term {
	case termSort:
		seg.sortKey = c.sortKey(termNode, lay)
	case termGrpBy:
		seg.grpKey = lay.refs(c.prep.groupBy)
	}
	ex := &exchangeIter{
		ctx: c, seg: seg,
		// Partition-order delivery when the serial row order is observable:
		// an ordered scan, a terminal breaker whose exact output we
		// reproduce, or an operator above that samples or buffers what
		// arrives (openOrdered). Everything else is unordered fan-in: in
		// partition order the workers of later partitions stall on a full
		// channel while the consumer drains the first
		// (BenchmarkExecuteRootSegment: slower than serial).
		ordered: sc.node.OrderedOn != "" || term != termNone || c.orderObserved > 0,
	}
	return ex, lay, true, nil
}

// openLead builds a segment's lead over a resolved scan: the spine (top-down
// in chain) over none of the scan's range. Build sides open, and are drained,
// serially on the consumer goroutine: an exchange never nests into a build
// subtree and build insertion order stays deterministic.
func (c *execContext) openLead(sc *scanSource, lay slotList, chain []*qgm.Node) (spine, slotList, error) {
	lead := spine{c.scanOver(sc, sc.hi, sc.hi)}
	for i := len(chain) - 1; i >= 0; i-- {
		n, child := chain[i], lead.root()
		var op spineIter
		var err error
		if n.Op == qgm.OpFILTER {
			op = c.filterOver(n, child)
		} else if op, lay, err = c.joinOver(n, child, lay, c.openSerial); err != nil {
			return nil, nil, err
		}
		lead = append(lead, op)
	}
	return lead, lay, nil
}

// openSerial opens a subtree with the exchange disabled (build sides must
// drain deterministically).
func (c *execContext) openSerial(n *qgm.Node) (rowIter, slotList, error) {
	saved := c.workers
	c.workers = 1
	defer func() { c.workers = saved }()
	return c.open(n)
}

// exchangeIter is the consumer side of the exchange.
type exchangeIter struct {
	ctx     *execContext
	seg     *segment
	ordered bool

	started   bool
	cancelled atomic.Bool
	done      chan struct{}
	wg        sync.WaitGroup
	workers   []*segWorker
	fanin     chan []uint32 // unordered mode

	// A batch is the IDs of up to exchangeBatchRows spine-output tuples, side
	// by side.
	batchIDs int      // the capacity batches are cut to
	batch    []uint32 // the batch being served, from bi on
	bi       int
	part     int // next partition stream to drain (ordered mode)

	// terminal SORT merge state
	merged        bool
	bufs          [][]tuple
	heads         []int
	sortHeldRows  int
	sortHeldBytes int64

	// terminal GRPBY state
	seen         map[string]struct{}
	keyB         strings.Builder
	grpOut       int
	grpHeldBytes int64

	folded     bool
	grpNIn     int
	grpCharged bool

	finished, closed bool
}

// segWorker pulls a replica of the spine over one contiguous partition.
type segWorker struct {
	partition // mem is drawn from by this worker alone; released by the consumer
	ex        *exchangeIter
	ops       spine
	ch        chan []uint32 // ordered mode, except under a terminal SORT

	batch     []uint32 // the fan-in batch being filled
	spare     []uint32 // what is left of the chunk batches are cut from
	kb        strings.Builder
	sortBuf   []tuple
	localSeen map[string]struct{}

	// Read by the consumer only after wg.Wait (happens-before), as are the
	// counts inside ops.
	grpNIn int
}

func (e *exchangeIter) start() {
	e.started = true
	exchangeSegments.Add(1)
	e.done = make(chan struct{})
	if !e.seg.lead.drainBuilds(e.ctx) {
		// A build side put the run over its budget: no worker starts, and
		// Close charges what ran and closes the build subtrees not reached.
		e.finished = true
		return
	}
	parts := storage.SplitRange(e.seg.scan.lo, e.seg.scan.hi, e.ctx.workers)
	e.workers = make([]*segWorker, len(parts))
	width := len(e.seg.slots)
	e.batchIDs = min(exchangeBatchRows, idChunkLen/width) * width
	if !e.ordered {
		e.fanin = make(chan []uint32, exchangeChanDepth*len(parts))
	}
	if e.seg.term == termGrpBy {
		e.seen = make(map[string]struct{})
	}
	for i, p := range parts {
		w := &segWorker{ex: e, partition: partition{lo: p[0], hi: p[1], cancel: &e.cancelled, mem: e.ctx.newArena()}}
		w.ops = e.seg.lead.replica(&w.partition)
		if e.ordered && e.seg.term != termSort {
			w.ch = make(chan []uint32, exchangeChanDepth)
		}
		if e.seg.term == termGrpBy {
			w.localSeen = make(map[string]struct{})
		}
		e.workers[i] = w
	}
	for _, w := range e.workers {
		e.wg.Add(1)
		go w.main()
	}
	if !e.ordered {
		go func() {
			e.wg.Wait()
			close(e.fanin)
		}()
	}
}

func (e *exchangeIter) Next() (tuple, bool) {
	if e.finished {
		return nil, false
	}
	if !e.started {
		if e.start(); e.finished {
			return nil, false
		}
	}
	switch e.seg.term {
	case termSort:
		if !e.merged {
			e.collectSorted()
		}
		i := e.minHead()
		if i < 0 {
			e.finished = true
			return nil, false
		}
		row := e.bufs[i][e.heads[i]]
		e.heads[i]++
		return row, true
	case termGrpBy:
		for {
			row, ok := e.nextRaw()
			if !ok {
				e.finished = true
				e.finalizeCharges()
				return nil, false
			}
			k := groupKeyOf(row, e.seg.grpKey, &e.keyB)
			if _, dup := e.seen[k]; dup {
				continue
			}
			e.seen[k] = struct{}{}
			e.ctx.hold(1, int64(len(k)))
			e.grpHeldBytes += int64(len(k))
			e.grpOut++
			return row, true
		}
	default:
		row, ok := e.nextRaw()
		if !ok {
			e.finished = true
			e.finalizeCharges()
		}
		return row, ok
	}
}

// nextRaw serves the next merged spine-output row: partition streams drained
// in order (ordered mode) or the shared fan-in channel (unordered).
func (e *exchangeIter) nextRaw() (tuple, bool) {
	for {
		if e.bi < len(e.batch) {
			end := e.bi + len(e.seg.slots)
			row := e.batch[e.bi:end:end]
			e.bi = end
			return row, true
		}
		if e.ordered {
			if e.part >= len(e.workers) {
				return nil, false
			}
			batch, ok := <-e.workers[e.part].ch
			if !ok {
				e.part++
				continue
			}
			e.batch, e.bi = batch, 0
		} else {
			batch, ok := <-e.fanin
			if !ok {
				return nil, false
			}
			e.batch, e.bi = batch, 0
		}
	}
}

// collectSorted gathers every worker's locally sorted buffer, charges the
// whole segment (the serial sortIter charges at buffer time, before any row
// streams out), and arms the merge.
func (e *exchangeIter) collectSorted() {
	e.merged = true
	e.wg.Wait()
	e.bufs = make([][]tuple, len(e.workers))
	for i, w := range e.workers {
		e.bufs[i] = w.sortBuf
	}
	// The serial sort closes its drained child — charging it and releasing its
	// build sides — before the sort buffer is held. Matching that chronology
	// keeps the peak-residency accounting identical to serial.
	e.fold()
	e.seg.lead.root().Close()
	if e.ctx.overBudget() {
		// The segment alone cost more than the run may: no merge.
		e.bufs = nil
		return
	}
	e.heads = make([]int, len(e.bufs))
	total := 0
	for _, b := range e.bufs {
		total += len(b)
	}
	// The serial sort samples its first post-sort row for the width — the
	// global minimum, which the merge's first pick reproduces exactly.
	var sample tuple
	if i := e.minHead(); i >= 0 {
		sample = e.bufs[i][e.heads[i]]
	}
	width := e.seg.slots.rowWidth(sample)
	e.sortHeldRows = total
	e.sortHeldBytes = int64(width) * int64(total)
	e.ctx.hold(total, e.sortHeldBytes)
	e.ctx.charge(e.seg.termNode, e.ctx.sortMillis(float64(total), width), total)
}

// minHead returns the partition whose head row is the smallest, or -1 once
// every partition is drained (ties resolve to the lowest partition — the
// stable-merge rule).
func (e *exchangeIter) minHead() int {
	best := -1
	for i, b := range e.bufs {
		if e.heads[i] >= len(b) {
			continue
		}
		if best < 0 || compareRows(b[e.heads[i]], e.bufs[best][e.heads[best]], e.seg.sortKey) < 0 {
			best = i
		}
	}
	return best
}

// compareRows orders two rows on the sort key columns. The merge takes a
// later partition's row only when it is strictly smaller, so an ascending
// partition sweep keeps the stable (lowest-partition-first) order — exactly a
// stable sort over the concatenated partitions.
func compareRows(a, b tuple, key []colRef) int {
	for i := range key {
		if cmp := catalog.Compare(*key[i].of(a), *key[i].of(b)); cmp != 0 {
			return cmp
		}
	}
	return 0
}

// fold adds the workers' counts to the lead, in partition order: the sample a
// join keeps is then the serial first row. The workers have exited.
func (e *exchangeIter) fold() {
	if e.folded {
		return
	}
	e.folded = true
	for _, w := range e.workers {
		e.seg.lead.fold(w.ops)
		e.grpNIn += w.grpNIn
	}
}

// finalizeCharges fires at exhaustion of the non-sort paths (the sort path
// charges in collectSorted): the lead bottom-up — the order a serial pipeline
// finalizes in as exhaustion travels up it — then the terminal GRPBY,
// mirroring the serial order where the child pipeline finalizes inside the
// last groupByIter.Next.
func (e *exchangeIter) finalizeCharges() {
	e.fold()
	for _, op := range e.seg.lead {
		op.finalize()
	}
	if e.seg.term == termGrpBy && !e.grpCharged {
		e.grpCharged = true
		e.ctx.charge(e.seg.termNode, e.ctx.cost.PerRow(float64(e.grpNIn), catalog.GroupByRowCPU), e.grpOut)
	}
}

func (e *exchangeIter) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.finished = true
	if e.started {
		e.cancelled.Store(true)
		close(e.done)
		e.wg.Wait()
	}
	// Closing the lead charges what is not yet charged and closes the build
	// subtrees never drained — all of them when the exchange never ran, those
	// below an over-budget build otherwise — in the order a serial pipeline's
	// Close does, and releases the builds that were.
	e.fold()
	e.seg.lead.root().Close()
	e.finalizeCharges()
	if e.merged {
		e.ctx.release(e.sortHeldRows, e.sortHeldBytes)
		e.bufs = nil
	}
	if e.grpHeldBytes > 0 || e.grpOut > 0 {
		e.ctx.release(e.grpOut, e.grpHeldBytes)
		e.seen = nil
	}
}

// --- worker side -------------------------------------------------------------

func (w *segWorker) main() {
	exchangeWorkers.Add(1)
	// Deferred calls run LIFO: the counter must hit zero before wg.Done
	// releases a Close() waiting on the group, so tests observing
	// ExchangeWorkerCount()==0 after Close are exact, not eventual.
	defer w.ex.wg.Done()
	defer exchangeWorkers.Add(-1)
	// A cancelled scan reads as exhausted: what tells is the flag.
	root, ok := w.ops.root(), true
	for ok {
		row, more := root.Next()
		if !more {
			break
		}
		ok = w.emit(row)
	}
	ok = ok && !w.cancel.Load()
	if w.ex.seg.term == termSort {
		// The consumer reads sortBuf once every worker has exited.
		if ok {
			w.sortLocal()
		}
		return
	}
	if ok {
		w.flush()
	}
	if w.ex.ordered {
		close(w.ch)
	}
}

// emit hands a spine-output row to the terminal: buffered for the local
// sort, locally deduplicated for GRPBY (the consumer dedupes globally), or
// batched straight out.
func (w *segWorker) emit(row tuple) bool {
	switch w.ex.seg.term {
	case termSort:
		w.sortBuf = append(w.sortBuf, row)
		return true
	case termGrpBy:
		w.grpNIn++
		k := groupKeyOf(row, w.ex.seg.grpKey, &w.kb)
		if _, dup := w.localSeen[k]; dup {
			return true
		}
		w.localSeen[k] = struct{}{}
	}
	if w.batch == nil {
		n := w.ex.batchIDs
		if len(w.spare) < n {
			w.spare = w.mem.chunk()[:]
		}
		w.batch, w.spare = w.spare[:0:n], w.spare[n:]
	}
	w.batch = append(w.batch, row...)
	if len(w.batch) == cap(w.batch) {
		return w.flush()
	}
	return true
}

func (w *segWorker) flush() bool {
	if len(w.batch) == 0 {
		return true
	}
	batch := w.batch
	w.batch = nil
	out := w.ch
	if !w.ex.ordered {
		out = w.ex.fanin
	}
	select {
	case out <- batch:
		return true
	case <-w.ex.done:
		return false
	}
}

// sortLocal stable-sorts the partition buffer; partition-local stable order
// plus the stable merge equals the serial global stable sort.
func (w *segWorker) sortLocal() {
	if key := w.ex.seg.sortKey; len(key) > 0 {
		sortStableBy(w.sortBuf, key, func(t tuple) tuple { return t })
	}
}

// sortStableBy stable-sorts xs, each standing for the tuple row(x), on the key
// columns — the one comparison the serial sortIter (over buffer ordinals) and
// the exchange workers (over tuples) share, so their orders agree row for row.
// The sort kernel's pairs come from a pool, not from the request.
func sortStableBy[T any](xs []T, key []colRef, row func(T) tuple) {
	s := sortScratch.Get().(*catalog.SortScratch)
	catalog.SortStable(xs, len(key),
		func(x *T, c int) *catalog.Value { return key[c].of(row(*x)) },
		func(a, b T) int { return compareRows(row(a), row(b), key) }, s)
	sortScratch.Put(s)
}

// sortScratch holds the sort kernel's scratch between sorts.
var sortScratch = sync.Pool{New: func() any { return new(catalog.SortScratch) }}

// groupKeyOf serializes the group-by key columns (shared between workers'
// local dedupe and the consumer's global dedupe — the key strings must be
// identical).
func groupKeyOf(row tuple, key []colRef, kb *strings.Builder) string {
	kb.Reset()
	for i := range key {
		kb.WriteString(key[i].of(row).Key())
		kb.WriteByte('|')
	}
	return kb.String()
}
