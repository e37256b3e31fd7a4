package executor

import (
	"sync"
	"sync/atomic"

	"galo/internal/qgm"
	"galo/internal/storage"
)

// The exchange operator: intra-query parallelism on the rowIter contract.
//
// A qualifying pipeline segment — a TBSCAN/IXSCAN/FETCH leaf and the
// FILTER/HSJOIN spine above it — runs as one exchange: the scan's row (or
// index-entry) range is split into contiguous partitions, one worker goroutine
// drives each partition through a replica of the spine (probing shared hash
// builds drained once on the consumer thread), and the consumer fans the
// workers' output in. Partition-order delivery reproduces the serial row order
// exactly, the partitions being contiguous; a segment whose row order nothing
// observes uses unordered fan-in: the row multiset is deterministic, the
// interleaving is not.
//
// A segment right under a SORT or a GRPBY hands that operator partial results.
// Under a SORT each worker buffers its partition in a tupleBuf of its own and
// the sortIter takes the runs in place of a drain (sortIter.buffer); under a
// GRPBY each worker drops the rows whose group its partition has already
// passed, and the exchange counts them for the groupByIter. The serial
// operator alone sorts, merges, deduplicates, holds and charges.
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

// termKind says which serial operator, if any, takes a segment's partial
// results.
type termKind int

const (
	termNone  termKind = iota
	termSort           // the workers' runs (exchangeIter.runs)
	termGrpBy          // the stream, less the rows a worker's partition already grouped
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
	scan   *scanSource // the partitioned leaf access
	lead   spine       // over none of it: owns the builds, takes the folded counts
	term   termKind
	grpKey []colRef // termGrpBy: the GRPBY's key
	slots  slotList // of the spine's output
}

// openParallel tries to open node as an exchange segment: node itself, or,
// when node is a SORT or a GRPBY, the serial operator over a segment below it.
// ok=false means the shape does not qualify and the caller should build serial
// operators.
func (c *execContext) openParallel(node *qgm.Node) (rowIter, slotList, bool, error) {
	term, cur := termNone, node
	switch node.Op {
	case qgm.OpSORT:
		term, cur = termSort, node.Outer
	case qgm.OpGRPBY:
		term, cur = termGrpBy, node.Outer
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
	// result order nondeterministic for free): require a join, a SORT or a
	// GRPBY above, or an ordered scan worth preserving in parallel.
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
	seg := &segment{scan: sc, lead: lead, term: term, slots: lay}
	ex := &exchangeIter{
		ctx: c, seg: seg,
		// Partition-order delivery when the serial row order is observable:
		// an ordered scan, the GRPBY above (first-seen rows), or an operator
		// above that samples or buffers what arrives (openOrdered).
		// Everything else is unordered fan-in: in partition order the workers
		// of later partitions stall on a full channel while the consumer
		// drains the first (BenchmarkExecuteRootSegment: slower than serial).
		// A SORT's runs travel on no channel.
		ordered: sc.node.OrderedOn != "" || term == termGrpBy || c.orderObserved > 0,
	}
	switch term {
	case termSort:
		return c.sortOver(node, ex, lay), lay, true, nil
	case termGrpBy:
		g := c.groupByOver(node, ex, lay)
		seg.grpKey = g.groups.key
		return g, lay, true, nil
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

	// dropped is the rows the workers dropped as grouped (termGrpBy), folded
	// in with their counts.
	dropped int
	folded  bool

	finished, closed bool
}

// segWorker pulls a replica of the spine over one contiguous partition.
type segWorker struct {
	partition // mem is drawn from by this worker alone; released by the consumer
	ex        *exchangeIter
	ops       spine
	ch        chan []uint32 // ordered mode, except under a SORT

	batch []uint32 // the fan-in batch being filled
	spare []uint32 // what is left of the chunk batches are cut from

	// Read by the consumer only once the worker has exited (wg.Wait, or the
	// close of ch), as are the counts inside ops.
	run     tupleBuf // termSort: the partition's rows
	groups  groupSet // termGrpBy: the groups the partition has passed
	dropped int      // termGrpBy: the rows of groups already passed
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
	for i, p := range parts {
		w := &segWorker{ex: e, partition: partition{lo: p[0], hi: p[1], cancel: &e.cancelled, mem: e.ctx.newArena()}}
		w.ops = e.seg.lead.replica(&w.partition)
		if e.seg.term == termSort {
			w.run = newTupleBuf(w.mem, width)
		} else if e.ordered {
			w.ch = make(chan []uint32, exchangeChanDepth)
		}
		if e.seg.term == termGrpBy {
			w.groups = newGroupSet(e.seg.grpKey)
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
	row, ok := e.nextRaw()
	if !ok {
		e.finished = true
		e.finalizeCharges()
	}
	return row, ok
}

// runs starts a segment under a SORT in place of Next, waits for its workers
// and returns the rows each buffered, in partition order: none when a build
// side put the run over its budget before any worker started.
func (e *exchangeIter) runs() []tupleBuf {
	if e.start(); e.finished {
		return nil
	}
	e.wg.Wait()
	runs := make([]tupleBuf, len(e.workers))
	for i, w := range e.workers {
		runs[i] = w.run
	}
	return runs
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

// fold adds the workers' counts to the lead, in partition order: the sample a
// join keeps is then the serial first row. The workers have exited.
func (e *exchangeIter) fold() {
	if e.folded {
		return
	}
	e.folded = true
	for _, w := range e.workers {
		e.seg.lead.fold(w.ops)
		e.dropped += w.dropped
	}
}

// finalizeCharges fires at exhaustion: the lead bottom-up, the order a serial
// pipeline finalizes in as exhaustion travels up it.
func (e *exchangeIter) finalizeCharges() {
	e.fold()
	for _, op := range e.seg.lead {
		op.finalize()
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
	if ok && !w.cancel.Load() {
		w.flush()
	}
	if w.ch != nil {
		close(w.ch)
	}
}

// emit hands a spine-output row on: into the partition's run under a SORT,
// dropped under a GRPBY when the partition has passed its group, batched
// straight out otherwise.
func (w *segWorker) emit(row tuple) bool {
	switch w.ex.seg.term {
	case termSort:
		w.run.add(row)
		return true
	case termGrpBy:
		if _, fresh := w.groups.add(row); !fresh {
			w.dropped++
			return true
		}
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
