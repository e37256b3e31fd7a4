package executor

import (
	"slices"
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
// The cost-parity invariant survives at any worker count because workers only
// accumulate integer row counters; at exhaustion the consumer sums them and
// feeds the totals through the shared charge formulas (charges.go) in the
// exact order the serial pipeline fires them — build subtrees topmost-first,
// then the scan, then the spine bottom-up, then the terminal. One float
// evaluation per operator over identical integers ⇒ bit-identical ActMillis.
//
// Early Close propagates cancellation: workers observe a done channel on
// every send and a cancel flag every 1024 scan rows, the consumer waits for
// them to exit, then charges the partial counts — the same proportional
// charging a serial pipeline does when cut short.

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

type segLevelKind int

const (
	levelFilter segLevelKind = iota
	levelJoin
)

// segLevel is one spine operator every worker replicates.
type segLevel struct {
	kind segLevelKind
	node *qgm.Node

	// join levels only:
	probeKey, buildKey []colRef
	innerIter          rowIter // opened at plan time, drained in start()
	build              *hashBuild
	outer, inner       slotList // of this level's input and of its build side
}

type segment struct {
	scan     *scanSource // the partitioned leaf access
	levels   []*segLevel // bottom-up
	term     termKind
	termNode *qgm.Node
	sortKey  []colRef
	grpKey   []colRef
	slots    slotList // of the spine's output
}

// openParallel tries to open node as an exchange segment. ok=false means the
// shape does not qualify and the caller should build serial operators.
func (c *execContext) openParallel(node *qgm.Node) (rowIter, layout, bool, error) {
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
			return nil, layout{}, false, nil
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
			return nil, layout{}, false, nil
		}
	}
	// A bare unordered scan gains nothing from fan-in (and would make plain
	// result order nondeterministic for free): require a join, a terminal
	// breaker, or an ordered scan worth preserving in parallel.
	if nJoins == 0 && term == termNone && cur.OrderedOn == "" {
		return nil, layout{}, false, nil
	}
	sc, lay, err := c.resolveScan(cur)
	if err != nil {
		return nil, layout{}, false, err
	}
	if sc.hi-sc.lo < exchangeMinRows {
		return nil, layout{}, false, nil
	}

	seg := &segment{scan: sc, term: term, termNode: termNode}
	closeOpened := func() {
		for _, lv := range seg.levels {
			if lv.kind == levelJoin {
				lv.innerIter.Close()
			}
		}
	}
	for i := len(chain) - 1; i >= 0; i-- { // bottom-up
		n := chain[i]
		if n.Op == qgm.OpFILTER {
			seg.levels = append(seg.levels, &segLevel{kind: levelFilter, node: n})
			continue
		}
		// Build sides are drained serially on the consumer thread (start(),
		// topmost first — the serial nested-build order), so exchange never
		// nests into a build subtree and build insertion order stays
		// deterministic.
		innerIter, innerLay, err := c.openSerial(n.Inner)
		if err != nil {
			closeOpened()
			return nil, layout{}, false, err
		}
		key, _ := c.joinKeys(n, lay.cols, innerLay.cols)
		seg.levels = append(seg.levels, &segLevel{
			kind: levelJoin, node: n, innerIter: innerIter,
			probeKey: lay.refs(key.outerPos), buildKey: innerLay.refs(key.innerPos),
			outer: lay.slots, inner: innerLay.slots,
		})
		lay = lay.concat(innerLay)
	}
	seg.slots = lay.slots
	switch term {
	case termSort:
		seg.sortKey = lay.refs(c.sortKey(termNode, lay.cols))
	case termGrpBy:
		seg.grpKey = lay.refs(c.groupKey(lay.cols))
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

// openSerial opens a subtree with the exchange disabled (build sides must
// drain deterministically).
func (c *execContext) openSerial(n *qgm.Node) (rowIter, layout, error) {
	saved := c.workers
	c.workers = 1
	defer func() { c.workers = saved }()
	return c.open(n)
}

// levelTotals is one spine level's counters summed across workers.
type levelTotals struct {
	nIn, nOut int
	sample    tuple
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

	harvested  bool
	scanNScan  int
	scanNOut   int
	grpNIn     int
	lvTotals   []levelTotals
	upCharged  bool
	grpCharged bool

	finished, closed bool
}

// segWorker drives one contiguous partition through the spine.
type segWorker struct {
	ex     *exchangeIter
	id     int
	lo, hi int
	ch     chan []uint32 // ordered mode, except under a terminal SORT

	mem       *arena   // drawn from by this worker alone; released by the consumer
	batch     []uint32 // the fan-in batch being filled
	spare     []uint32 // what is left of the chunk batches are cut from
	kb        strings.Builder
	sortBuf   []tuple
	localSeen map[string]struct{}

	// Counters; read by the consumer only after wg.Wait (happens-before).
	scanNScan, scanNOut int
	grpNIn              int
	lv                  []workerLevelCounters
}

// workerLevelCounters is one worker's per-level bookkeeping.
type workerLevelCounters struct {
	nIn, nOut int
	sample    tuple
}

func (e *exchangeIter) start() {
	e.started = true
	exchangeSegments.Add(1)
	e.done = make(chan struct{})
	// Drain build sides on the consumer thread, topmost level first — the
	// exact order serial nested buildInner calls fire — so build-subtree
	// charges, insertion order and samples are identical to serial.
	for i := len(e.seg.levels) - 1; i >= 0; i-- {
		lv := e.seg.levels[i]
		if lv.kind != levelJoin {
			continue
		}
		lv.build = e.ctx.drainBuild(lv.innerIter, lv.probeKey, lv.buildKey, lv.inner, false)
		if e.ctx.overBudget() {
			// A build side put the run over its budget: no worker starts, and
			// Close charges what ran and closes the build subtrees not reached.
			e.finished = true
			return
		}
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
		w := &segWorker{ex: e, id: i, lo: p[0], hi: p[1], mem: e.ctx.newArena()}
		w.lv = make([]workerLevelCounters, len(e.seg.levels))
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
		row, ok := e.mergeNext()
		if !ok {
			e.finished = true
		}
		return row, ok
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
	e.harvest()
	e.chargeUpstream()
	// The serial pipeline releases its build sides when the sort closes its
	// drained child — before the sort buffer is held. Matching that chronology
	// keeps the peak-residency accounting identical to serial.
	for _, lv := range e.seg.levels {
		if lv.kind == levelJoin && lv.build != nil {
			lv.build.release(e.ctx)
			lv.build = nil
		}
	}
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
	if row, ok := e.peekMin(); ok {
		sample = row
	}
	width := e.seg.slots.rowWidth(sample)
	e.sortHeldRows = total
	e.sortHeldBytes = int64(width) * int64(total)
	e.ctx.hold(total, e.sortHeldBytes)
	e.ctx.charge(e.seg.termNode, e.ctx.sortMillis(float64(total), width), total)
}

// peekMin returns the smallest head row across partitions without consuming
// it (ties resolve to the lowest partition — the stable-merge rule).
func (e *exchangeIter) peekMin() (tuple, bool) {
	best := -1
	for i, b := range e.bufs {
		if e.heads[i] >= len(b) {
			continue
		}
		if best < 0 || compareRows(b[e.heads[i]], e.bufs[best][e.heads[best]], e.seg.sortKey) < 0 {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	return e.bufs[best][e.heads[best]], true
}

func (e *exchangeIter) mergeNext() (tuple, bool) {
	best := -1
	for i, b := range e.bufs {
		if e.heads[i] >= len(b) {
			continue
		}
		if best < 0 || compareRows(b[e.heads[i]], e.bufs[best][e.heads[best]], e.seg.sortKey) < 0 {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	row := e.bufs[best][e.heads[best]]
	e.heads[best]++
	return row, true
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

// harvest sums worker counters (workers have exited; partition order makes
// the sample picks deterministic).
func (e *exchangeIter) harvest() {
	if e.harvested {
		return
	}
	e.harvested = true
	e.lvTotals = make([]levelTotals, len(e.seg.levels))
	for _, w := range e.workers {
		e.scanNScan += w.scanNScan
		e.scanNOut += w.scanNOut
		e.grpNIn += w.grpNIn
		for li := range e.lvTotals {
			e.lvTotals[li].nIn += w.lv[li].nIn
			e.lvTotals[li].nOut += w.lv[li].nOut
			if e.lvTotals[li].sample == nil && w.lv[li].sample != nil {
				e.lvTotals[li].sample = w.lv[li].sample
			}
		}
	}
}

// chargeUpstream charges the scan and every spine level from the summed
// counters, in the serial pipeline's order: scan first (it exhausts first),
// then the spine bottom-up.
func (e *exchangeIter) chargeUpstream() {
	if e.upCharged {
		return
	}
	e.upCharged = true
	c := e.ctx
	sc := e.seg.scan
	if sc.node.Op == qgm.OpTBSCAN {
		c.chargeTBScan(sc.node, e.scanNScan, e.scanNOut, sc.tablePages, sc.tableRows)
	} else {
		c.chargeIXScan(sc.node, sc.idxDef, e.scanNScan, e.scanNOut, sc.tablePages, sc.tableRows, sc.rowsPerPage)
	}
	for li, lv := range e.seg.levels {
		t := e.lvTotals[li]
		if lv.kind == levelFilter {
			// Same charge the serial passIter(FILTER) computes.
			c.charge(lv.node, c.cost.PerRow(float64(t.nIn), catalog.FilterRowCPU), t.nIn)
			continue
		}
		innerRows, innerWidth := lv.build.actuals(lv.inner)
		c.chargeJoin(lv.node, joinActuals{
			outerRows: t.nIn, innerRows: innerRows, outRows: t.nOut,
			outerWidth: lv.outer.rowWidth(t.sample), innerWidth: innerWidth,
		})
	}
}

// finalizeCharges fires at exhaustion of the non-sort paths (the sort path
// charges in collectSorted): upstream first, then the terminal GRPBY —
// mirroring the serial order where the child pipeline finalizes inside the
// last groupByIter.Next.
func (e *exchangeIter) finalizeCharges() {
	e.harvest()
	e.chargeUpstream()
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
	// Close the build subtrees never drained — all of them when the exchange
	// never ran, those below an over-budget build otherwise — charging their
	// zero work, as a closed serial pipeline would.
	for _, lv := range e.seg.levels {
		if lv.kind == levelJoin && lv.build == nil {
			lv.innerIter.Close()
		}
	}
	e.finalizeCharges()
	for _, lv := range e.seg.levels {
		if lv.kind == levelJoin && lv.build != nil {
			lv.build.release(e.ctx)
			lv.build = nil
		}
	}
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
	ok := w.scanPartition()
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

// scanPartition drives the partition's rows through the spine; false when
// cancelled.
func (w *segWorker) scanPartition() bool {
	sc := w.ex.seg.scan
	for i := w.lo; i < w.hi; i++ {
		if i&1023 == 0 && w.ex.cancelled.Load() {
			return false
		}
		id := i
		if sc.entries != nil { // IXSCAN/FETCH: positions index the entry range
			id = sc.entries[i].RowID
		}
		w.scanNScan++
		if !sc.match(id) {
			continue
		}
		w.scanNOut++
		if !w.feed(0, sc.ids[id:id+1:id+1]) {
			return false
		}
	}
	return true
}

// feed pushes one row through spine level li and everything above it.
func (w *segWorker) feed(li int, row tuple) bool {
	levels := w.ex.seg.levels
	if li == len(levels) {
		return w.emit(row)
	}
	lv := levels[li]
	cnt := &w.lv[li]
	cnt.nIn++
	if cnt.sample == nil {
		cnt.sample = row
	}
	if lv.kind == levelFilter {
		cnt.nOut++
		return w.feed(li+1, row)
	}
	for i, h := lv.build.first(row); i >= 0; i = lv.build.after(i, h, row) {
		cnt.nOut++
		if !w.feed(li+1, w.mem.concat(row, lv.build.rows.at(int(i)))) {
			return false
		}
	}
	return true
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
	keyIdx := w.ex.seg.sortKey
	if len(keyIdx) == 0 {
		return
	}
	sortStableBy(w.sortBuf, keyIdx)
}

// sortStableBy stable-sorts rows on the key columns — the one comparison the
// serial sortIter, the materializing matSort and the exchange workers all
// share, so their orders agree row for row.
func sortStableBy(rows []tuple, key []colRef) {
	slices.SortStableFunc(rows, func(a, b tuple) int { return compareRows(a, b, key) })
}

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
