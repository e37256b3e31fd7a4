package executor

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"galo/internal/catalog"
	"galo/internal/qgm"
	"galo/internal/storage"
)

// openJoin builds the streaming join iterator. All join operators compute
// result rows with a hash-based algorithm for speed; the simulated time is
// charged according to the operator's own execution characteristics over the
// row counts actually processed. The inner (build) side is the only buffered
// input — the outer streams through.
func (c *execContext) openJoin(node *qgm.Node) (rowIter, slotList, error) {
	switch node.Op {
	case qgm.OpHSJOIN, qgm.OpNLJOIN, qgm.OpMSJOIN:
	default:
		return nil, nil, fmt.Errorf("executor: unsupported join %s", node.Op)
	}
	openOuter := c.open
	if node.Op == qgm.OpHSJOIN {
		openOuter = c.openOrdered
	}
	outer, outerLay, err := openOuter(node.Outer)
	if err != nil {
		return nil, nil, err
	}
	return c.joinOver(node, outer, outerLay, c.openOrdered)
}

// joinOver opens the join's inner side and returns the join iterator over an
// outer already open, which it closes when the inner fails to.
func (c *execContext) joinOver(node *qgm.Node, outer rowIter, outerLay slotList, openInner func(*qgm.Node) (rowIter, slotList, error)) (spineIter, slotList, error) {
	inner, innerLay, err := openInner(node.Inner)
	if err != nil {
		outer.Close()
		return nil, nil, err
	}
	probe, build := c.prep.joinKeys(outerLay, innerLay)
	return &joinIter{
		ctx: c, node: node, outer: outer, inner: inner, mem: c.mem,
		probe: probe, build: build, outerSlots: outerLay, innerSlots: innerLay,
	}, outerLay.concat(innerLay), nil
}

// joinIter is a half pipeline breaker: the first Next drains the inner child
// into the build side (held in the intermediate accounting), then streams the
// outer, emitting matches in build-insertion order. An output tuple is the
// outer's row IDs followed by the inner's; no column value is copied.
type joinIter struct {
	ctx          *execContext
	node         *qgm.Node
	outer        rowIter
	inner        rowIter
	mem          *arena   // where output tuples are carved: that of the goroutine pulling
	probe, build []colRef // the equi-join key columns on either side

	outerSlots, innerSlots slotList

	built bool
	done  bool // advance has returned false: every later call does too, doing nothing
	hb    *hashBuild
	ix    *indexProbe // answers the probes instead of hb until the switch (indexprobe.go)

	// MSJOIN early-out bookkeeping (the Figure 8 rescue): count how many
	// outer rows a merge join would have read before passing the largest
	// inner key.
	trackEarlyOut bool
	nProcessed    int

	cur    tuple  // the outer tuple being probed
	word   uint64 // its key word
	mi     int32  // next matching build ordinal, -1 when cur is spent
	hit    int32  // advance's last match: build ordinal, or -1 for index row hitRow
	hitRow uint32

	outerSample     tuple
	nOuterRows      int
	nOut            int
	charged, closed bool
}

func (j *joinIter) Next() (tuple, bool) {
	if !j.advance() {
		return nil, false
	}
	return j.mem.concat(j.cur, j.matched()), true
}

// nextID is Next handing up only slot s of the output tuple, unbuilt.
func (j *joinIter) nextID(s int32) (uint32, bool) {
	if !j.advance() {
		return 0, false
	}
	if n := int32(len(j.cur)); s >= n {
		return j.matched()[s-n], true
	}
	return j.cur[s], true
}

// matched returns the inner tuple of the match advance found last.
func (j *joinIter) matched() tuple {
	if j.hit >= 0 {
		return j.hb.rows.at(int(j.hit))
	}
	return j.ix.src.ids[j.hitRow : j.hitRow+1 : j.hitRow+1]
}

// advance finds the next match and counts it: the output tuple is cur‖matched().
func (j *joinIter) advance() bool {
	if j.done {
		return false
	}
	if !j.built {
		j.buildInner(j.indexProbe(), false)
		if j.ctx.overBudget() {
			// The build side alone cost more than the run may: no probe.
			j.done = true
			j.finalize()
			return false
		}
	}
	for {
		if i := j.mi; i >= 0 {
			j.mi = j.hb.after(i, j.word, j.cur)
			j.nOut++
			j.hit = i
			return true
		}
		if j.ix != nil {
			if id := j.ix.next(); id >= 0 {
				j.nOut++
				j.hit, j.hitRow = -1, uint32(id)
				return true
			}
		}
		orow, ok := j.outer.Next()
		if !ok {
			j.done = true
			j.finalize()
			return false
		}
		j.nOuterRows++
		if j.outerSample == nil {
			j.outerSample = orow
		}
		if j.trackEarlyOut && j.hb.withinMax(orow) {
			j.nProcessed++
		}
		j.cur = orow
		if j.ix != nil {
			if j.nOuterRows <= j.ix.limit {
				j.ix.seek(j.hb.probeWord(orow))
				continue
			}
			j.ix.fill(j.hb, j.ctx.workers)
			j.ix = nil
		}
		j.mi, j.word = j.hb.first(orow)
	}
}

// countable reports whether count can stand in for draining the join: one key
// column with a key-word vector on either side, so a match is an equal word,
// and an inner that is drained — one counted from its index is left to Next.
func (j *joinIter) countable() bool {
	if len(j.build) != 1 || j.probe[0].keyWords() == nil || j.build[0].keyWords() == nil {
		return false
	}
	s, idx := j.keyOrderedIndex()
	return idx == nil || len(s.preds) > 0
}

// count drains the join for the rows it would emit (countRows): the inner as
// buildInner drains a build and the outer likewise, keeping key words alone,
// and the output is the pairs of equal words. Every count and sample the join
// is charged from is the emitting path's.
func (j *joinIter) count() int {
	if j.buildInner(nil, true); !j.ctx.overBudget() {
		b := j.hb
		j.outerSample, j.nOuterRows = b.fileKeys(j.outer, j.probe[0].slot, b.probeWords)
		if j.trackEarlyOut { // raiseMax and withinMax, by word
			for _, w := range b.words[:b.n] {
				if catalog.KeyWordAbove(w, b.maxWord) {
					b.maxWord = w
				}
			}
			for _, w := range b.words[b.n:] {
				if !catalog.KeyWordAbove(w, b.maxWord) {
					j.nProcessed++
				}
			}
		}
		j.nOut = b.pairs(b.n)
	}
	j.finalize()
	return j.nOut
}

// fileKeys drains an input for its rows' key words — words by the row ID in
// slot, appended to b.words — and returns its first tuple and its row count.
func (b *hashBuild) fileKeys(it rowIter, slot int32, words []uint64) (first tuple, n int) {
	first, ok := it.Next()
	var id uint32
	if ok {
		id = first[slot]
	}
	for ; ok; id, ok = nextID(it, slot) {
		b.words = append(b.words, words[id])
		n++
	}
	return first, n
}

// buildInner drains the inner child and, unless ix answers the probes from the
// stored index, buffers the rows as the build side and indexes them by join
// key. An inner ix answers whose scan has no predicate is not drained but
// counted from the index (indexProbe.count), to the same counts, sample and
// bound. A counting join (count) keeps only the drained rows' key words. Either
// way the inner's rows are held in the intermediate accounting until Close:
// the peaks count the plan's build side. It runs on the goroutine driving the
// cursor, in whose arena the build lives (an exchange's lead is built there
// too, never with ix). For an early-out MSJOIN the same pass records the
// largest value of the first key column.
func (j *joinIter) buildInner(ix *indexProbe, counting bool) {
	j.built = true
	j.mi = -1
	wantMax := j.node.Op == qgm.OpMSJOIN && j.node.EarlyOut && len(j.probe) > 0
	b, inner := newHashBuild(j.mem, j.probe, j.build, len(j.innerSlots)), j.inner
	var sample tuple // the first row: the serial spill-formula sample
	switch {
	case ix != nil && len(ix.src.preds) == 0:
		sample = ix.count(b, wantMax) // leaves the scan spent: nothing to drain
	case counting: // count bounds the early-out
		sample, b.n = b.fileKeys(inner, b.build[0].slot, b.buildWords)
	default:
		for t, ok := inner.Next(); ok; t, ok = inner.Next() {
			if b.n == 0 {
				sample = t
			}
			b.n++
			if wantMax {
				b.raiseMax(t)
			}
			if ix == nil {
				b.add(t)
			}
		}
	}
	inner.Close()
	if wantMax && b.n > 0 {
		b.settleMax()
	}
	b.width = j.innerSlots.rowWidth(sample)
	b.heldBytes = int64(b.width) * int64(b.n)
	switch {
	case j.ctx.overBudget() || counting: // an over-budget build is never probed
	case ix != nil && b.n > 0:
		ix.limit = b.n / (2 * bits.Len(uint(ix.hi-ix.lo+1)))
		j.ix = ix
		indexAnswered.Add(1)
	default:
		b.index(j.ctx.workers)
	}
	j.ctx.hold(b.n, b.heldBytes)
	j.hb, j.trackEarlyOut = b, wantMax && b.n > 0
}

// parallelBuildMinRows is the smallest build side worth hash-partitioning
// across workers; below it the fan-out costs more than it saves.
const parallelBuildMinRows = 4096

// hashBuild is a hash-join build side: the buffered inner tuples plus one
// chained index over their ordinals, both living in the consumer's arena
// until the cursor is finished. heads maps a bucket to the first ordinal in it
// and next links each ordinal to the following one of its bucket, always
// ascending — so a probe walks its matches in drain order, the emission order
// every charge and golden result depends on. words holds one word per ordinal,
// filed as the row is drained, and buckets come from a mix of it.
//
// When the key is a single column and no string has been drained in it, the
// index is exact: the word is the key itself (catalog.Value.KeyWord — the
// float reading KeyEqual compares, as bits) and equal words are a match,
// decided without touching the build row. The word comes from the column's
// key-word vector (probeWords, buildWords), by row ID — neither side's row is
// touched for its key — and from the value only where there is no vector (a
// string elsewhere in the column, or in the probe's). Otherwise — several key columns, or a string
// drained in the build column — the word is a hash of the key
// (catalog.Value.KeyHash) and a match is confirmed through the rows with
// catalog.KeyEqual. Either way nothing is copied, serialized or allocated per
// key. With no key columns there is no index and every build row matches (a
// cartesian product).
type hashBuild struct {
	probe, build []colRef
	// The key-word vectors of a single-column key's two columns; nil for a
	// wider key, which is hashed through the rows and has no use for them.
	probeWords, buildWords []uint64

	rows      tupleBuf
	n         int // the inner rows drained: rows.n, unless an index answers the probes
	width     int // the logical row width sampled from the first drained row
	heldBytes int64

	// The MSJOIN early-out bound: the largest value of the first build key
	// column, as catalog.Compare orders them, first met winning ties. Over a
	// key-word vector it is kept as a word and the tuple it came from — an
	// index-ordered inner raises it on every row, and none of them is touched
	// for it (a counted one sets it once, indexProbe.count); maxKey is then
	// read once, when the drain ends. The tuple, not a build ordinal: with an
	// index answering the probes nothing is buffered.
	// Either way maxWord ends up the word of maxKey, if it has one.
	maxKey   catalog.Value
	maxWord  uint64
	maxTuple tuple

	exact       bool
	*buildIndex      // words, heads, next; nil without key columns
	shift       uint // 64 - log2(len(heads))
}

func newHashBuild(mem *arena, probe, build []colRef, slots int) *hashBuild {
	b := &hashBuild{probe: probe, build: build, rows: newTupleBuf(mem, slots), maxWord: catalog.KeyWordNull}
	if len(build) > 0 {
		b.buildIndex, b.exact = mem.index(), len(build) == 1
		b.words = b.words[:0]
	}
	if len(build) == 1 {
		b.probeWords, b.buildWords = probe[0].keyWords(), build[0].keyWords()
	}
	return b
}

// add buffers one build tuple and files its key word. The first string met in
// the key column of an exact index ends exactness: the words filed so far are
// replaced by hashes.
func (b *hashBuild) add(t tuple) {
	b.rows.add(t)
	if len(b.build) == 0 {
		return
	}
	var w uint64
	if k := &b.build[0]; b.exact && b.buildWords != nil {
		w = b.buildWords[t[k.slot]]
	} else if b.exact {
		if w, b.exact = k.of(t).KeyWord(); !b.exact {
			for i := range b.words {
				b.words[i] = keyHash(b.rows.at(i), b.build)
			}
		}
	}
	if !b.exact {
		w = keyHash(t, b.build)
	}
	b.words = append(b.words, w)
}

// raiseMax raises the early-out bound to the tuple's key if that is larger.
func (b *hashBuild) raiseMax(t tuple) {
	k := &b.build[0]
	if b.buildWords == nil {
		if v := k.of(t); b.maxKey.IsNull() || catalog.Compare(*v, b.maxKey) > 0 {
			b.maxKey = *v
		}
	} else if w := b.buildWords[t[k.slot]]; catalog.KeyWordAbove(w, b.maxWord) {
		b.maxWord, b.maxTuple = w, t
	}
}

// settleMax completes the bound once the drain has ended: the value behind
// the word, or the word of the value. No tuple stands behind a NULL bound.
func (b *hashBuild) settleMax() {
	if b.maxTuple != nil {
		b.maxKey = *b.build[0].of(b.maxTuple)
	}
	b.maxWord, _ = b.maxKey.KeyWord()
}

// withinMax reports whether the probe tuple's key is no larger than the bound
// (catalog.Compare <= 0), by words when both sides have one.
func (b *hashBuild) withinMax(t tuple) bool {
	p := &b.probe[0]
	if b.probeWords != nil && b.maxKey.K != catalog.KindString {
		return !catalog.KeyWordAbove(b.probeWords[t[p.slot]], b.maxWord)
	}
	return catalog.Compare(*p.of(t), b.maxKey) <= 0
}

// nullKeyWord is the word of a key holding a NULL, which joins nothing.
const nullKeyWord = catalog.KeyWordNull

// keyHash is the word of a key in an index that is not exact.
func keyHash(t tuple, refs []colRef) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := range refs {
		v := refs[i].of(t)
		if v.K == catalog.KindNull {
			return nullKeyWord
		}
		h = v.KeyHash(h)
	}
	if h == nullKeyWord {
		h++
	}
	return h
}

// bucket mixes a key word into a bucket number. An exact word is the bits of
// a float: consecutive integers differ only in the exponent and the leading
// mantissa bits, and dates a thousand apart only a little lower. One multiply
// spreads those over the word, the fold brings the well-mixed high half down,
// and the second multiply's top bits depend on all of it (14 400 consecutive
// integers, dates or multiples of 1000 in 32 768 buckets: 1.06–1.18 slots
// walked per successful probe; one multiply alone: up to 1.86).
func (b *hashBuild) bucket(w uint64) uint64 { return mix(w) >> b.shift }

func mix(w uint64) uint64 {
	const m = 0x9e3779b97f4a7c15
	w *= m
	return (w ^ w>>32) * m
}

// index links the chains over the words filed by add and reports how many
// partitions did it. With workers > 1 and a large input bucket ranges are
// linked concurrently — each worker sweeps the words and links only the
// buckets it owns, so no two goroutines write the same element. The sweep runs
// from the last ordinal to the first, pushing onto the bucket head, which
// leaves every chain ascending: the index is identical at any worker count.
func (b *hashBuild) index(workers int) int {
	n := b.rows.n
	if len(b.build) == 0 || n == 0 {
		return 0
	}
	if workers < 2 || n < parallelBuildMinRows {
		workers = 1
	}
	buckets, bits := 1, uint(0)
	for buckets < 2*n {
		buckets, bits = buckets<<1, bits+1
	}
	if cap(b.next) < n {
		b.next = make([]int32, n)
	}
	if cap(b.heads) < buckets {
		b.heads = make([]int32, buckets)
	}
	b.next, b.heads, b.shift = b.next[:n], b.heads[:buckets], 64-bits
	return fanOut(storage.SplitRange(0, buckets, workers), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b.heads[i] = -1
		}
		for i := n - 1; i >= 0; i-- {
			w := b.words[i]
			if bkt := int(b.bucket(w)); w != nullKeyWord && bkt >= lo && bkt < hi {
				b.next[i], b.heads[bkt] = b.heads[bkt], int32(i)
			}
		}
	})
}

// pairs returns how many pairs of equal words words[:n] and words[n:] hold, a
// NULL pairing with none: an exact join's output count, in any order. The
// smaller side is tallied in an open-addressing table of four slots a word or
// more (words appended to words, NULL marking an empty slot; tallies in
// heads), and the larger side looked up in it.
func (x *buildIndex) pairs(n int) (total int) {
	small, large := x.words[:n], x.words[n:]
	if len(large) < len(small) {
		small, large = large, small
	}
	size, shift, end := 1, uint(64), len(x.words)
	for size < 4*len(small) {
		size, shift = size<<1, shift-1
	}
	if x.words = slices.Grow(x.words, size)[:end+size]; cap(x.heads) < size {
		x.heads = make([]int32, size)
	}
	table, tally, mask := x.words[end:], x.heads[:size], uint64(size-1)
	for i := range table {
		table[i], tally[i] = nullKeyWord, 0
	}
	find := func(w uint64) uint64 { // w's slot, or the empty one it would take
		h := mix(w) >> shift
		for table[h] != w && table[h] != nullKeyWord {
			h = (h + 1) & mask
		}
		return h
	}
	for _, w := range small {
		if w != nullKeyWord {
			h := find(w)
			table[h], tally[h] = w, tally[h]+1
		}
	}
	for _, w := range large {
		total += int(tally[find(w)]) // an empty slot, NULL's among them, tallies 0
	}
	return total
}

// fanOut runs fn over each range — inline for a single range, one goroutine
// per range otherwise — and returns the number of ranges once all are done.
func fanOut(parts [][2]int, fn func(lo, hi int)) int {
	if len(parts) == 1 {
		fn(parts[0][0], parts[0][1])
		return 1
	}
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(p[0], p[1])
		}()
	}
	wg.Wait()
	return len(parts)
}

// first returns the ordinal of the first build row (in drain order) joining
// the probe tuple, or -1, together with the probe's key word; after continues
// from a returned ordinal. Both only read the build, so every replica of its
// join probes the same one.
func (b *hashBuild) first(t tuple) (int32, uint64) {
	if len(b.probe) == 0 {
		return b.after(-1, 0, t), 0
	}
	var w uint64
	if b.exact {
		w = b.probeWord(t)
	} else {
		w = keyHash(t, b.probe)
	}
	if w == nullKeyWord || b.rows.n == 0 {
		return -1, w
	}
	return b.match(b.heads[b.bucket(w)], w, t), w
}

// probeWord is the probe tuple's key word in an exact index: read from the
// probe column's key-word vector, else from its value.
func (b *hashBuild) probeWord(t tuple) uint64 {
	p := &b.probe[0]
	if b.probeWords != nil {
		return b.probeWords[t[p.slot]]
	}
	if kw, ok := p.of(t).KeyWord(); ok {
		return kw
	}
	// A string probing a build that holds none equals nothing in it.
	return nullKeyWord
}

func (b *hashBuild) after(i int32, w uint64, t tuple) int32 {
	if len(b.probe) == 0 {
		if i++; int(i) == b.rows.n {
			return -1
		}
		return i
	}
	return b.match(b.next[i], w, t)
}

// match walks a chain from ordinal i to the first row whose key equals the
// probe's: the first equal word of an exact index, the first equal word whose
// row passes KeyEqual otherwise.
func (b *hashBuild) match(i int32, w uint64, t tuple) int32 {
next:
	for ; i >= 0; i = b.next[i] {
		if b.words[i] != w {
			continue
		}
		if b.exact {
			return i
		}
		row := b.rows.at(int(i))
		for k := range b.probe {
			if !catalog.KeyEqual(*b.probe[k].of(t), *b.build[k].of(row)) {
				continue next
			}
		}
		return i
	}
	return -1
}

// actuals returns the build's row count and sampled row width. A nil build —
// its join was closed before it ever ran — held nothing.
func (b *hashBuild) actuals(innerSlots slotList) (rows, width int) {
	if b == nil {
		return 0, innerSlots.rowWidth(nil)
	}
	return b.n, b.width
}

// release returns the build's drained rows to the residency accounting.
func (b *hashBuild) release(c *execContext) {
	c.release(b.n, b.heldBytes)
	*b = hashBuild{}
}

// finalize charges the join's simulated cost from the row counts actually
// processed, through the shared charge formulas.
func (j *joinIter) finalize() {
	if j.charged {
		return
	}
	j.charged = true
	innerRows, innerWidth := j.hb.actuals(j.innerSlots)
	j.ctx.chargeJoin(j.node, joinActuals{
		outerRows: j.nOuterRows, innerRows: innerRows, outRows: j.nOut,
		outerWidth: j.outerSlots.rowWidth(j.outerSample), innerWidth: innerWidth,
		trackEarlyOut: j.trackEarlyOut, nProcessed: j.nProcessed,
	})
}

func (j *joinIter) Close() {
	if j.closed {
		return
	}
	j.closed = true
	j.outer.Close()
	if !j.built {
		j.inner.Close()
	}
	j.finalize()
	if j.built {
		j.hb.release(j.ctx)
	}
}

// replica probes the build j owns — drained before any replica is made — and
// carves its output from the partition's arena.
func (j *joinIter) replica(child rowIter, p *partition) spineIter {
	r := *j
	r.outer, r.inner, r.mem = child, nil, p.mem
	r.charged, r.closed = true, true
	return &r
}

// fold keeps the first sample met: folded in partition order, the serial
// first outer row.
func (j *joinIter) fold(r spineIter) {
	o := r.(*joinIter)
	j.nOuterRows += o.nOuterRows
	j.nOut += o.nOut
	if j.outerSample == nil {
		j.outerSample = o.outerSample
	}
}

// nlProbeMillis is the per-outer-row cost of probing the inner input of a
// nested-loop join.
func (c *execContext) nlProbeMillis(innerNode *qgm.Node, matchedPerProbe, innerRows float64) float64 {
	tablePages := float64(c.prep.exec.DB.Pages(innerNode.Table))
	index := innerNode.Op == qgm.OpIXSCAN || innerNode.Op == qgm.OpFETCH
	cr := 0.5
	if index && innerNode.Table != "" && innerNode.Index != "" {
		if def := c.prep.exec.DB.Catalog.Table(innerNode.Table); def != nil {
			if idx := def.IndexByName(innerNode.Index); idx != nil {
				cr = idx.ClusterRatio
			}
		}
	}
	millis, randomRows := c.cost.NLProbe(index, cr, tablePages, innerRows, matchedPerProbe)
	c.stats.PhysicalReads += int64(randomRows)
	return millis
}

// joinKeys pairs the query's equi-join columns across a join's inputs, in
// WHERE order: probe[i] on the outer, build[i] on the inner.
func (p *Prepared) joinKeys(outer, inner slotList) (probe, build []colRef) {
	n, keys := len(p.joins), make([]colRef, 2*len(p.joins))
	probe, build = keys[:0:n], keys[n:n]
	for _, j := range p.joins {
		for _, k := range [2][2]column{j, {j[1], j[0]}} {
			o, inOuter := outer.ref(k[0])
			if i, inInner := inner.ref(k[1]); inOuter && inInner {
				probe, build = append(probe, o), append(build, i)
				break
			}
		}
	}
	return probe, build
}
