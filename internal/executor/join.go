package executor

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"galo/internal/catalog"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// joinKey describes the equi-join columns between the outer and inner inputs
// of a join, as positions into the respective flat column layouts.
type joinKey struct {
	outerPos []int
	innerPos []int
}

// openJoin builds the streaming join iterator. All join operators compute
// result rows with a hash-based algorithm for speed; the simulated time is
// charged according to the operator's own execution characteristics over the
// row counts actually processed. The inner (build) side is the only buffered
// input — the outer streams through.
func (c *execContext) openJoin(node *qgm.Node) (rowIter, layout, error) {
	switch node.Op {
	case qgm.OpHSJOIN, qgm.OpNLJOIN, qgm.OpMSJOIN:
	default:
		return nil, layout{}, fmt.Errorf("executor: unsupported join %s", node.Op)
	}
	openOuter := c.open
	if node.Op == qgm.OpHSJOIN {
		openOuter = c.openOrdered
	}
	outer, outerLay, err := openOuter(node.Outer)
	if err != nil {
		return nil, layout{}, err
	}
	inner, innerLay, err := c.openOrdered(node.Inner)
	if err != nil {
		outer.Close()
		return nil, layout{}, err
	}
	key, _ := c.joinKeys(node, outerLay.cols, innerLay.cols)
	return &joinIter{
		ctx: c, node: node, outer: outer, inner: inner,
		probe: outerLay.refs(key.outerPos), build: innerLay.refs(key.innerPos),
		nOuterCols: len(outerLay.cols), nInnerCols: len(innerLay.cols),
	}, outerLay.concat(innerLay), nil
}

// joinIter is a half pipeline breaker: the first Next drains the inner child
// into the build side (held in the intermediate accounting), then streams the
// outer, emitting matches in build-insertion order — the same emission order
// the materializing hashJoinRows produced. An output tuple is the outer's
// slot headers followed by the inner's; no column value is copied.
type joinIter struct {
	ctx          *execContext
	node         *qgm.Node
	outer        rowIter
	inner        rowIter
	probe, build []colRef // the equi-join key columns on either side

	nOuterCols, nInnerCols int

	built bool
	hb    *hashBuild
	slab  tupleSlab

	// MSJOIN early-out bookkeeping (the Figure 8 rescue): count how many
	// outer rows a merge join would have read before passing the largest
	// inner key.
	trackEarlyOut bool
	nProcessed    int

	cur  tuple  // the outer tuple being probed
	hash uint64 // its key hash
	mi   int32  // next matching build ordinal, -1 when cur is spent

	outerSample     tuple
	nOuterRows      int
	nOut            int
	charged, closed bool
}

func (j *joinIter) Next() (tuple, bool) {
	if !j.built {
		j.buildInner()
	}
	for {
		if i := j.mi; i >= 0 {
			j.mi = j.hb.after(i, j.hash, j.cur)
			j.nOut++
			return j.slab.concat(j.cur, j.hb.rows.at(int(i))), true
		}
		orow, ok := j.outer.Next()
		if !ok {
			j.finalize()
			return nil, false
		}
		j.nOuterRows++
		if j.outerSample == nil {
			j.outerSample = orow
		}
		if j.trackEarlyOut && catalog.Compare(orow[j.probe[0].slot][j.probe[0].off], j.hb.maxKey) <= 0 {
			j.nProcessed++
		}
		j.cur = orow
		j.mi, j.hash = j.hb.first(orow)
	}
}

// buildInner drains the inner child into the build side and indexes it by
// join key. The buffer is charged to the intermediate accounting until Close.
func (j *joinIter) buildInner() {
	j.built = true
	j.mi = -1
	wantMax := j.node.Op == qgm.OpMSJOIN && j.node.EarlyOut && len(j.probe) > 0
	j.hb = j.ctx.drainBuild(j.inner, j.node.Inner, j.probe, j.build, j.nInnerCols, wantMax)
	j.trackEarlyOut = wantMax && j.hb.rows.n > 0
}

// drainBuild drains a join's inner child into a hashBuild (holding the
// buffered rows in the intermediate accounting until the owner releases
// them). Shared by the serial joinIter and the exchange's build phase. With
// wantMax the same pass records the largest value of the first key column
// (the MSJOIN early-out bound).
func (c *execContext) drainBuild(inner rowIter, innerNode *qgm.Node, probe, build []colRef, nInnerCols int, wantMax bool) *hashBuild {
	b := &hashBuild{probe: probe, build: build, rows: newTupleBuf(presizeHint(innerNode.EstCardinality))}
	for {
		t, ok := inner.Next()
		if !ok {
			break
		}
		if wantMax {
			if v := t[build[0].slot][build[0].off]; b.maxKey.IsNull() || catalog.Compare(v, b.maxKey) > 0 {
				b.maxKey = v
			}
		}
		b.rows.add(t)
	}
	inner.Close()
	_, sample := b.actuals()
	b.heldBytes = int64(rowWidthOf(sample, nInnerCols)) * int64(b.rows.n)
	b.index(c.workers)
	c.hold(b.rows.n, b.heldBytes)
	return b
}

// parallelBuildMinRows is the smallest build side worth hash-partitioning
// across workers; below it the fan-out costs more than it saves.
const parallelBuildMinRows = 4096

// hashBuild is a hash-join build side: the buffered inner tuples plus one
// chained index over their ordinals. heads maps a key-hash bucket to the
// first ordinal in it and next links each ordinal to the following one of its
// bucket, always ascending — so a probe walks its matches in drain order, the
// emission order every charge and golden result depends on. Keys are hashed
// and compared through the rows themselves (catalog.Value.KeyHash /
// catalog.KeyEqual): nothing is copied, serialized or allocated per key, for
// any number of key columns. With no key columns there is no index and every
// build row matches (a cartesian product).
type hashBuild struct {
	probe, build []colRef
	rows         tupleBuf
	heldBytes    int64
	maxKey       catalog.Value

	hashes []uint64 // per ordinal; nullKeyHash marks a NULL key (never linked)
	heads  []int32  // per bucket (len is a power of two); -1 when empty
	next   []int32  // per ordinal; -1 ends the chain
}

// nullKeyHash is the hash reserved for keys holding a NULL, which join
// nothing.
const nullKeyHash = 0

func keyHash(t tuple, refs []colRef) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, r := range refs {
		v := &t[r.slot][r.off]
		if v.K == catalog.KindNull {
			return nullKeyHash
		}
		h = v.KeyHash(h)
	}
	if h == nullKeyHash {
		h = 1
	}
	return h
}

// index builds the chained index and reports how many partitions filled it.
// With workers > 1 and a large input both passes fan out: ordinal ranges are
// hashed concurrently, then bucket ranges are linked concurrently — each
// worker sweeps the hashes and links only the buckets it owns, so no two
// goroutines write the same element. The sweep runs from the last ordinal to
// the first, pushing onto the bucket head, which leaves every chain ascending:
// the index is identical at any worker count.
func (b *hashBuild) index(workers int) int {
	n := b.rows.n
	if len(b.build) == 0 || n == 0 {
		return 0
	}
	if workers < 2 || n < parallelBuildMinRows {
		workers = 1
	}
	buckets := 1
	for buckets < 2*n {
		buckets <<= 1
	}
	b.hashes, b.next, b.heads = make([]uint64, n), make([]int32, n), make([]int32, buckets)
	fanOut(storage.SplitRange(0, n, workers), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b.hashes[i] = keyHash(b.rows.at(i), b.build)
		}
	})
	mask := uint64(buckets - 1)
	return fanOut(storage.SplitRange(0, buckets, workers), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b.heads[i] = -1
		}
		for i := n - 1; i >= 0; i-- {
			h := b.hashes[i]
			if bkt := int(h & mask); h != nullKeyHash && bkt >= lo && bkt < hi {
				b.next[i], b.heads[bkt] = b.heads[bkt], int32(i)
			}
		}
	})
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
// the probe tuple, or -1, together with the probe's key hash; after continues
// from a returned ordinal. Both only read the build, so every exchange worker
// probes the same one.
func (b *hashBuild) first(t tuple) (int32, uint64) {
	if len(b.probe) == 0 {
		return b.after(-1, 0, t), 0
	}
	h := keyHash(t, b.probe)
	if h == nullKeyHash || b.heads == nil {
		return -1, h
	}
	return b.match(b.heads[h&uint64(len(b.heads)-1)], h, t), h
}

func (b *hashBuild) after(i int32, h uint64, t tuple) int32 {
	if len(b.probe) == 0 {
		if i++; int(i) == b.rows.n {
			return -1
		}
		return i
	}
	return b.match(b.next[i], h, t)
}

// match walks a chain from ordinal i to the first row whose key equals the
// probe's.
func (b *hashBuild) match(i int32, h uint64, t tuple) int32 {
next:
	for ; i >= 0; i = b.next[i] {
		if b.hashes[i] != h {
			continue
		}
		row := b.rows.at(int(i))
		for k, p := range b.probe {
			if !catalog.KeyEqual(t[p.slot][p.off], row[b.build[k].slot][b.build[k].off]) {
				continue next
			}
		}
		return i
	}
	return -1
}

// actuals returns the build's row count and its first row (the serial
// spill-formula sample). A nil build — its join was closed before it ever
// ran — held nothing.
func (b *hashBuild) actuals() (int, tuple) {
	if b == nil || b.rows.n == 0 {
		return 0, nil
	}
	return b.rows.n, b.rows.at(0)
}

// release returns the build's buffered rows to the residency accounting.
func (b *hashBuild) release(c *execContext) {
	c.release(b.rows.n, b.heldBytes)
	*b = hashBuild{}
}

// finalize charges the join's simulated cost from the row counts actually
// processed, through the shared charge formulas.
func (j *joinIter) finalize() {
	if j.charged {
		return
	}
	j.charged = true
	innerRows, innerSample := j.hb.actuals()
	j.ctx.chargeJoin(j.node, joinActuals{
		outerRows: j.nOuterRows, innerRows: innerRows, outRows: j.nOut,
		outerSample: j.outerSample, innerSample: innerSample,
		nOuterCols: j.nOuterCols, nInnerCols: j.nInnerCols,
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

// nlProbeMillis is the per-outer-row cost of probing the inner input of a
// nested-loop join.
func (c *execContext) nlProbeMillis(innerNode *qgm.Node, matchedPerProbe, innerRows float64) float64 {
	cfg := c.cfg
	tablePages := float64(c.exec.DB.Pages(innerNode.Table))
	fitsBP := tablePages <= float64(cfg.BufferPoolPages)
	if innerNode.Op == qgm.OpIXSCAN || innerNode.Op == qgm.OpFETCH {
		cr := 0.5
		if innerNode.Table != "" && innerNode.Index != "" {
			if def := c.exec.DB.Catalog.Table(innerNode.Table); def != nil {
				if idx := def.IndexByName(innerNode.Index); idx != nil {
					cr = idx.ClusterRatio
				}
			}
		}
		perProbe := cfg.Overhead * 0.5
		if fitsBP {
			perProbe = c.rt()
		}
		fetchRows := math.Max(matchedPerProbe, 1)
		randomIO := cfg.Overhead
		if fitsBP {
			randomIO = c.rt() * 0.25
		}
		if randomIO > 0 {
			c.stats.PhysicalReads += int64(fetchRows * (1 - cr))
		}
		return perProbe + fetchRows*(1-cr)*randomIO + fetchRows*cr*c.rt()/8 + fetchRows*cfg.CPUSpeed
	}
	// Scan probe.
	if fitsBP {
		return tablePages*c.rt()*0.05 + innerRows*cfg.CPUSpeed
	}
	return tablePages*c.rt() + innerRows*cfg.CPUSpeed
}

// joinKeys finds the equi-join column positions between the two inputs.
func (c *execContext) joinKeys(node *qgm.Node, outerCols, innerCols []string) (joinKey, []sqlparser.Predicate) {
	outerInst := instanceSet(node.Outer)
	innerInst := instanceSet(node.Inner)
	var key joinKey
	var used []sqlparser.Predicate
	for _, p := range c.query.Where {
		if !p.IsJoin() {
			continue
		}
		li := c.refToInst[strings.ToUpper(p.Left.Table)]
		ri := c.refToInst[strings.ToUpper(p.Right.Table)]
		var op, ip int
		switch {
		case outerInst[li] && innerInst[ri]:
			op = colPos(outerCols, li+"."+p.Left.Column)
			ip = colPos(innerCols, ri+"."+p.Right.Column)
		case outerInst[ri] && innerInst[li]:
			op = colPos(outerCols, ri+"."+p.Right.Column)
			ip = colPos(innerCols, li+"."+p.Left.Column)
		default:
			continue
		}
		if op >= 0 && ip >= 0 {
			key.outerPos = append(key.outerPos, op)
			key.innerPos = append(key.innerPos, ip)
			used = append(used, p)
		}
	}
	return key, used
}

func instanceSet(n *qgm.Node) map[string]bool {
	set := map[string]bool{}
	n.Walk(func(x *qgm.Node) {
		if x.TableInstance != "" {
			set[x.TableInstance] = true
		}
	})
	return set
}
