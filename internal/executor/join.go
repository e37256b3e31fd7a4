package executor

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"galo/internal/catalog"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// joinKey describes the equi-join columns between the outer and inner inputs
// of a join, as positions into the respective row layouts.
type joinKey struct {
	outerPos []int
	innerPos []int
}

// openJoin builds the streaming join iterator. All join operators compute
// result rows with a hash-based algorithm for speed; the simulated time is
// charged according to the operator's own execution characteristics over the
// row counts actually processed. The inner (build) side is the only buffered
// input — the outer streams through.
func (c *execContext) openJoin(node *qgm.Node) (rowIter, []string, error) {
	switch node.Op {
	case qgm.OpHSJOIN, qgm.OpNLJOIN, qgm.OpMSJOIN:
	default:
		return nil, nil, fmt.Errorf("executor: unsupported join %s", node.Op)
	}
	outer, outerCols, err := c.open(node.Outer)
	if err != nil {
		return nil, nil, err
	}
	inner, innerCols, err := c.open(node.Inner)
	if err != nil {
		outer.Close()
		return nil, nil, err
	}
	key, _ := c.joinKeys(node, outerCols, innerCols)
	cols := append(append([]string{}, outerCols...), innerCols...)
	return &joinIter{
		ctx: c, node: node, outer: outer, inner: inner, key: key,
		nOuterCols: len(outerCols), nInnerCols: len(innerCols),
	}, cols, nil
}

// joinIter is a half pipeline breaker: the first Next drains the inner child
// into the build side (held in the intermediate accounting), then streams the
// outer, emitting matches in build-insertion order — the same emission order
// the materializing hashJoinRows produced.
type joinIter struct {
	ctx   *execContext
	node  *qgm.Node
	outer rowIter
	inner rowIter
	key   joinKey

	nOuterCols, nInnerCols int

	built bool
	hb    *hashBuild

	// MSJOIN early-out bookkeeping (the Figure 8 rescue): count how many
	// outer rows a merge join would have read before passing the largest
	// inner key.
	trackEarlyOut bool
	maxInner      catalog.Value
	nProcessed    int

	kb      strings.Builder
	cur     storage.Row
	matches []storage.Row
	mi      int

	outerSample     storage.Row
	nOuterRows      int
	nOut            int
	charged, closed bool
}

func (j *joinIter) Next() (storage.Row, bool) {
	if !j.built {
		j.buildInner()
	}
	for {
		if j.mi < len(j.matches) {
			irow := j.matches[j.mi]
			j.mi++
			j.nOut++
			return concatRows(j.cur, irow), true
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
		if j.trackEarlyOut && catalog.Compare(orow[j.key.outerPos[0]], j.maxInner) <= 0 {
			j.nProcessed++
		}
		j.cur = orow
		j.matches = j.hb.matches(orow, &j.kb)
		j.mi = 0
	}
}

// buildInner drains the inner child into the build side and indexes it by
// join key. The buffer is charged to the intermediate accounting until Close.
func (j *joinIter) buildInner() {
	j.built = true
	j.hb = j.ctx.drainBuild(j.inner, j.node.Inner, j.key, j.nInnerCols)
	if j.node.Op == qgm.OpMSJOIN && j.node.EarlyOut && len(j.key.outerPos) > 0 && len(j.hb.rows) > 0 {
		j.trackEarlyOut = true
		j.maxInner = maxKey(j.hb.rows, j.key.innerPos[0])
	}
}

// drainBuild drains a join's inner child into a hashBuild (holding the
// buffered rows in the intermediate accounting until the owner releases
// them). Shared by the serial joinIter and the exchange's build phase.
func (c *execContext) drainBuild(inner rowIter, innerNode *qgm.Node, key joinKey, nInnerCols int) *hashBuild {
	rows := make([]storage.Row, 0, presizeHint(innerNode.EstCardinality))
	for {
		row, ok := inner.Next()
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	inner.Close()
	b := newHashBuild(rows, key, nInnerCols, c.workers, innerNode.EstCardinality)
	c.hold(len(rows), b.heldBytes)
	return b
}

// parallelBuildMinRows is the smallest build side worth hash-partitioning
// across workers; below it the partitioning pass costs more than it saves.
const parallelBuildMinRows = 4096

// hashBuild is a hash-join build side: the buffered inner rows plus the
// key → rows index. With workers > 1 and a large input the index is
// hash-partitioned — a serial pass splits rows by key hash (preserving drain
// order within each partition), then per-worker goroutines build the
// partition maps concurrently. Within-bucket insertion order equals the
// global drain order either way, so match chains — and therefore emission
// order and every charge — are identical to the serial build.
type hashBuild struct {
	key        joinKey
	rows       []storage.Row
	nInnerCols int
	heldBytes  int64

	// single indexes single-column keys (the common case) by comparable
	// fastKey — no per-row key-string allocation; multi indexes multi-column
	// keys by their serialized string. len > 1 means hash-partitioned.
	single []map[fastKey][]storage.Row
	multi  []map[string][]storage.Row
}

func newHashBuild(rows []storage.Row, key joinKey, nInnerCols, workers int, estCard float64) *hashBuild {
	b := &hashBuild{key: key, rows: rows, nInnerCols: nInnerCols}
	b.heldBytes = rowsFootprint(rows, nInnerCols)
	if workers < 2 || len(rows) < parallelBuildMinRows {
		workers = 1
	}
	switch {
	case len(key.outerPos) == 0:
		// No equi-join key: the join degrades to a cartesian product over
		// b.rows; no index needed.
	case len(key.innerPos) == 1:
		p := key.innerPos[0]
		if workers == 1 {
			m := make(map[fastKey][]storage.Row, len(rows))
			for _, irow := range rows {
				if irow[p].IsNull() {
					continue
				}
				k := fastKeyOf(irow[p])
				m[k] = append(m[k], irow)
			}
			b.single = []map[fastKey][]storage.Row{m}
			break
		}
		parts := partitionRows(rows, workers, estCard, func(irow storage.Row) (uint64, bool) {
			if irow[p].IsNull() {
				return 0, false
			}
			return fastKeyHash(fastKeyOf(irow[p])), true
		})
		b.single = make([]map[fastKey][]storage.Row, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				m := make(map[fastKey][]storage.Row, len(parts[w]))
				for _, irow := range parts[w] {
					k := fastKeyOf(irow[p])
					m[k] = append(m[k], irow)
				}
				b.single[w] = m
			}(w)
		}
		wg.Wait()
	default:
		if workers == 1 {
			m := make(map[string][]storage.Row, len(rows))
			var kb strings.Builder
			for _, irow := range rows {
				k, ok := multiKeyOf(irow, key.innerPos, &kb)
				if !ok {
					continue
				}
				m[k] = append(m[k], irow)
			}
			b.multi = []map[string][]storage.Row{m}
			break
		}
		var kb strings.Builder
		parts := partitionRows(rows, workers, estCard, func(irow storage.Row) (uint64, bool) {
			k, ok := multiKeyOf(irow, key.innerPos, &kb)
			if !ok {
				return 0, false
			}
			return hashString(k), true
		})
		b.multi = make([]map[string][]storage.Row, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				m := make(map[string][]storage.Row, len(parts[w]))
				var wkb strings.Builder
				for _, irow := range parts[w] {
					k, _ := multiKeyOf(irow, key.innerPos, &wkb)
					m[k] = append(m[k], irow)
				}
				b.multi[w] = m
			}(w)
		}
		wg.Wait()
	}
	return b
}

// partitionRows splits build rows into hash partitions in one serial pass —
// drain order is preserved within each partition. Partition slices are
// pre-sized from the plan's estimated build cardinality.
func partitionRows(rows []storage.Row, workers int, estCard float64, hash func(storage.Row) (uint64, bool)) [][]storage.Row {
	est := presizeHint(estCard)/workers + 1
	parts := make([][]storage.Row, workers)
	for i := range parts {
		parts[i] = make([]storage.Row, 0, est)
	}
	for _, irow := range rows {
		h, ok := hash(irow)
		if !ok {
			continue
		}
		parts[h%uint64(workers)] = append(parts[h%uint64(workers)], irow)
	}
	return parts
}

// matches returns the build rows joining with one probe-side row, in build
// insertion order. kb is the caller's scratch builder (each exchange worker
// probes with its own). With no equi-join key the join degrades to a
// cartesian product.
func (b *hashBuild) matches(orow storage.Row, kb *strings.Builder) []storage.Row {
	switch {
	case len(b.key.outerPos) == 0:
		return b.rows
	case len(b.key.outerPos) == 1:
		v := orow[b.key.outerPos[0]]
		if v.IsNull() {
			return nil
		}
		k := fastKeyOf(v)
		if len(b.single) == 1 {
			return b.single[0][k]
		}
		return b.single[fastKeyHash(k)%uint64(len(b.single))][k]
	default:
		k, ok := multiKeyOf(orow, b.key.outerPos, kb)
		if !ok {
			return nil
		}
		if len(b.multi) == 1 {
			return b.multi[0][k]
		}
		return b.multi[hashString(k)%uint64(len(b.multi))][k]
	}
}

// sample returns the first build row (the serial spill-formula sample).
func (b *hashBuild) sample() storage.Row {
	if len(b.rows) == 0 {
		return nil
	}
	return b.rows[0]
}

// release returns the build's buffered rows to the residency accounting.
func (b *hashBuild) release(c *execContext) {
	c.release(len(b.rows), b.heldBytes)
	b.rows, b.single, b.multi = nil, nil, nil
}

// FNV-1a hashing for build partitioning: deterministic across runs (Go's
// map hash is seeded per process, so it cannot pick partitions).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func fastKeyHash(k fastKey) uint64 {
	h := uint64(fnvOffset64)
	if k.isStr {
		h ^= 1
		h *= fnvPrime64
		return h ^ hashString(k.s)
	}
	bits := math.Float64bits(k.f)
	for i := 0; i < 8; i++ {
		h ^= (bits >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// fastKey is a comparable, allocation-free stand-in for a single join-key
// value's Key() string: two non-null values produce equal fastKeys exactly
// when their Key() strings are equal (strings compare as strings, every
// numeric kind through its float value — the same normalization Key uses).
type fastKey struct {
	s     string
	f     float64
	isStr bool
}

func fastKeyOf(v catalog.Value) fastKey {
	if v.K == catalog.KindString {
		return fastKey{s: v.S, isStr: true}
	}
	return fastKey{f: v.AsFloat()}
}

// multiKeyOf serializes the (multi-column) join-key columns of a row; ok is
// false when any key column is null (null keys never match).
func multiKeyOf(row storage.Row, pos []int, kb *strings.Builder) (string, bool) {
	kb.Reset()
	for _, p := range pos {
		if row[p].IsNull() {
			return "", false
		}
		kb.WriteString(row[p].Key())
		kb.WriteByte('|')
	}
	return kb.String(), true
}

// finalize charges the join's simulated cost from the row counts actually
// processed, through the shared charge formulas.
func (j *joinIter) finalize() {
	if j.charged {
		return
	}
	j.charged = true
	innerRows := 0
	var innerSample storage.Row
	if j.hb != nil {
		innerRows = len(j.hb.rows)
		innerSample = j.hb.sample()
	}
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

// hashJoinRows computes the equi-join of two rowsets (the materializing
// baseline path). With no key it degrades to a cartesian product. The build
// map is pre-sized from the inner's actual row count and the output slice
// from the plan's estimated output cardinality.
func hashJoinRows(outer, inner *rowset, key joinKey, estOut int) []storage.Row {
	out := make([]storage.Row, 0, estOut)
	if len(key.outerPos) == 0 {
		for _, orow := range outer.rows {
			for _, irow := range inner.rows {
				out = append(out, concatRows(orow, irow))
			}
		}
		return out
	}
	build := make(map[string][]storage.Row, len(inner.rows))
	var kb strings.Builder
	for _, irow := range inner.rows {
		kb.Reset()
		null := false
		for _, p := range key.innerPos {
			if irow[p].IsNull() {
				null = true
				break
			}
			kb.WriteString(irow[p].Key())
			kb.WriteByte('|')
		}
		if null {
			continue
		}
		build[kb.String()] = append(build[kb.String()], irow)
	}
	for _, orow := range outer.rows {
		kb.Reset()
		null := false
		for _, p := range key.outerPos {
			if orow[p].IsNull() {
				null = true
				break
			}
			kb.WriteString(orow[p].Key())
			kb.WriteByte('|')
		}
		if null {
			continue
		}
		for _, irow := range build[kb.String()] {
			out = append(out, concatRows(orow, irow))
		}
	}
	return out
}

func concatRows(a, b storage.Row) storage.Row {
	out := make(storage.Row, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func maxKey(rows []storage.Row, pos int) catalog.Value {
	var max catalog.Value
	for _, r := range rows {
		if max.IsNull() || catalog.Compare(r[pos], max) > 0 {
			max = r[pos]
		}
	}
	return max
}

// sortRowsBy is a helper used in tests to check result equivalence
// independent of row order.
func sortRowsBy(rows []storage.Row) {
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if k >= len(rows[j]) {
				return false
			}
			if cmp := catalog.Compare(rows[i][k], rows[j][k]); cmp != 0 {
				return cmp < 0
			}
		}
		return len(rows[i]) < len(rows[j])
	})
}
