package executor

import (
	"strings"
	"sync"
	"sync/atomic"

	"galo/internal/catalog"
	"galo/internal/qgm"
	"galo/internal/storage"
)

// tuple is the row flowing between streaming operators: one 32-bit row ID per
// table instance below the operator, in slot order. Which rows a slot's IDs
// index is the slot's knowledge, resolved into every colRef when the operator
// opens. Scans hand out one-slot tuples that alias the identity vector, joins
// concatenate the IDs of their inputs, and column values are copied exactly
// once, in Cursor.Next's projection. A tuple holds no pointer: slabs, build
// buffers and exchange batches are plain words the collector never walks.
// Tuples and the rows they stand for are read-only.
type tuple []uint32

// colRef addresses one column of a tuple: resolved once, when the operator
// opens.
type colRef struct {
	src       *slot
	slot, off int32
}

// of returns the column's value in the row the tuple stands for.
func (r *colRef) of(t tuple) *catalog.Value { return &r.src.rows[t[r.slot]][r.off] }

// keyWords returns the column's key-word vector (storage.Table.KeyWords): the
// key of tuple t is keyWords()[t[slot]], read without touching the row. It is
// nil when the column holds a string, or when no table stands behind the slot.
func (r *colRef) keyWords() []uint64 {
	if r.src.table == nil {
		return nil
	}
	return r.src.table.KeyWords(int(r.off))
}

// slot describes one tuple slot: its FROM instance, its table's column count,
// the rows its IDs index and the table they are the rows of. A scan holds one
// (in its scanSource); the slot lists above it share it.
type slot struct {
	inst  int32
	ncols int
	rows  []storage.Row
	table *storage.Table
}

// slotList is an operator's output shape: the slots of its tuples, in order.
type slotList []*slot

// concat is the shape of a join's output: outer slots, then inner slots.
func (l slotList) concat(r slotList) slotList {
	return append(append(make(slotList, 0, len(l)+len(r)), l...), r...)
}

// ref resolves a column of the query: false when no slot carries it.
func (l slotList) ref(c column) (colRef, bool) {
	for s, src := range l {
		if src.inst == c.inst && c.col >= 0 {
			return colRef{src: src, slot: int32(s), off: c.col}, true
		}
	}
	return colRef{}, false
}

// refs resolves the columns some slot carries, skipping the rest.
func (l slotList) refs(cols []column) []colRef {
	out := make([]colRef, 0, len(cols))
	for _, c := range cols {
		if r, ok := l.ref(c); ok {
			out = append(out, r)
		}
	}
	return out
}

// named resolves an instance-qualified column name ("Qi.COL", the plan's
// order property) into a tuple reference.
func (l slotList) named(name string) (colRef, bool) {
	inst, col, _ := strings.Cut(strings.ToUpper(name), ".")
	for _, src := range l {
		if qgm.InstanceName(int(src.inst)) == inst {
			return l.ref(column{src.inst, int32(src.table.Def.ColumnIndex(col))})
		}
	}
	return colRef{}, false
}

// rowWidth estimates a row's width in bytes from a sample tuple, falling back
// to 8 bytes per column when no row has been seen — the same estimate the
// plan-time cost model uses, which keeps spill decisions formula-identical. It
// is the logical width of the row the tuple stands for (one integer sum over
// every slot's values), not the size of its IDs.
func (l slotList) rowWidth(sample tuple) int {
	w := 0
	for s, src := range l {
		if sample == nil {
			w += 8 * src.ncols
		} else {
			w += valuesWidth(src.rows[sample[s]])
		}
	}
	return w
}

// identity is the vector every one-slot tuple of a scan aliases:
// identity[i] == i, so identity[id:id+1] is the tuple of row id and a scan
// allocates and writes nothing per row. It grows by replacement — a published
// vector is never written again — to the largest table any execution has
// scanned.
var identity struct {
	mu  sync.Mutex
	ids atomic.Pointer[[]uint32]
}

// rowIDs returns the identity vector, at least n long.
func rowIDs(n int) []uint32 {
	if p := identity.ids.Load(); p != nil && len(*p) >= n {
		return *p
	}
	identity.mu.Lock()
	defer identity.mu.Unlock()
	if p := identity.ids.Load(); p != nil && len(*p) >= n {
		return *p
	}
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	identity.ids.Store(&ids)
	return ids
}

// arena is where one goroutine's share of an execution keeps its
// intermediates: the chunks join-output tuples are carved from and build
// buffers, SORT buffers and exchange batches are cut from, and the build
// indexes (whose chain arrays also hold SORT permutations). It draws
// fixed-size chunks from process-wide pools and hands every one of them back
// in release, so a steady stream of executions allocates next to nothing.
//
// An arena is not safe for concurrent use: the serial pipeline draws from the
// execContext's own, each exchange worker from one of its own, and only the
// consumer — in Cursor.finish, once the pipeline is closed and the workers
// have exited — releases them. Nothing carved from an arena may be read after
// that.
type arena struct {
	slab    []uint32 // the unused tail of the chunk concat carves from
	chunks  []*idChunk
	indexes []*buildIndex
}

const (
	idChunkBits = 12
	idChunkLen  = 1 << idChunkBits
)

// idChunk is 16 KB of row IDs.
type idChunk [idChunkLen]uint32

// buildIndex is the storage of one hashBuild index (see hashBuild), in next
// alone of one SORT permutation (arena.ints), or in words and heads of a
// counting join's key words and tally table (buildIndex.pairs). Its arrays are
// reused by capacity; until the build fills them they hold — and are as long
// as — whatever the last user left.
type buildIndex struct {
	words []uint64 // per ordinal; nullKeyWord marks a NULL key (never linked)
	heads []int32  // per bucket (len is a power of two); -1 when empty
	next  []int32  // per ordinal; -1 ends the chain
}

// The pools. Chunks are fixed-size, so any execution can reuse what any other
// released. Recycled chunks are not cleared — the make they replace paid for
// that memclr on every execution.
var (
	chunkPool = sync.Pool{New: func() any { return new(idChunk) }}
	indexPool = sync.Pool{New: func() any { return new(buildIndex) }}
)

// concat carves the join-output tuple a‖b out of the current slab: one row ID
// per slot instead of a copy of every column value, and no allocation.
func (m *arena) concat(a, b tuple) tuple {
	n := len(a) + len(b)
	if len(m.slab) < n {
		m.slab = m.chunk()[:]
	}
	t := m.slab[:n:n]
	m.slab = m.slab[n:]
	// A tuple is a handful of IDs: two loops beat two memmove calls.
	for i, id := range a {
		t[i] = id
	}
	for i, id := range b {
		t[len(a)+i] = id
	}
	return t
}

// chunk draws a chunk.
func (m *arena) chunk() *idChunk {
	c := chunkPool.Get().(*idChunk)
	m.chunks = append(m.chunks, c)
	return c
}

// index draws the storage of a build index.
func (m *arena) index() *buildIndex {
	ix := indexPool.Get().(*buildIndex)
	m.indexes = append(m.indexes, ix)
	return ix
}

// ints draws n int32s, as the last user left them, in the chain array of a
// build index's storage.
func (m *arena) ints(n int) []int32 {
	ix := m.index()
	if cap(ix.next) < n {
		ix.next = make([]int32, n)
	}
	return ix.next[:n]
}

// release hands everything drawn back to the pools.
func (m *arena) release() {
	for _, c := range m.chunks {
		chunkPool.Put(c)
	}
	for _, ix := range m.indexes {
		indexPool.Put(ix)
	}
	*m = arena{}
}

// tupleBuf is an append-only buffer of tuples of one width, addressed by
// ordinal: the IDs lie side by side in chunks of its arena, a power of two of
// tuples to a chunk, so a build side that outruns its estimate never re-copies
// what it already holds and a tuple is found by a shift and a mask.
type tupleBuf struct {
	mem    *arena
	width  int  // IDs per tuple
	shift  uint // log2 of the tuples per chunk
	chunks []*idChunk
	n      int
}

func newTupleBuf(mem *arena, width int) tupleBuf {
	shift := uint(idChunkBits)
	for width<<shift > idChunkLen {
		shift--
	}
	return tupleBuf{mem: mem, width: width, shift: shift}
}

func (b *tupleBuf) add(t tuple) {
	i := b.n & (1<<b.shift - 1)
	if i == 0 {
		b.chunks = append(b.chunks, b.mem.chunk())
	}
	dst := b.chunks[len(b.chunks)-1][i*b.width:]
	for k, id := range t { // a handful of IDs: a loop beats a memmove call
		dst[k] = id
	}
	b.n++
}

func (b *tupleBuf) at(i int) tuple {
	o := (i & (1<<b.shift - 1)) * b.width
	return b.chunks[i>>b.shift][o : o+b.width : o+b.width]
}
