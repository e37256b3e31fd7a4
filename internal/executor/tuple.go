package executor

import (
	"sync"

	"galo/internal/catalog"
	"galo/internal/storage"
)

// tuple is the row flowing between streaming operators: one base-row
// reference per table instance below the operator, in layout order. Scans
// hand out one-slot tuples that alias table storage, joins concatenate the
// slot headers of their inputs, and column values are copied exactly once, in
// Cursor.Next's projection. Tuples and the rows they point to are read-only.
type tuple []storage.Row

// colRef addresses one column of a tuple: resolved from a flat layout
// position once, when the operator opens.
type colRef struct{ slot, off int }

// layout is an operator's output shape: the flattened instance-qualified
// column names, and how many of them each tuple slot carries.
type layout struct {
	cols  []string
	slots []int
}

func scanLayout(inst string, def *catalog.Table) layout {
	return layout{cols: scanColumns(inst, def), slots: []int{len(def.Columns)}}
}

// concat is the layout of a join's output: outer slots, then inner slots.
func (l layout) concat(r layout) layout {
	return layout{
		cols:  append(append([]string{}, l.cols...), r.cols...),
		slots: append(append([]int{}, l.slots...), r.slots...),
	}
}

// refs resolves flat column positions into tuple references.
func (l layout) refs(pos []int) []colRef {
	out := make([]colRef, len(pos))
	for i, p := range pos {
		s := 0
		for p >= l.slots[s] {
			p -= l.slots[s]
			s++
		}
		out[i] = colRef{slot: s, off: p}
	}
	return out
}

// arena is where one goroutine's share of an execution keeps its
// intermediates: the slabs join-output tuples are carved from, the chunks of
// build buffers and exchange batches, and the build indexes. It draws
// fixed-size chunks from process-wide pools and hands every one of them back
// in release, so a steady stream of executions allocates next to nothing and
// the collector is not woken to re-mark table storage on their account.
//
// An arena is not safe for concurrent use: the serial pipeline draws from the
// execContext's own, each exchange worker from one of its own, and only the
// consumer — in Cursor.finish, once the pipeline is closed and the workers
// have exited — releases them. Nothing carved from an arena may be read after
// that.
type arena struct {
	slab    []storage.Row // the unused tail of the newest slab chunk
	slabs   []*slabChunk
	chunks  []*tupleChunk
	indexes []*buildIndex
}

const (
	slabHeaders    = 4096
	tupleChunkBits = 10
	tupleChunkLen  = 1 << tupleChunkBits
)

type (
	slabChunk  [slabHeaders]storage.Row
	tupleChunk [tupleChunkLen]tuple
)

// buildIndex is the storage of one hashBuild index (see hashBuild). Its
// arrays are reused by capacity; until the build fills them they hold — and
// are as long as — whatever the last user left.
type buildIndex struct {
	words []uint64 // per ordinal; nullKeyWord marks a NULL key (never linked)
	heads []int32  // per bucket (len is a power of two); -1 when empty
	next  []int32  // per ordinal; -1 ends the chain
}

// The pools. Entries of the first two are fixed-size, so any execution can
// reuse what any other released. Recycled chunks are not cleared — the make
// they replace paid for that memclr on every execution — so until it is
// overwritten or dropped by the pool (two collections at most), a pooled
// chunk can keep the rows it last pointed to reachable.
var (
	slabPool  = sync.Pool{New: func() any { return new(slabChunk) }}
	chunkPool = sync.Pool{New: func() any { return new(tupleChunk) }}
	indexPool = sync.Pool{New: func() any { return new(buildIndex) }}
)

// concat carves the join-output tuple a‖b out of the current slab: one row
// header per slot instead of a copy of every column value, and no allocation.
func (m *arena) concat(a, b tuple) tuple {
	n := len(a) + len(b)
	if len(m.slab) < n {
		c := slabPool.Get().(*slabChunk)
		m.slabs = append(m.slabs, c)
		m.slab = c[:]
	}
	t := m.slab[:n:n]
	m.slab = m.slab[n:]
	// A tuple is a handful of headers: two loops beat two typedslicecopy calls.
	for i, row := range a {
		t[i] = row
	}
	for i, row := range b {
		t[len(a)+i] = row
	}
	return tuple(t)
}

// chunk draws a tuple chunk.
func (m *arena) chunk() *tupleChunk {
	c := chunkPool.Get().(*tupleChunk)
	m.chunks = append(m.chunks, c)
	return c
}

// index draws the storage of a build index.
func (m *arena) index() *buildIndex {
	ix := indexPool.Get().(*buildIndex)
	m.indexes = append(m.indexes, ix)
	return ix
}

// release hands everything drawn back to the pools.
func (m *arena) release() {
	for _, c := range m.slabs {
		slabPool.Put(c)
	}
	for _, c := range m.chunks {
		chunkPool.Put(c)
	}
	for _, ix := range m.indexes {
		indexPool.Put(ix)
	}
	*m = arena{}
}

// tupleBuf is an append-only tuple buffer addressed by ordinal. It grows a
// chunk at a time out of its arena, so a build side that outruns its estimate
// never re-copies what it already holds.
type tupleBuf struct {
	mem    *arena
	chunks []*tupleChunk
	n      int
}

func (b *tupleBuf) add(t tuple) {
	i := b.n & (tupleChunkLen - 1)
	if i == 0 {
		b.chunks = append(b.chunks, b.mem.chunk())
	}
	b.chunks[len(b.chunks)-1][i] = t
	b.n++
}

func (b *tupleBuf) at(i int) tuple { return b.chunks[i>>tupleChunkBits][i&(tupleChunkLen-1)] }
