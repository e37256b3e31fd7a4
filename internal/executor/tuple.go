package executor

import (
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

// tupleSlab carves join-output tuples out of chunked slabs: k row headers per
// output row instead of a copy of every column value, and one allocation per
// chunk instead of one per row. A full chunk is left to the tuples carved
// from it; nothing is recycled or pooled.
type tupleSlab struct{ buf []storage.Row }

const (
	slabMinHeaders = 64
	slabMaxHeaders = 4096
)

func (s *tupleSlab) concat(a, b tuple) tuple {
	n := len(a) + len(b)
	if cap(s.buf)-len(s.buf) < n {
		size := max(min(2*cap(s.buf), slabMaxHeaders), slabMinHeaders, n)
		s.buf = make([]storage.Row, 0, size)
	}
	start := len(s.buf)
	s.buf = append(append(s.buf, a...), b...)
	return tuple(s.buf[start:len(s.buf):len(s.buf)])
}

// tupleBuf is an append-only tuple buffer addressed by ordinal. It grows a
// chunk at a time, so a build side that outruns its estimate never re-copies
// what it already holds.
type tupleBuf struct {
	chunks [][]tuple
	n      int
}

const (
	tupleChunkBits = 10
	tupleChunk     = 1 << tupleChunkBits
)

// newTupleBuf sizes the first chunk from the estimate; later chunks are full.
func newTupleBuf(est int) tupleBuf {
	return tupleBuf{chunks: [][]tuple{make([]tuple, 0, min(max(est, 16), tupleChunk))}}
}

func (b *tupleBuf) add(t tuple) {
	last := len(b.chunks) - 1
	if len(b.chunks[last]) == tupleChunk {
		b.chunks = append(b.chunks, make([]tuple, 0, tupleChunk))
		last++
	}
	b.chunks[last] = append(b.chunks[last], t)
	b.n++
}

func (b *tupleBuf) at(i int) tuple { return b.chunks[i>>tupleChunkBits][i&(tupleChunk-1)] }
