package rdf

import (
	"iter"
	"slices"
)

// The store's indexes are persistent (structure-sharing) containers: an epoch
// publication copies the pages and chunks its batch writes and shares every
// other one with the epoch before, so what a publication costs follows what
// it changes, not what the store holds.
//
// Ownership is by edit number: every mutation batch of a store carries a
// distinct one, stamps it on whatever it allocates or copies, and may write in
// place exactly what carries its own stamp. Publishing needs no freeze pass:
// the next batch's number differs from every stamp there is.

// A leaf holds the values of leafSize consecutive IDs, a node the leaves of
// nodeSize consecutive leaf ranges. Leaves are the smaller: a template brings
// some thirty new IDs and writes the SPO entries of its subjects and the POS
// entries of its objects, but also the entries of shared objects (operator
// types, tables) scattered over the ID space, each of which copies a leaf.
const (
	leafBits = 5
	leafSize = 1 << leafBits
	nodeBits = 6
	nodeSize = 1 << nodeBits
)

// table maps dense dictionary IDs to values through two levels of fixed-size
// pages under a root that grows by one entry per nodeSize*leafSize IDs. A
// lookup is three dependent loads; a write copies the root, one node and one
// leaf the first time its batch reaches them; ascending-ID iteration is the
// layout's own order. The zero table is empty and a slot never written holds
// V's zero value.
type table[V any] struct {
	edit uint64
	root []*node[V]
}

type node[V any] struct {
	edit   uint64
	leaves [nodeSize]*leaf[V]
}

type leaf[V any] struct {
	edit uint64
	// taken has bit i set once the batch numbered edit has been handed slot
	// i: what the batch stored there is its own to write in place.
	taken uint32
	vals  [leafSize]V
}

// get returns the value at id, the zero V when nothing was written there.
func (t *table[V]) get(id uint32) (zero V) {
	hi := int(id >> (nodeBits + leafBits))
	if hi >= len(t.root) || t.root[hi] == nil {
		return zero
	}
	l := t.root[hi].leaves[id>>leafBits%nodeSize]
	if l == nil {
		return zero
	}
	return l.vals[id%leafSize]
}

// slot returns the place of id for the batch numbered edit to write through,
// copying whichever of the root, the node and the leaf on the way the batch
// does not own yet, and whether the batch has asked for this slot before.
func (t *table[V]) slot(edit uint64, id uint32) (v *V, again bool) {
	hi := int(id >> (nodeBits + leafBits))
	if t.edit != edit {
		t.root = append(make([]*node[V], 0, max(len(t.root), hi+1)), t.root...)
		t.edit = edit
	}
	for len(t.root) <= hi {
		t.root = append(t.root, nil)
	}
	n := t.root[hi]
	if n == nil {
		n = &node[V]{edit: edit}
		t.root[hi] = n
	} else if n.edit != edit {
		c := *n
		c.edit = edit
		n = &c
		t.root[hi] = n
	}
	li := id >> leafBits % nodeSize
	l := n.leaves[li]
	if l == nil {
		l = &leaf[V]{edit: edit}
		n.leaves[li] = l
	} else if l.edit != edit {
		c := *l
		c.edit, c.taken = edit, 0
		l = &c
		n.leaves[li] = l
	}
	bit := uint32(1) << (id % leafSize)
	again = l.taken&bit != 0
	l.taken |= bit
	return &l.vals[id%leafSize], again
}

// all yields every slot of every allocated leaf in ascending ID order, zero
// values included (a leaf holds its whole ID range); the values are the
// table's own and must not be written through.
func (t *table[V]) all() iter.Seq2[uint32, *V] {
	return func(yield func(uint32, *V) bool) {
		for hi, n := range t.root {
			if n == nil {
				continue
			}
			for li, l := range n.leaves {
				if l == nil {
					continue
				}
				base := uint32(hi)<<(nodeBits+leafBits) | uint32(li)<<leafBits
				for i := range l.vals {
					if !yield(base|uint32(i), &l.vals[i]) {
						return
					}
				}
			}
		}
	}
}

// chunkMax bounds a run's chunks: what an insert into a long posting list or
// band index copies, beside the spine of chunk headers.
const chunkMax = 128

// run is a sorted sequence cut into chunks of at most chunkMax elements, none
// empty. A published run is never written: insert and remove take whether the
// calling batch made the run it is handed (owned) and otherwise begin by
// copying the spine, after which they write in place what the batch itself
// allocated — the spine, and every chunk that has spare capacity, which a
// spine copy strips from the chunks it inherits.
type run[T any] [][]T

// private returns the run on a spine of the caller's own.
func (r run[T]) private() run[T] {
	out := make(run[T], len(r), len(r)+1)
	for i, c := range r {
		out[i] = c[:len(c):len(c)]
	}
	return out
}

// size returns the number of elements.
func (r run[T]) size() int {
	n := 0
	for _, c := range r {
		n += len(c)
	}
	return n
}

// search returns the position — chunk and offset — of the first element for
// which after reports true; after must be false for a prefix of the run and
// true for the rest. Past the end it is (len(r), 0).
func (r run[T]) search(after func(T) bool) (c, i int) {
	lo, hi := 0, len(r)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if after(r[mid][len(r[mid])-1]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(r) {
		return lo, 0
	}
	chunk := r[lo]
	a, b := 0, len(chunk)-1 // the chunk's last element is known to be after
	for a < b {
		mid := int(uint(a+b) >> 1)
		if after(chunk[mid]) {
			b = mid
		} else {
			a = mid + 1
		}
	}
	return lo, a
}

// between counts the elements from position (c0, i0) up to (c1, i1).
func (r run[T]) between(c0, i0, c1, i1 int) int {
	n := i1 - i0
	for c := c0; c < c1; c++ {
		n += len(r[c])
	}
	return n
}

// insert returns the run with x placed before the first element that is not
// ordered before it; cmp orders two elements. Equal elements may repeat.
func (r run[T]) insert(x T, cmp func(a, b T) int, owned bool) run[T] {
	if !owned {
		r = r.private()
	}
	c, i := r.search(func(e T) bool { return cmp(e, x) >= 0 })
	if c == len(r) {
		if c == 0 {
			return append(r, []T{x})
		}
		c--
		i = len(r[c])
	}
	chunk := r[c]
	if n := len(chunk); cap(chunk) == n {
		// Inherited, or full: move to an array with room for what else the
		// batch may bring (a bulk load fills a chunk in amortized time).
		chunk = append(make([]T, 0, min(n+1+n/4, chunkMax+1)), chunk...)
	}
	chunk = slices.Insert(chunk, i, x)
	r[c] = chunk
	if len(chunk) > chunkMax {
		half := len(chunk) / 2
		r[c] = chunk[:half]
		r = slices.Insert(r, c+1, append(make([]T, 0, chunkMax+1), chunk[half:]...))
	}
	return r
}

// remove returns the run without one occurrence of x, and whether there was
// one.
func (r run[T]) remove(x T, cmp func(a, b T) int, owned bool) (run[T], bool) {
	if !owned {
		// Before the search: the caller will treat what it gets back as its
		// own from here on, found or not.
		r = r.private()
	}
	c, i := r.search(func(e T) bool { return cmp(e, x) >= 0 })
	if c == len(r) || cmp(r[c][i], x) != 0 {
		return r, false
	}
	if len(r[c]) > 1 {
		r[c] = removeAt(r[c], i)
		return r, true
	}
	return slices.Delete(r, c, c+1), true
}
