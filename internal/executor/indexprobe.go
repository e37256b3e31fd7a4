package executor

import (
	"sync/atomic"

	"galo/internal/catalog"
	"galo/internal/storage"
)

// indexProbe answers a serial join's probes from the stored index of its inner
// instead of a hash build. The inner is a bare base-table access keyed on an
// index that lists one key's entries in the order the scan drains them, so the
// matches of an outer row are one run of entries, found by a binary search on
// the row's key word, filtered by the scan's own predicates and emitted in
// entry order: the order a hash build emits them in. The join copies and
// indexes nothing. It drains an inner with predicates of its own through the
// inner's iterator; one without any passes every candidate, so the join
// counts it instead (count). Either way the scan is charged, sampled and held
// in the residency accounting exactly as a build side is.
//
// A probe costs up to a binary search for each end of its run, a build about
// one step per drained row, so once the outer has produced more than limit
// rows — the drained rows over twice the search depth — the join builds after
// all (fill) and goes on probing the build. Row order, charges and RunStats are those of the build
// either way: the build it would have made holds the same rows in the same
// order, and every charge is booked from counts both paths keep alike.
type indexProbe struct {
	scan    spineIter // the drained inner: a replica of it re-reads the source
	src     *scanIter // the same scan
	entries []storage.IndexEntry
	words   []uint64 // the key column's key-word vector, by row ID
	lo, hi  int      // the entries a probe searches
	limit   int      // the outer rows the index answers; set once the drain ends

	pos int    // the current run's next entry; hi once spent
	w   uint64 // the current run's key word
}

// indexAnswered counts, process-wide, the join executions whose probes an
// index answered, indexSwitched those of them that switched to a build, and
// indexCounted the executions whose inner was counted, not drained (tests).
var indexAnswered, indexSwitched, indexCounted atomic.Int64

// indexProbe returns the probe of a stored index that can answer the join's
// probes, or nil when none can: the key is one column with a key-word vector,
// the inner a fresh serial table or index scan, and the index is in key-word
// order (storage.Table.KeyWordOrdered) — the scanned index leading with the
// key, or for a table scan a single-column index on it, whose stable sort
// lists one key's entries in row order. An exchange's lead never asks: its
// replicas probe the build concurrently.
func (j *joinIter) indexProbe() *indexProbe {
	if len(j.build) != 1 {
		return nil
	}
	var s *scanIter
	switch it := j.inner.(type) {
	case *tbscanIter:
		s = &it.scanIter
	case *ixscanIter:
		s = &it.scanIter
	default:
		return nil
	}
	k := &j.build[0]
	words := k.keyWords()
	if words == nil || s.pos != s.lo || s.end != s.hi {
		return nil
	}
	table, col := s.table, s.table.Def.Columns[k.off].Name
	def := s.idxDef
	if def == nil {
		def = singleColumnIndex(table.Def, col)
	} else if def.Columns[0] != col {
		return nil
	}
	if def == nil {
		return nil
	}
	idx := s.ctx.exec.DB.Index(table.Def.Name, def.Name)
	if idx == nil || !table.KeyWordOrdered(idx) {
		return nil
	}
	lo, hi := s.lo, s.hi // an index scan's entry range
	if s.idxDef == nil {
		lo, hi = 0, idx.Len() // a table scan reads every row
	}
	// pos = hi: no run until the first seek.
	return &indexProbe{scan: j.inner.(spineIter), src: s, entries: idx.Entries, words: words, lo: lo, hi: hi, pos: hi}
}

// singleColumnIndex returns an index of the table on the column alone, or nil.
func singleColumnIndex(def *catalog.Table, col string) *catalog.Index {
	for i := range def.Indexes {
		if ix := &def.Indexes[i]; len(ix.Columns) == 1 && ix.Columns[0] == col {
			return ix
		}
	}
	return nil
}

// seek starts the run of entries with key word w. NULL joins nothing.
func (x *indexProbe) seek(w uint64) {
	x.w, x.pos = w, x.hi
	if w != nullKeyWord {
		x.pos = x.search(w)
	}
}

// search returns the first entry whose word is not below w.
func (x *indexProbe) search(w uint64) int {
	lo, hi := x.lo, x.hi
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if catalog.KeyWordAbove(w, x.words[x.entries[m].RowID]) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// count stands in for the drain of an inner that compiled no predicate: every
// candidate passes, so the scan is booked as having read and passed all of
// them (its finalize charges that at Close) and b.n is their number. It
// returns what the drain would have met first, the width sample: row lo of a
// table scan, the row of entry lo of an index scan. With wantMax it sets the
// early-out bound as raiseMax would have: the last entry holds the largest
// word (NULLs sort first, and an all-NULL key leaves no bound), and the first
// entry of its run is the first row met with it — for a table scan too, as
// the stable index sort lists one word's entries in row order.
func (x *indexProbe) count(b *hashBuild, wantMax bool) (sample tuple) {
	indexCounted.Add(1)
	s := x.src
	if b.n = s.end - s.pos; b.n == 0 {
		return nil
	}
	first := s.pos
	if s.idxDef != nil {
		first = s.entries[first].RowID
	}
	s.pos, s.nScan, s.nOut = s.end, b.n, b.n
	if w := x.words[x.entries[x.hi-1].RowID]; wantMax && w != nullKeyWord {
		id := x.entries[x.search(w)].RowID
		b.maxWord, b.maxTuple = w, s.ids[id:id+1:id+1]
	}
	return s.ids[first : first+1 : first+1]
}

// next returns the row ID of the run's next entry the scan passes, or -1 once
// the run is spent.
func (x *indexProbe) next() int {
	for x.pos < x.hi {
		id := x.entries[x.pos].RowID
		if x.words[id] != x.w {
			break
		}
		x.pos++
		if x.src.match(id) {
			return id
		}
	}
	x.pos = x.hi
	return -1
}

// fill is the switch: it builds b from the scan's candidates, in drain order,
// and indexes it. A replica of the drained scan re-reads the immutable source;
// born charged, it books nothing a second time, and the rows are already held.
func (x *indexProbe) fill(b *hashBuild, workers int) {
	indexSwitched.Add(1)
	r := x.scan.replica(nil, &partition{lo: x.src.lo, hi: x.src.hi})
	for t, ok := r.Next(); ok; t, ok = r.Next() {
		b.add(t)
	}
	b.index(workers)
}
