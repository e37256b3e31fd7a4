package rdf

import (
	"cmp"
	"slices"
	"strings"
)

// mutation builds the next epoch Snapshot from a base snapshot by
// copying-on-write exactly what the batch touches. The index tables start as
// the base's own (a table is a root slice header) and copy a page the first
// time the batch writes through it; a posting list or band-index run copies
// its spine and the chunk written, once, and takes the batch's later writes
// in place; the dictionary gains one level holding the batch's new terms.
// Readers holding the base snapshot therefore never observe a batch in
// progress, and an AddAll/Apply batch becomes visible with one atomic pointer
// swap.
type mutation struct {
	// edit stamps what this batch owns (see table.go).
	edit uint64
	dict *dictionary
	// terms is the base's term list extended by fresh, the batch's new terms.
	terms   []Term
	fresh   map[Term]uint32
	spo     table[[]predObjs]
	pos     table[[]predSubs]
	num     table[run[numEntry]]
	predN   table[int]
	n       int
	changes uint64
}

func newMutation(base *Snapshot, edit uint64) *mutation {
	return &mutation{
		edit:  edit,
		dict:  base.dict,
		terms: base.dict.terms,
		spo:   base.spo,
		pos:   base.pos,
		num:   base.num,
		predN: base.predN,
		n:     base.n,
	}
}

// lookup returns the term's ID when the base or this batch has interned it.
func (m *mutation) lookup(t Term) (uint32, bool) {
	if id, ok := m.dict.lookup(t); ok {
		return id, true
	}
	id, ok := m.fresh[t]
	return id, ok
}

// intern returns the term's dictionary ID, assigning the next dense one on
// first sight. A fresh term is kept as a copy of its bytes: t may be a
// substring of a parsed document, which the dictionary would otherwise keep
// whole for as long as it keeps the term.
func (m *mutation) intern(t Term) uint32 {
	if id, ok := m.lookup(t); ok {
		return id
	}
	if m.fresh == nil {
		m.fresh = map[Term]uint32{}
	}
	t.Value = strings.Clone(t.Value)
	id := uint32(len(m.terms))
	m.terms = append(m.terms, t)
	m.fresh[t] = id
	return id
}

// add inserts a triple; it reports false when the triple was already present
// (duplicates are ignored).
func (m *mutation) add(t Triple) bool {
	sid := m.intern(t.S)
	pid := m.intern(t.P)
	oid := m.intern(t.O)
	// The subject's entry is small (one element per predicate it carries,
	// nearly always one object each), so it is rebuilt rather than owned.
	entry := m.spo.get(sid)
	if i, found := searchPred(entry, pid); !found {
		entry = insertAt(entry, i, predObjs{pid, []uint32{oid}})
	} else if j, dup := slices.BinarySearch(entry[i].objs, oid); !dup {
		entry = slices.Clone(entry)
		entry[i].objs = insertAt(entry[i].objs, j, oid)
	} else {
		return false
	}
	m.setEntry(sid, entry)

	preds := m.posEntry(oid)
	i, found := searchSubs(*preds, pid)
	if !found {
		*preds = slices.Insert(*preds, i, predSubs{pred: pid, own: true})
	}
	ps := &(*preds)[i]
	ps.subs, ps.own = ps.subs.insert(sid, cmp.Compare[uint32], ps.own), true
	if val, ok := bandValue(t.O); ok {
		band, owned := m.num.slot(m.edit, pid)
		*band = band.insert(numEntry{val, sid}, compareNum, owned)
	}
	m.count(pid, +1)
	return true
}

// remove deletes one triple; it reports false when the triple is absent.
func (m *mutation) remove(t Triple) bool {
	sid, ok1 := m.lookup(t.S)
	pid, ok2 := m.lookup(t.P)
	oid, ok3 := m.lookup(t.O)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	entry := m.spo.get(sid)
	i, found := searchPred(entry, pid)
	if !found {
		return false
	}
	objs := entry[i].objs
	j, found := slices.BinarySearch(objs, oid)
	if !found {
		return false
	}
	if len(objs) == 1 {
		entry = removeAt(entry, i)
	} else {
		entry = slices.Clone(entry)
		entry[i].objs = removeAt(objs, j)
	}
	m.setEntry(sid, entry)

	preds := m.posEntry(oid)
	if i, found := searchSubs(*preds, pid); found {
		ps := &(*preds)[i]
		ps.subs, _ = ps.subs.remove(sid, cmp.Compare[uint32], ps.own)
		ps.own = true
		if len(ps.subs) == 0 {
			*preds = slices.Delete(*preds, i, i+1)
		}
	}
	if val, ok := bandValue(t.O); ok {
		band, owned := m.num.slot(m.edit, pid)
		*band, _ = band.remove(numEntry{val, sid}, compareNum, owned)
	}
	m.count(pid, -1)
	return true
}

func (m *mutation) setEntry(sid uint32, entry []predObjs) {
	v, _ := m.spo.slot(m.edit, sid)
	*v = entry
}

// posEntry returns the object's POS entry for the batch to write through.
// The batch's first visit replaces the base's entry by a copy in which every
// run is marked inherited; an element's run is the batch's own once it has
// been written.
func (m *mutation) posEntry(oid uint32) *[]predSubs {
	entry, again := m.pos.slot(m.edit, oid)
	if !again {
		*entry = slices.Clone(*entry)
		for i := range *entry {
			(*entry)[i].own = false
		}
	}
	return entry
}

// count records one triple more (by = +1) or less (-1) under the predicate.
func (m *mutation) count(pid uint32, by int) {
	p, _ := m.predN.slot(m.edit, pid)
	*p += by
	m.n += by
	m.changes++
}

// searchPred returns the place of pred in the subject's predicate-sorted
// entry, and whether it is there.
func searchPred(entry []predObjs, pred uint32) (int, bool) {
	i := 0
	for i < len(entry) && entry[i].pred < pred {
		i++
	}
	return i, i < len(entry) && entry[i].pred == pred
}

// searchSubs is searchPred over an object's POS entry. (One generic over
// both would call a method per element, and be inlined into no probe read.)
func searchSubs(entry []predSubs, pred uint32) (int, bool) {
	i := 0
	for i < len(entry) && entry[i].pred < pred {
		i++
	}
	return i, i < len(entry) && entry[i].pred == pred
}

// insertAt returns a copy of list with v at index i.
func insertAt[T any](list []T, i int, v T) []T {
	out := make([]T, len(list)+1)
	copy(out, list[:i])
	out[i] = v
	copy(out[i+1:], list[i:])
	return out
}

// removeAt returns a copy of list without the element at index i.
func removeAt[T any](list []T, i int) []T {
	out := make([]T, len(list)-1)
	copy(out, list[:i])
	copy(out[i:], list[i+1:])
	return out
}

// compareNum orders band-index entries by (value, subject). Distinct triples
// whose objects parse to the same value (e.g. "1" and "1.0") produce one
// entry each; remove takes out one occurrence per removed triple.
func compareNum(a, b numEntry) int {
	if c := cmp.Compare(a.val, b.val); c != 0 {
		return c
	}
	return cmp.Compare(a.subj, b.subj)
}

// publishable returns the next epoch's snapshot, or nil when the batch
// changed nothing (so the version — and with it every version-keyed cache —
// stays put).
func (m *mutation) publishable(base *Snapshot) *Snapshot {
	if m.changes == 0 {
		return nil
	}
	dict := m.dict
	if m.fresh != nil {
		dict = dict.push(m.terms, m.fresh)
	}
	return &Snapshot{
		dict:    dict,
		spo:     m.spo,
		pos:     m.pos,
		num:     m.num,
		predN:   m.predN,
		n:       m.n,
		version: base.version + m.changes,
	}
}
