package rdf

import (
	"cmp"
	"iter"
	"slices"
	"strconv"
	"strings"
)

// numEntry is one entry of the numeric secondary index: a triple
// (subject, predicate, numeric literal) recorded as (value, subject) in a
// per-predicate list sorted by (value, subject). It is the cardinality-band
// index: probe queries constrain hasLowerCardinality/hasHigherCardinality
// values with FILTER bounds, and the sorted list turns candidate-start
// resolution for such patterns from "every subject carrying the predicate"
// into a binary-searched band.
type numEntry struct {
	val  float64
	subj uint32
}

// predObjs is one element of a subject's SPO entry: a predicate the subject
// carries and the sorted IDs of its objects under it.
type predObjs struct {
	pred uint32
	objs []uint32
}

// predSubs is one element of an object's POS entry: a predicate that reaches
// the object and the sorted IDs of the subjects it reaches it from, chunked.
type predSubs struct {
	pred uint32
	// own is set once the batch that copied the entry has written subs:
	// the run is then on a spine of the batch's own (see run).
	own  bool
	subs run[uint32]
}

// Snapshot is one immutable epoch of a Store. Readers share snapshots
// without locks: nothing reachable from a snapshot is written after
// publication (a writer copies the pages and chunks its batch touches, shares
// the rest, and publishes a fresh Snapshot atomically).
type Snapshot struct {
	dict *dictionary
	// spo: subject -> the predicates it carries, ascending, each with its
	// sorted object IDs.
	spo table[[]predObjs]
	// pos: object -> the predicates reaching it, ascending, each with the
	// sorted IDs of its subjects. It is spo turned round: one table dense
	// over the term IDs, so a (predicate, object) pair costs an entry
	// element and its run, not a slot in a table of the predicate's own.
	// A per-predicate read scans it (byPredicate). There is no third
	// rotation: the only pattern OSP would answer, the object-only Match, has
	// no caller outside tests and reads one pos entry.
	pos table[[]predSubs]
	// num: predicate -> (value, subject) entries sorted by (value, subject),
	// for triples whose object is a numeric literal.
	num table[run[numEntry]]
	// predN counts the triples carrying each predicate.
	predN table[int]
	n     int
	// version counts mutations since the store was created; every published
	// epoch has a distinct, increasing version.
	version uint64
}

func emptySnapshot() *Snapshot { return &Snapshot{dict: &dictionary{}} }

// Len returns the number of distinct triples in the snapshot.
func (g *Snapshot) Len() int { return g.n }

// Version identifies the snapshot's epoch.
func (g *Snapshot) Version() uint64 { return g.version }

// The ID-level reads below are what the SPARQL evaluator binds: it resolves a
// query's constants once (ID), follows IDs through the indexes, and renders a
// term (Term) only for what a solution carries. Every slice they return
// without taking a buffer is the snapshot's own — immutable and shared by
// every reader — and must never be written; a caller wanting another order
// sorts a copy.

// ID returns the dictionary ID of t and whether t has been interned; a term
// never interned is in no triple.
func (g *Snapshot) ID(t Term) (uint32, bool) { return g.dict.lookup(t) }

// Term renders an ID the snapshot handed out.
func (g *Snapshot) Term(id uint32) Term { return g.dict.term(id) }

// ObjectIDs returns the objects of (subject, predicate), ascending.
func (g *Snapshot) ObjectIDs(subject, predicate uint32) []uint32 {
	entry := g.spo.get(subject)
	if i, found := searchPred(entry, predicate); found {
		return entry[i].objs
	}
	return nil
}

// SubjectIDs returns the subjects carrying (predicate, object), ascending, as
// the chunks of the posting list.
func (g *Snapshot) SubjectIDs(predicate, object uint32) [][]uint32 {
	entry := g.pos.get(object)
	if i, found := searchSubs(entry, predicate); found {
		return entry[i].subs
	}
	return nil
}

// byPredicate yields every object the predicate reaches, ascending, with its
// subjects. pos is keyed by object, so this scans the object table — until
// the runs yielded account for the predicate's whole triple count.
func (g *Snapshot) byPredicate(predicate uint32) iter.Seq2[uint32, run[uint32]] {
	return func(yield func(uint32, run[uint32]) bool) {
		left := g.predN.get(predicate)
		for o, entry := range g.pos.all() {
			if left == 0 {
				return
			}
			if i, found := searchSubs(*entry, predicate); found {
				subs := (*entry)[i].subs
				left -= subs.size()
				if !yield(o, subs) {
					return
				}
			}
		}
	}
}

// PredCount returns the number of triples carrying the predicate.
func (g *Snapshot) PredCount(predicate uint32) int { return g.predN.get(predicate) }

// PredSubjectIDs returns the distinct subjects carrying the predicate,
// ascending, in buf's storage. It scans the object table (byPredicate).
func (g *Snapshot) PredSubjectIDs(predicate uint32, buf []uint32) []uint32 {
	ids := buf[:0]
	for _, subs := range g.byPredicate(predicate) {
		for _, chunk := range subs {
			ids = append(ids, chunk...)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// numRange returns the positions in the band index that delimit the entries
// whose values lie in [lo, hi]; nil bounds are open.
func numRange(band run[numEntry], lo, hi *float64) (c0, i0, c1, i1 int) {
	if lo != nil {
		c0, i0 = band.search(func(e numEntry) bool { return e.val >= *lo })
	}
	c1 = len(band)
	if hi != nil {
		c1, i1 = band.search(func(e numEntry) bool { return e.val > *hi })
	}
	if c1 < c0 || c1 == c0 && i1 < i0 { // lo > hi: an empty band
		c1, i1 = c0, i0
	}
	return c0, i0, c1, i1
}

// BandCount counts the predicate's triples whose object is a numeric literal
// in [lo, hi] (nil bounds are open; a NaN is in no band).
func (g *Snapshot) BandCount(predicate uint32, lo, hi *float64) int {
	band := g.num.get(predicate)
	return band.between(numRange(band, lo, hi))
}

// BandSubjectIDs returns the distinct subjects carrying the predicate with a
// numeric literal object in [lo, hi], ascending, in buf's storage. This is
// the cardinality-band secondary index lookup: its cost follows the band, not
// the number of subjects carrying the predicate.
func (g *Snapshot) BandSubjectIDs(predicate uint32, lo, hi *float64, buf []uint32) []uint32 {
	band := g.num.get(predicate)
	c0, i0, c1, i1 := numRange(band, lo, hi)
	ids := buf[:0]
	for c := c0; c <= c1 && c < len(band); c++ {
		chunk := band[c]
		if c == c1 {
			chunk = chunk[:i1]
		}
		if c == c0 {
			chunk = chunk[i0:]
		}
		for _, e := range chunk {
			ids = append(ids, e.subj)
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Match returns the triples matching the pattern; nil components are
// wildcards. Results are in a deterministic order (ascending dictionary IDs,
// i.e. first-interned terms first); callers needing lexicographic order must
// sort the result themselves.
func (g *Snapshot) Match(subj, pred, obj *Term) []Triple {
	var sid, pid, oid uint32
	var ok bool
	if subj != nil {
		if sid, ok = g.dict.lookup(*subj); !ok {
			return nil
		}
	}
	if pred != nil {
		if pid, ok = g.dict.lookup(*pred); !ok {
			return nil
		}
	}
	if obj != nil {
		if oid, ok = g.dict.lookup(*obj); !ok {
			return nil
		}
	}
	var out []Triple
	switch {
	case subj != nil:
		for _, po := range g.spo.get(sid) {
			if pred != nil && po.pred != pid {
				continue
			}
			pt := g.dict.term(po.pred)
			for _, o := range po.objs {
				if obj == nil || o == oid {
					out = append(out, Triple{*subj, pt, g.dict.term(o)})
				}
			}
		}
	case pred != nil && obj != nil:
		for _, chunk := range g.SubjectIDs(pid, oid) {
			for _, su := range chunk {
				out = append(out, Triple{g.dict.term(su), *pred, *obj})
			}
		}
	case pred != nil:
		for o, subs := range g.byPredicate(pid) {
			for _, chunk := range subs {
				for _, su := range chunk {
					out = append(out, Triple{g.dict.term(su), *pred, g.dict.term(o)})
				}
			}
		}
	case obj != nil:
		// Gathered predicate by predicate, then put into the
		// subject-then-predicate order an OSP rotation would have kept.
		type sp struct{ s, p uint32 }
		var hits []sp
		for _, ps := range g.pos.get(oid) {
			for _, chunk := range ps.subs {
				for _, su := range chunk {
					hits = append(hits, sp{su, ps.pred})
				}
			}
		}
		slices.SortFunc(hits, func(a, b sp) int {
			return cmp.Or(cmp.Compare(a.s, b.s), cmp.Compare(a.p, b.p))
		})
		for _, h := range hits {
			out = append(out, Triple{g.dict.term(h.s), g.dict.term(h.p), *obj})
		}
	default:
		out = make([]Triple, 0, g.n)
		for su, entry := range g.spo.all() {
			for _, po := range *entry {
				st, pt := g.dict.term(su), g.dict.term(po.pred)
				for _, o := range po.objs {
					out = append(out, Triple{st, pt, g.dict.term(o)})
				}
			}
		}
	}
	return out
}

// NTriples serializes the snapshot in N-Triples format with a deterministic,
// lexicographically sorted line order.
func (g *Snapshot) NTriples() string {
	var w NTriplesWriter
	w.AddSnapshot(g)
	return w.String()
}

// bandValue is numericLiteral without NaN, which no [lo, hi] band holds and
// no (value, subject) order places.
func bandValue(t Term) (float64, bool) {
	f, ok := numericLiteral(t)
	return f, ok && f == f
}

// numericLiteral parses a literal term's numeric value for the secondary
// index; ok is false for IRIs and non-numeric literals.
func numericLiteral(t Term) (float64, bool) {
	if t.Kind != Literal {
		return 0, false
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(t.Value), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}
