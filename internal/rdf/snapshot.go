package rdf

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Graph is the read-only view of a triple store. Both *Store (always the
// latest published epoch) and *Snapshot (one pinned epoch) implement it, so
// code that only reads — the SPARQL evaluator above all — can run against
// either: against the live store for convenience, or against a pinned
// snapshot when a multi-step evaluation must see one consistent epoch.
type Graph interface {
	// Match returns the triples matching the pattern; nil components are
	// wildcards.
	Match(subj, pred, obj *Term) []Triple
	// Subjects returns every distinct subject.
	Subjects() []Term
	// ObjectsOf returns the objects of (subject, predicate).
	ObjectsOf(subject, predicate Term) []Term
	// SubjectsOf returns the subjects carrying (predicate, object).
	SubjectsOf(predicate, object Term) []Term
	// SubjectsWithPred returns the distinct subjects carrying the predicate.
	SubjectsWithPred(predicate Term) []Term
	// SubjectsWithPredInRange returns the distinct subjects carrying the
	// predicate with a numeric literal object in [lo, hi] (nil bounds are
	// open), answered from the numeric secondary index.
	SubjectsWithPredInRange(predicate Term, lo, hi *float64) []Term
	// CountSP / CountPO / CountP / CountO are the cardinality accessors the
	// selectivity-ordered SPARQL evaluator estimates with.
	CountSP(subject, predicate Term) int
	CountPO(predicate, object Term) int
	CountP(predicate Term) int
	CountO(object Term) int
	// CountPInRange counts the predicate's triples whose numeric literal
	// object lies in [lo, hi] (nil bounds are open).
	CountPInRange(predicate Term, lo, hi *float64) int
	// FirstObject returns the first object of (subject, predicate).
	FirstObject(subject, predicate Term) (Term, bool)
	// Len returns the number of distinct triples.
	Len() int
	// Version identifies the epoch of the contents.
	Version() uint64
}

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

// Snapshot is one immutable epoch of a Store. Readers share snapshots
// without locks: nothing reachable from a snapshot is written after
// publication (a writer copies the pages and chunks its batch touches, shares
// the rest, and publishes a fresh Snapshot atomically).
type Snapshot struct {
	dict *dictionary
	// spo: subject -> the predicates it carries, ascending, each with its
	// sorted object IDs.
	spo table[[]predObjs]
	// pos: predicate -> object -> sorted subject IDs. There is no third
	// rotation: the only pattern OSP would answer, the object-only Match, has
	// no caller outside tests and gathers from pos.
	pos table[table[run[uint32]]]
	// num: predicate -> (value, subject) entries sorted by (value, subject),
	// for triples whose object is a numeric literal.
	num table[run[numEntry]]
	// predN / objN count the triples carrying each predicate / object.
	predN table[int]
	objN  table[int]
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

// lookup resolves terms to dictionary IDs; ok is false as soon as one of
// them was never interned.
func (g *Snapshot) lookup(a, b Term) (aid, bid uint32, ok bool) {
	if aid, ok = g.dict.lookup(a); !ok {
		return 0, 0, false
	}
	bid, ok = g.dict.lookup(b)
	return aid, bid, ok
}

// objects returns the sorted object IDs of (subject, predicate).
func (g *Snapshot) objects(sid, pid uint32) []uint32 {
	entry := g.spo.get(sid)
	if i, found := searchPred(entry, pid); found {
		return entry[i].objs
	}
	return nil
}

// subjects returns the sorted subject IDs of (predicate, object).
func (g *Snapshot) subjects(pid, oid uint32) run[uint32] {
	byObj := g.pos.get(pid)
	return byObj.get(oid)
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
		for _, chunk := range g.subjects(pid, oid) {
			for _, su := range chunk {
				out = append(out, Triple{g.dict.term(su), *pred, *obj})
			}
		}
	case pred != nil:
		byObj := g.pos.get(pid)
		for o, subs := range byObj.all() {
			for _, chunk := range *subs {
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
		for p, byObj := range g.pos.all() {
			for _, chunk := range byObj.get(oid) {
				for _, su := range chunk {
					hits = append(hits, sp{su, p})
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

// Subjects returns every distinct subject in the snapshot, in deterministic
// (dictionary ID) order.
func (g *Snapshot) Subjects() []Term {
	var out []Term
	for su, entry := range g.spo.all() {
		if len(*entry) > 0 {
			out = append(out, g.dict.term(su))
		}
	}
	return out
}

func (g *Snapshot) termsOf(ids []uint32) []Term {
	out := make([]Term, len(ids))
	for i, id := range ids {
		out[i] = g.dict.term(id)
	}
	return out
}

// sortedDistinctTerms renders the IDs, which it sorts in place, as terms in
// ID order without repeats.
func (g *Snapshot) sortedDistinctTerms(ids []uint32) []Term {
	slices.Sort(ids)
	return g.termsOf(slices.Compact(ids))
}

// ObjectsOf returns the objects of (subject, predicate) in deterministic
// (dictionary ID) order.
func (g *Snapshot) ObjectsOf(subject, predicate Term) []Term {
	sid, pid, ok := g.lookup(subject, predicate)
	if !ok {
		return nil
	}
	return g.termsOf(g.objects(sid, pid))
}

// SubjectsOf returns the subjects carrying (predicate, object) in
// deterministic (dictionary ID) order — the reverse of ObjectsOf, answered
// from the POS index without scanning.
func (g *Snapshot) SubjectsOf(predicate, object Term) []Term {
	pid, oid, ok := g.lookup(predicate, object)
	if !ok {
		return nil
	}
	subs := g.subjects(pid, oid)
	out := make([]Term, 0, subs.size())
	for _, chunk := range subs {
		for _, su := range chunk {
			out = append(out, g.dict.term(su))
		}
	}
	return out
}

// SubjectsWithPred returns the distinct subjects that carry at least one
// triple with the given predicate, in deterministic (dictionary ID) order.
func (g *Snapshot) SubjectsWithPred(predicate Term) []Term {
	pid, ok := g.dict.lookup(predicate)
	if !ok {
		return nil
	}
	byObj := g.pos.get(pid)
	ids := make([]uint32, 0, g.predN.get(pid))
	for _, subs := range byObj.all() {
		for _, chunk := range *subs {
			ids = append(ids, chunk...)
		}
	}
	return g.sortedDistinctTerms(ids)
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

// SubjectsWithPredInRange returns the distinct subjects carrying the
// predicate with a numeric literal object in [lo, hi] (nil bounds are open),
// in deterministic (dictionary ID) order. This is the cardinality-band
// secondary index lookup: cost is proportional to the band, not to the
// number of subjects carrying the predicate.
func (g *Snapshot) SubjectsWithPredInRange(predicate Term, lo, hi *float64) []Term {
	pid, ok := g.dict.lookup(predicate)
	if !ok {
		return nil
	}
	band := g.num.get(pid)
	c0, i0, c1, i1 := numRange(band, lo, hi)
	n := band.between(c0, i0, c1, i1)
	if n == 0 {
		return nil
	}
	ids := make([]uint32, 0, n)
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
	return g.sortedDistinctTerms(ids)
}

// CountPInRange counts the predicate's triples whose numeric literal object
// lies in [lo, hi] (nil bounds are open).
func (g *Snapshot) CountPInRange(predicate Term, lo, hi *float64) int {
	pid, ok := g.dict.lookup(predicate)
	if !ok {
		return 0
	}
	band := g.num.get(pid)
	return band.between(numRange(band, lo, hi))
}

// CountSP returns the number of triples with the given subject and predicate.
func (g *Snapshot) CountSP(subject, predicate Term) int {
	sid, pid, ok := g.lookup(subject, predicate)
	if !ok {
		return 0
	}
	return len(g.objects(sid, pid))
}

// CountPO returns the number of triples with the given predicate and object.
func (g *Snapshot) CountPO(predicate, object Term) int {
	pid, oid, ok := g.lookup(predicate, object)
	if !ok {
		return 0
	}
	return g.subjects(pid, oid).size()
}

// CountP returns the number of triples carrying the given predicate.
func (g *Snapshot) CountP(predicate Term) int {
	pid, ok := g.dict.lookup(predicate)
	if !ok {
		return 0
	}
	return g.predN.get(pid)
}

// CountO returns the number of triples carrying the given object.
func (g *Snapshot) CountO(object Term) int {
	oid, ok := g.dict.lookup(object)
	if !ok {
		return 0
	}
	return g.objN.get(oid)
}

// FirstObject returns the first object of (subject, predicate) — in
// deterministic dictionary-ID order — and whether it exists.
func (g *Snapshot) FirstObject(subject, predicate Term) (Term, bool) {
	sid, pid, ok := g.lookup(subject, predicate)
	if !ok {
		return Term{}, false
	}
	objs := g.objects(sid, pid)
	if len(objs) == 0 {
		return Term{}, false
	}
	return g.dict.term(objs[0]), true
}

// NTriples serializes the snapshot in N-Triples format with a deterministic,
// lexicographically sorted line order.
func (g *Snapshot) NTriples() string {
	triples := g.Match(nil, nil, nil)
	lines := make([]string, len(triples))
	for i, t := range triples {
		lines[i] = t.String()
	}
	sort.Strings(lines)
	var b strings.Builder
	for _, line := range lines {
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
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
