package rdf

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// model is the store the way a reader of its documentation would write it: a
// set of triples, the order in which terms were first seen, and a version
// that counts effective changes. Every read of a snapshot is recomputed from
// it by filtering and sorting, and compared with the store's answer element
// by element — order included, since LIMIT cuts by it.
type model struct {
	triples map[Triple]struct{}
	ids     map[Term]int
	version uint64
}

func newModel() *model {
	return &model{triples: map[Triple]struct{}{}, ids: map[Term]int{}}
}

func (m *model) clone() *model {
	return &model{triples: maps.Clone(m.triples), ids: maps.Clone(m.ids), version: m.version}
}

func (m *model) intern(t Term) {
	if _, ok := m.ids[t]; !ok {
		m.ids[t] = len(m.ids)
	}
}

func matches(p Pattern, t Triple) bool {
	return (p.S == nil || *p.S == t.S) && (p.P == nil || *p.P == t.P) && (p.O == nil || *p.O == t.O)
}

// apply mirrors Store.Apply: the victims are chosen against the state before
// the batch, then the additions go in, and the version moves by the number of
// triples that actually left or entered.
func (m *model) apply(removals []Pattern, additions []Triple) int {
	var victims []Triple
	for t := range m.triples {
		if slices.ContainsFunc(removals, func(p Pattern) bool { return matches(p, t) }) {
			victims = append(victims, t)
		}
	}
	for _, t := range victims {
		delete(m.triples, t)
	}
	m.version += uint64(len(victims))
	for _, t := range additions {
		m.intern(t.S)
		m.intern(t.P)
		m.intern(t.O)
		if _, dup := m.triples[t]; !dup {
			m.triples[t] = struct{}{}
			m.version++
		}
	}
	return len(victims)
}

// view is the model's triples grouped for one check, so that a pattern
// filters the triples of its most selective component, not the whole set.
type view struct {
	*model
	all           []Triple
	byS, byP, byO map[Term][]Triple
}

func (m *model) view() *view {
	v := &view{model: m, byS: map[Term][]Triple{}, byP: map[Term][]Triple{}, byO: map[Term][]Triple{}}
	for t := range m.triples {
		v.all = append(v.all, t)
		v.byS[t.S] = append(v.byS[t.S], t)
		v.byP[t.P] = append(v.byP[t.P], t)
		v.byO[t.O] = append(v.byO[t.O], t)
	}
	return v
}

// sorted returns the model's triples matching p, ordered by the dictionary
// IDs of the components in the given order ("spo", "os" → o then s, ...).
func (m *view) sorted(p Pattern, order string) []Triple {
	from := m.all
	switch {
	case p.S != nil:
		from = m.byS[*p.S]
	case p.O != nil:
		from = m.byO[*p.O]
	case p.P != nil:
		from = m.byP[*p.P]
	}
	type keyed struct {
		key [3]int
		t   Triple
	}
	var hits []keyed
	for _, t := range from {
		if !matches(p, t) {
			continue
		}
		k := keyed{t: t}
		for i, c := range order {
			switch c {
			case 's':
				k.key[i] = m.ids[t.S]
			case 'p':
				k.key[i] = m.ids[t.P]
			default:
				k.key[i] = m.ids[t.O]
			}
		}
		hits = append(hits, k)
	}
	slices.SortFunc(hits, func(a, b keyed) int { return slices.Compare(a.key[:], b.key[:]) })
	var out []Triple
	for _, h := range hits {
		out = append(out, h.t)
	}
	return out
}

// distinct returns the terms in first-seen order without repeats.
func (m *model) distinct(terms []Term) []Term {
	seen := map[Term]bool{}
	var ids []int
	byID := map[int]Term{}
	for _, t := range terms {
		if !seen[t] {
			seen[t] = true
			ids = append(ids, m.ids[t])
			byID[m.ids[t]] = t
		}
	}
	sort.Ints(ids)
	var out []Term
	for _, id := range ids {
		out = append(out, byID[id])
	}
	return out
}

func inBand(t Term, lo, hi *float64) bool {
	v, ok := t.Float()
	return ok && !math.IsNaN(v) && (lo == nil || v >= *lo) && (hi == nil || v <= *hi)
}

// probe is the sample of terms one check asks about.
type probe struct {
	subjects, preds, objects []Term
	bands                    [][2]*float64
}

// check compares every read of the snapshot (and NTriples) with the model.
// The ID-level accessors are held to it with their IDs rendered through the
// snapshot's own terms, order included: ascending IDs are first-seen order.
func check(g *Snapshot, mod *model, pr probe) error {
	m := mod.view()
	if g.Len() != len(m.triples) {
		return fmt.Errorf("Len = %d, model %d", g.Len(), len(m.triples))
	}
	if g.Version() != m.version {
		return fmt.Errorf("Version = %d, model %d", g.Version(), m.version)
	}
	all := m.sorted(Pattern{}, "spo")
	if got := g.Match(nil, nil, nil); !slices.Equal(got, all) {
		return fmt.Errorf("Match(nil, nil, nil): %d triples, model %d (or another order)", len(got), len(all))
	}
	lines := make([]string, len(all))
	for i, t := range all {
		lines[i] = t.String() + "\n"
	}
	sort.Strings(lines)
	if got := g.NTriples(); got != strings.Join(lines, "") {
		return fmt.Errorf("NTriples differs from the model's sorted lines")
	}
	// id resolves a probed term; a term the model never interned must have no
	// ID either, and an ID must render back to its term.
	id := func(t Term) (uint32, bool, error) {
		got, ok := g.ID(t)
		if _, want := m.ids[t]; ok != want {
			return 0, false, fmt.Errorf("ID(%v) ok=%v, model interned=%v", t, ok, want)
		}
		if ok && g.Term(got) != t {
			return 0, false, fmt.Errorf("Term(ID(%v)) = %v", t, g.Term(got))
		}
		return got, ok, nil
	}
	render := func(ids []uint32) []Term {
		var out []Term
		for _, x := range ids {
			out = append(out, g.Term(x))
		}
		return out
	}
	flat := func(chunks [][]uint32) []uint32 {
		var out []uint32
		for _, c := range chunks {
			out = append(out, c...)
		}
		return out
	}
	for _, s := range pr.subjects {
		sid, sok, err := id(s)
		if err != nil {
			return err
		}
		if got, want := g.Match(&s, nil, nil), m.sorted(Pattern{S: &s}, "po"); !slices.Equal(got, want) {
			return fmt.Errorf("Match(%v, nil, nil) = %v, model %v", s, got, want)
		}
		for _, o := range pr.objects {
			if got, want := g.Match(&s, nil, &o), m.sorted(Pattern{S: &s, O: &o}, "p"); !slices.Equal(got, want) {
				return fmt.Errorf("Match(%v, nil, %v) = %v, model %v", s, o, got, want)
			}
		}
		for _, p := range pr.preds {
			pid, pok, err := id(p)
			if err != nil {
				return err
			}
			want := m.sorted(Pattern{S: &s, P: &p}, "o")
			if got := g.Match(&s, &p, nil); !slices.Equal(got, want) {
				return fmt.Errorf("Match(%v, %v, nil) = %v, model %v", s, p, got, want)
			}
			var objs []Term
			for _, t := range want {
				objs = append(objs, t.O)
			}
			if sok && pok {
				if got := render(g.ObjectIDs(sid, pid)); !slices.Equal(got, objs) {
					return fmt.Errorf("ObjectIDs(%v, %v) = %v, model %v", s, p, got, objs)
				}
			}
			for _, o := range pr.objects {
				_, present := m.triples[Triple{s, p, o}]
				if got := g.Match(&s, &p, &o); (len(got) == 1) != present || (present && got[0] != Triple{s, p, o}) {
					return fmt.Errorf("Match(%v, %v, %v) = %v, model present=%v", s, p, o, got, present)
				}
			}
		}
	}
	for _, p := range pr.preds {
		pid, pok, err := id(p)
		if err != nil {
			return err
		}
		want := m.sorted(Pattern{P: &p}, "os")
		if got := g.Match(nil, &p, nil); !slices.Equal(got, want) {
			return fmt.Errorf("Match(nil, %v, nil): %d triples, model %d (or another order)", p, len(got), len(want))
		}
		var subs []Term
		for _, t := range want {
			subs = append(subs, t.S)
		}
		if pok {
			if got := g.PredCount(pid); got != len(want) {
				return fmt.Errorf("PredCount(%v) = %d, model %d", p, got, len(want))
			}
			if got, want := render(g.PredSubjectIDs(pid, nil)), m.distinct(subs); !slices.Equal(got, want) {
				return fmt.Errorf("PredSubjectIDs(%v) = %v, model %v", p, got, want)
			}
		}
		for _, o := range pr.objects {
			oid, ook, err := id(o)
			if err != nil {
				return err
			}
			want := m.sorted(Pattern{P: &p, O: &o}, "s")
			if got := g.Match(nil, &p, &o); !slices.Equal(got, want) {
				return fmt.Errorf("Match(nil, %v, %v) = %v, model %v", p, o, got, want)
			}
			var subs []Term
			for _, t := range want {
				subs = append(subs, t.S)
			}
			if pok && ook {
				if got := render(flat(g.SubjectIDs(pid, oid))); !slices.Equal(got, subs) {
					return fmt.Errorf("SubjectIDs(%v, %v) = %v, model %v", p, o, got, subs)
				}
			}
		}
		if !pok {
			continue
		}
		for _, b := range pr.bands {
			n := 0
			var subs []Term
			for _, t := range want {
				if inBand(t.O, b[0], b[1]) {
					n++
					subs = append(subs, t.S)
				}
			}
			if got := g.BandCount(pid, b[0], b[1]); got != n {
				return fmt.Errorf("BandCount(%v, %s) = %d, model %d", p, bandString(b), got, n)
			}
			// A used buffer must not leak into the answer.
			buf := []uint32{7, 7, 7}
			if got, want := render(g.BandSubjectIDs(pid, b[0], b[1], buf)), m.distinct(subs); !slices.Equal(got, want) {
				return fmt.Errorf("BandSubjectIDs(%v, %s) = %v, model %v", p, bandString(b), got, want)
			}
		}
	}
	for _, o := range pr.objects {
		want := m.sorted(Pattern{O: &o}, "sp")
		if got := g.Match(nil, nil, &o); !slices.Equal(got, want) {
			return fmt.Errorf("Match(nil, nil, %v) = %v, model %v", o, got, want)
		}
	}
	return nil
}

func bandString(b [2]*float64) string {
	s := "[-inf, "
	if b[0] != nil {
		s = fmt.Sprintf("[%v, ", *b[0])
	}
	if b[1] != nil {
		return s + fmt.Sprintf("%v]", *b[1])
	}
	return s + "+inf]"
}

// history generates a store's life: seeded batches over a vocabulary whose
// size decides how many index pages the IDs span.
type history struct {
	rng      *rand.Rand
	subjects []Term
	preds    []Term
	objects  []Term
	maxBatch int
}

func newHistory(seed int64, subjects, maxBatch int) *history {
	h := &history{rng: rand.New(rand.NewSource(seed)), maxBatch: maxBatch}
	for i := 0; i < subjects; i++ {
		h.subjects = append(h.subjects, NewIRI(fmt.Sprintf("http://m/s%d", i)))
	}
	for i := 0; i < 6; i++ {
		h.preds = append(h.preds, NewIRI(fmt.Sprintf("http://m/p%d", i)))
	}
	// Objects: a few heavily shared literals (long posting lists), numbers
	// under several spellings of one value (repeated band entries), values
	// no band holds or orders, and subjects (a term on both sides).
	for _, v := range []string{"TBSCAN", "HSJOIN", "true", "NaN", "Inf", "-Inf", "1", "1.0", "01", " 2 ", "2e0", "x y"} {
		h.objects = append(h.objects, NewLiteral(v))
	}
	for i := 0; i < subjects/2; i++ {
		h.objects = append(h.objects, NewNumericLiteral(float64(h.rng.Intn(400))/4))
	}
	h.objects = append(h.objects, h.subjects[:subjects/4]...)
	return h
}

func pick(rng *rand.Rand, terms []Term) Term { return terms[rng.Intn(len(terms))] }

func (h *history) triple() Triple {
	o := pick(h.rng, h.objects)
	if h.rng.Intn(3) == 0 {
		o = h.objects[h.rng.Intn(3)] // one of the heavily shared
	}
	return Triple{pick(h.rng, h.subjects), pick(h.rng, h.preds), o}
}

func (h *history) batch(n int) []Triple {
	out := make([]Triple, n)
	for i := range out {
		out[i] = h.triple()
	}
	return out
}

func (h *history) pattern() Pattern {
	var p Pattern
	shape := h.rng.Intn(7) + 1 // never the all-wildcard pattern
	if shape&1 != 0 {
		s := pick(h.rng, h.subjects)
		p.S = &s
	}
	if shape&2 != 0 {
		pr := pick(h.rng, h.preds)
		p.P = &pr
	}
	if shape&4 != 0 {
		o := pick(h.rng, h.objects)
		p.O = &o
	}
	return p
}

// present returns up to n triples the store holds, the candidates for
// re-adding or removing something that is really there.
func (h *history) present(s *Store, n int) []Triple {
	all := s.Match(nil, nil, nil)
	if len(all) == 0 {
		return nil
	}
	out := make([]Triple, n)
	for i := range out {
		out[i] = all[h.rng.Intn(len(all))]
	}
	return out
}

// step applies one generated batch to the store and the model alike.
func (h *history) step(s *Store, m *model) error {
	size := 1 + h.rng.Intn(h.maxBatch)
	var removals []Pattern
	var additions []Triple
	switch kind := h.rng.Intn(10); kind {
	case 0, 1, 2: // AddAll
		additions = h.batch(size)
		s.AddAll(additions)
		m.apply(nil, additions)
		return nil
	case 3: // Remove, any shape
		p := h.pattern()
		if got, want := s.Remove(p.S, p.P, p.O), m.apply([]Pattern{p}, nil); got != want {
			return fmt.Errorf("Remove returned %d, model %d", got, want)
		}
		return nil
	case 4: // nothing but duplicates and absent removals: the version stays
		additions = h.present(s, size)
		absent := NewIRI("http://m/absent")
		removals = []Pattern{{S: &absent}, {O: &absent}}
	case 5: // a run of neighbouring subjects leaves at once (pages empty out)
		from := h.rng.Intn(len(h.subjects))
		for i := from; i < min(from+80, len(h.subjects)); i++ {
			removals = append(removals, Pattern{S: &h.subjects[i]})
		}
	case 6: // a predicate empties
		removals = []Pattern{{P: &h.preds[h.rng.Intn(len(h.preds))]}}
		additions = h.batch(size / 4)
	case 7: // removed and re-added in one batch, beside fresh triples
		additions = h.present(s, size/2)
		for i := range additions {
			removals = append(removals, Pattern{S: &additions[i].S, P: &additions[i].P, O: &additions[i].O})
		}
		additions = append(additions, h.batch(size/2)...)
	default: // replace what some patterns cover
		for i := 0; i < 1+h.rng.Intn(4); i++ {
			removals = append(removals, h.pattern())
		}
		additions = h.batch(size)
	}
	if got, want := s.Apply(removals, additions), m.apply(removals, additions); got != want {
		return fmt.Errorf("Apply returned %d removed, model %d", got, want)
	}
	return nil
}

func (h *history) probe() probe {
	pr := probe{preds: append([]Term{NewIRI("http://m/unknown")}, h.preds...)}
	for i := 0; i < 6; i++ {
		pr.subjects = append(pr.subjects, pick(h.rng, h.subjects))
		pr.objects = append(pr.objects, pick(h.rng, h.objects))
	}
	pr.subjects = append(pr.subjects, NewLiteral("never a subject"))
	pr.objects = append(pr.objects, h.objects[h.rng.Intn(3)], NewLiteral("never an object"))
	lo, hi := float64(h.rng.Intn(100)), float64(h.rng.Intn(100))
	pr.bands = [][2]*float64{{nil, nil}, {&lo, nil}, {nil, &hi}, {&lo, &hi}, {&lo, &lo}}
	return pr
}

var modelHistories = []struct {
	name               string
	subjects, maxBatch int
	steps              int
}{
	// A few index pages, many epochs.
	{"narrow", 150, 40, 400},
	// IDs beyond one node of pages, posting lists and bands of many chunks.
	{"wide", 6000, 1200, 40},
}

// TestStoreAgainstModel drives generated histories — AddAll, Apply with
// removals and additions, Remove in every shape, duplicate-only batches —
// against the model, comparing every accessor after every step. Every tenth
// epoch stays pinned and is compared again at the end: structure sharing
// must never let a later write show in an earlier epoch.
func TestStoreAgainstModel(t *testing.T) {
	for _, hc := range modelHistories {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", hc.name, seed), func(t *testing.T) {
				steps := hc.steps
				if testing.Short() {
					steps /= 4
				}
				h := newHistory(seed, hc.subjects, hc.maxBatch)
				s, m := NewStore(), newModel()
				type pinned struct {
					snap  *Snapshot
					model *model
					probe probe
				}
				var pins []pinned
				for i := 0; i < steps; i++ {
					if err := h.step(s, m); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					pr := h.probe()
					if err := check(s.Snapshot(), m, pr); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					if i%10 == 0 {
						pins = append(pins, pinned{s.Snapshot(), m.clone(), pr})
					}
				}
				for i, p := range pins {
					if err := check(p.snap, p.model, p.probe); err != nil {
						t.Fatalf("epoch pinned at step %d changed: %v", i*10, err)
					}
				}
				// The restore path is the same index built in one batch.
				restored := RestoreStore(s.Match(nil, nil, nil), s.Version())
				if restored.NTriples() != s.NTriples() || restored.Version() != s.Version() {
					t.Fatalf("RestoreStore of the final state differs from it")
				}
			})
		}
	}
}

// TestStoreAgainstModelConcurrentReaders runs the same histories with
// readers that keep checking pinned epochs against the model of their epoch
// while the writer goes on publishing. Run with -race.
func TestStoreAgainstModelConcurrentReaders(t *testing.T) {
	type epoch struct {
		snap  *Snapshot
		model *model
		probe probe
	}
	for _, hc := range modelHistories {
		t.Run(hc.name, func(t *testing.T) {
			steps := hc.steps / 4
			h := newHistory(7, hc.subjects, hc.maxBatch)
			s, m := NewStore(), newModel()
			var mu sync.Mutex
			latest := epoch{s.Snapshot(), m.clone(), h.probe()}
			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						mu.Lock()
						e := latest
						mu.Unlock()
						if err := check(e.snap, e.model, e.probe); err != nil {
							t.Errorf("epoch %d read beside the writer: %v", e.snap.Version(), err)
							return
						}
					}
				}()
			}
			for i := 0; i < steps; i++ {
				if err := h.step(s, m); err != nil {
					t.Errorf("step %d: %v", i, err)
					break
				}
				e := epoch{s.Snapshot(), m.clone(), h.probe()}
				mu.Lock()
				latest = e
				mu.Unlock()
			}
			close(done)
			wg.Wait()
		})
	}
}
