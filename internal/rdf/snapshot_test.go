package rdf

import (
	"fmt"
	"sync"
	"testing"
)

func f64(v float64) *float64 { return &v }

func TestSnapshotIsolation(t *testing.T) {
	s := NewStore()
	s.AddAll([]Triple{
		{NewIRI("a"), NewIRI("p"), NewLiteral("1")},
		{NewIRI("b"), NewIRI("p"), NewLiteral("2")},
	})
	snap := s.Snapshot()
	if snap.Len() != 2 || snap.Version() != 2 {
		t.Fatalf("snapshot len=%d version=%d", snap.Len(), snap.Version())
	}
	before := snap.NTriples()

	// Mutate the store: the pinned snapshot must not move.
	s.Add(Triple{NewIRI("c"), NewIRI("p"), NewLiteral("3")})
	p := NewIRI("a")
	s.Remove(&p, nil, nil)
	s.Add(Triple{NewIRI("b"), NewIRI("q"), NewLiteral("4")})

	if snap.Len() != 2 {
		t.Errorf("pinned snapshot Len changed to %d", snap.Len())
	}
	if got := snap.NTriples(); got != before {
		t.Errorf("pinned snapshot contents changed:\n%s\nwant:\n%s", got, before)
	}
	pred, _ := snap.ID(NewIRI("p"))
	if n := snap.PredCount(pred); n != 2 {
		t.Errorf("pinned PredCount = %d, want 2", n)
	}
	if n := s.Snapshot().PredCount(pred); n != 2 { // a removed, c added
		t.Errorf("live PredCount = %d, want 2", n)
	}
	if s.Len() != 3 {
		t.Errorf("live Len = %d, want 3", s.Len())
	}
	if s.Version() <= snap.Version() {
		t.Errorf("live version %d must exceed pinned %d", s.Version(), snap.Version())
	}
}

func TestApplyIsOneAtomicEpoch(t *testing.T) {
	s := NewStore()
	subj := NewIRI("tmpl")
	s.AddAll([]Triple{
		{subj, NewIRI("p"), NewLiteral("old")},
		{NewIRI("other"), NewIRI("p"), NewLiteral("keep")},
	})
	v := s.Version()
	removed := s.Apply(
		[]Pattern{{S: &subj}},
		[]Triple{{subj, NewIRI("p"), NewLiteral("new")}, {subj, NewIRI("q"), NewLiteral("5")}},
	)
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	// One batch, one publication: the version moved exactly once (by the
	// number of changes), and no intermediate epoch existed.
	if s.Version() != v+3 {
		t.Errorf("version = %d, want %d", s.Version(), v+3)
	}
	p := NewIRI("p")
	if got := s.Match(&subj, &p, nil); len(got) != 1 || got[0].O.Value != "new" {
		t.Errorf("objects after Apply = %v", got)
	}
}

func TestApplyNoChangeKeepsVersion(t *testing.T) {
	s := NewStore()
	tr := Triple{NewIRI("a"), NewIRI("p"), NewLiteral("1")}
	s.Add(tr)
	v := s.Version()
	s.Add(tr) // duplicate
	missing := NewIRI("missing")
	s.Remove(&missing, nil, nil)
	if s.Version() != v {
		t.Errorf("no-op mutations moved the version: %d -> %d", v, s.Version())
	}
}

func TestNumericBandIndex(t *testing.T) {
	s := NewStore()
	lower := NewIRI("hasLowerCardinality")
	for i := 0; i < 100; i++ {
		s.Add(Triple{NewIRI(fmt.Sprintf("pop%02d", i)), lower, NewNumericLiteral(float64(i * 10))})
	}
	// Non-numeric objects never enter the band index.
	s.Add(Triple{NewIRI("popX"), lower, NewLiteral("not-a-number")})

	// band renders the subjects in [lo, hi] of the live epoch.
	band := func(lo, hi *float64) []Term {
		snap := s.Snapshot()
		pid, _ := snap.ID(lower)
		var out []Term
		for _, id := range snap.BandSubjectIDs(pid, lo, hi, nil) {
			out = append(out, snap.Term(id))
		}
		return out
	}
	count := func(lo, hi *float64) int {
		snap := s.Snapshot()
		pid, _ := snap.ID(lower)
		return snap.BandCount(pid, lo, hi)
	}
	subs := band(f64(100), f64(140))
	if len(subs) != 5 {
		t.Fatalf("band [100,140] = %d subjects, want 5 (%v)", len(subs), subs)
	}
	for _, want := range []string{"pop10", "pop11", "pop12", "pop13", "pop14"} {
		found := false
		for _, got := range subs {
			if got.Value == want {
				found = true
			}
		}
		if !found {
			t.Errorf("band missing %s", want)
		}
	}
	if n := count(f64(100), f64(140)); n != 5 {
		t.Errorf("BandCount = %d, want 5", n)
	}
	// Open bounds.
	if got := band(nil, f64(25)); len(got) != 3 {
		t.Errorf("band (-inf,25] = %d, want 3", len(got))
	}
	if got := band(f64(970), nil); len(got) != 3 {
		t.Errorf("band [970,inf) = %d, want 3", len(got))
	}
	// Removal maintains the index.
	p12 := NewIRI("pop12")
	s.Remove(&p12, nil, nil)
	if got := band(f64(100), f64(140)); len(got) != 4 {
		t.Errorf("band after removal = %d, want 4", len(got))
	}
	// A subject with several values appears once per distinct-subject query.
	s.Add(Triple{NewIRI("pop13"), lower, NewNumericLiteral(135)})
	if got := band(f64(100), f64(140)); len(got) != 4 {
		t.Errorf("multi-valued subject duplicated in band: %d, want 4", len(got))
	}
	if n := count(f64(100), f64(140)); n != 5 {
		t.Errorf("BandCount counts entries: %d, want 5", n)
	}
}

// TestConcurrentSnapshotReadersDuringWrites pins snapshots from many reader
// goroutines while a writer publishes epochs, asserting every reader sees an
// internally consistent epoch (Len matches the enumerated triple count).
func TestConcurrentSnapshotReadersDuringWrites(t *testing.T) {
	s := NewStore()
	const writers = 2
	const readers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				subj := NewIRI(fmt.Sprintf("s-%d-%d", w, i))
				s.Apply(nil, []Triple{
					{subj, NewIRI("p"), NewNumericLiteral(float64(i))},
					{subj, NewIRI("q"), NewLiteral("v")},
				})
				if i%3 == 0 {
					s.Remove(&subj, nil, nil)
				}
			}
		}(w)
	}
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				snap := s.Snapshot()
				if got := len(snap.Match(nil, nil, nil)); got != snap.Len() {
					errs <- fmt.Sprintf("snapshot inconsistent: enumerated %d, Len %d", got, snap.Len())
					return
				}
				if p, ok := snap.ID(NewIRI("p")); ok {
					snap.BandSubjectIDs(p, f64(0), f64(50), nil)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
