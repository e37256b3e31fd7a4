package rdf

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentAddMatchLoad hammers the store from concurrent writers
// (Add, LoadNTriples) and readers (Match, the ID-level reads, NTriples) at
// once. Run with -race; the final state is also
// verified for consistency.
func TestConcurrentAddMatchLoad(t *testing.T) {
	s := NewStore()
	const writers, perWriter = 4, 150
	pred := NewIRI("http://galo/qep/property/hasPopType")

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Add(Triple{
					S: NewIRI(fmt.Sprintf("http://galo/qep/pop/%d-%d", w, i)),
					P: pred,
					O: NewLiteral(fmt.Sprintf("OP%d", i%7)),
				})
			}
		}(w)
	}
	// A loader racing the writers over a disjoint subject space.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var text string
		for i := 0; i < 50; i++ {
			text += fmt.Sprintf("<http://galo/kb/loaded/%d> <http://galo/qep/property/inTemplate> \"t\" .\n", i)
		}
		if err := s.LoadNTriples(text); err != nil {
			t.Errorf("LoadNTriples: %v", err)
		}
	}()
	// Readers racing both.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			obj := NewLiteral("OP3")
			for i := 0; i < 100; i++ {
				s.Match(nil, &pred, &obj)
				snap := s.Snapshot()
				pid, pok := snap.ID(pred)
				sid, sok := snap.ID(NewIRI("http://galo/qep/pop/0-1"))
				oid, ook := snap.ID(obj)
				if pok && sok {
					snap.ObjectIDs(sid, pid)
				}
				if pok && ook {
					snap.SubjectIDs(pid, oid)
				}
				if pok {
					snap.PredSubjectIDs(pid, nil)
					snap.PredCount(pid)
				}
				s.Len()
				s.Version()
			}
			s.NTriples()
		}()
	}
	wg.Wait()

	want := writers*perWriter + 50
	if s.Len() != want {
		t.Errorf("Len = %d, want %d", s.Len(), want)
	}
	snap := s.Snapshot()
	if pid, _ := snap.ID(pred); snap.PredCount(pid) != writers*perWriter {
		t.Errorf("PredCount = %d, want %d", snap.PredCount(pid), writers*perWriter)
	}
	// Every writer's triples are findable.
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			subj := NewIRI(fmt.Sprintf("http://galo/qep/pop/%d-%d", w, i))
			if len(s.Match(&subj, nil, nil)) != 1 {
				t.Fatalf("missing triple for writer %d item %d", w, i)
			}
		}
	}
	// The roundtrip is still stable after concurrent construction.
	s2 := NewStore()
	if err := s2.LoadNTriples(s.NTriples()); err != nil {
		t.Fatal(err)
	}
	if s2.NTriples() != s.NTriples() {
		t.Errorf("roundtrip unstable after concurrent construction")
	}
}

// TestConcurrentAddSameTriples has every writer insert the same triples, so
// duplicate suppression is exercised under contention.
func TestConcurrentAddSameTriples(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				s.Add(Triple{
					S: NewIRI(fmt.Sprintf("http://galo/qep/pop/%d", i%20)),
					P: NewIRI("http://galo/qep/property/hasPages"),
					O: NewNumericLiteral(float64(i / 20)),
				})
			}
		}()
	}
	wg.Wait()
	// 20 subjects x 4 objects.
	if s.Len() != 80 {
		t.Errorf("Len = %d, want 80", s.Len())
	}
}
