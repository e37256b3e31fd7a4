package rdf

import (
	"strings"
	"testing"
	"testing/quick"
)

func popIRI(id string) Term { return NewIRI("http://galo/qep/pop/" + id) }
func propIRI(p string) Term { return NewIRI("http://galo/qep/property/" + p) }

func paperStore() *Store {
	// The triples from Section 3.1 of the paper.
	s := NewStore()
	s.Add(Triple{popIRI("2"), propIRI("hasPopType"), NewLiteral("NLJOIN")})
	s.Add(Triple{popIRI("2"), propIRI("hasEstimateCardinality"), NewLiteral("2949250")})
	s.Add(Triple{popIRI("2"), propIRI("hasOuterInputStream"), popIRI("3")})
	s.Add(Triple{popIRI("3"), propIRI("hasPopType"), NewLiteral("IXSCAN")})
	return s
}

func TestAddMatchAndLen(t *testing.T) {
	s := paperStore()
	if s.Len() != 4 {
		t.Errorf("Len = %d", s.Len())
	}
	// Duplicate insert is ignored.
	s.Add(Triple{popIRI("2"), propIRI("hasPopType"), NewLiteral("NLJOIN")})
	if s.Len() != 4 {
		t.Errorf("duplicate changed Len to %d", s.Len())
	}
	subj := popIRI("2")
	if got := len(s.Match(&subj, nil, nil)); got != 3 {
		t.Errorf("Match(S,*,*) = %d", got)
	}
	pred := propIRI("hasPopType")
	if got := len(s.Match(nil, &pred, nil)); got != 2 {
		t.Errorf("Match(*,P,*) = %d", got)
	}
	obj := NewLiteral("IXSCAN")
	if got := len(s.Match(nil, nil, &obj)); got != 1 {
		t.Errorf("Match(*,*,O) = %d", got)
	}
	if got := len(s.Match(nil, nil, nil)); got != 4 {
		t.Errorf("Match(*,*,*) = %d", got)
	}
	if got := len(s.Match(&subj, &pred, &obj)); got != 0 {
		t.Errorf("non-existent triple matched")
	}
}

func TestObjectsOfAndSubjects(t *testing.T) {
	s := paperStore()
	snap := s.Snapshot()
	sid, _ := snap.ID(popIRI("2"))
	pid, _ := snap.ID(propIRI("hasOuterInputStream"))
	objs := snap.ObjectIDs(sid, pid)
	if len(objs) != 1 || snap.Term(objs[0]) != popIRI("3") {
		t.Errorf("ObjectIDs = %v", objs)
	}
	pop2, pop99, popType := popIRI("2"), popIRI("99"), propIRI("hasPopType")
	if len(s.Match(&pop2, &popType, nil)) != 1 {
		t.Errorf("pop type of pop 2 missing")
	}
	if len(s.Match(&pop99, &popType, nil)) != 0 {
		t.Errorf("a missing subject has a pop type")
	}
	typ, _ := snap.ID(propIRI("hasPopType"))
	if got := len(snap.PredSubjectIDs(typ, nil)); got != 2 {
		t.Errorf("PredSubjectIDs = %d", got)
	}
}

func TestRemove(t *testing.T) {
	s := paperStore()
	subj := popIRI("2")
	if n := s.Remove(&subj, nil, nil); n != 3 {
		t.Errorf("Remove removed %d", n)
	}
	if s.Len() != 1 {
		t.Errorf("Len after remove = %d", s.Len())
	}
	if n := s.Remove(&subj, nil, nil); n != 0 {
		t.Errorf("second Remove removed %d", n)
	}
}

func TestNTriplesRoundtrip(t *testing.T) {
	s := paperStore()
	text := s.NTriples()
	if !strings.Contains(text, "<http://galo/qep/pop/2> <http://galo/qep/property/hasPopType> \"NLJOIN\" .") {
		t.Errorf("NTriples output malformed:\n%s", text)
	}
	s2 := NewStore()
	if err := s2.LoadNTriples(text); err != nil {
		t.Fatalf("LoadNTriples: %v", err)
	}
	if s2.Len() != s.Len() {
		t.Errorf("roundtrip Len = %d, want %d", s2.Len(), s.Len())
	}
	if s2.NTriples() != text {
		t.Errorf("roundtrip is not stable")
	}
}

func TestParseNTriplesErrorsAndComments(t *testing.T) {
	if _, err := ParseNTriples("<a> <b> .\n"); err == nil {
		t.Errorf("two-term line should fail")
	}
	if _, err := ParseNTriples("<a <b> <c> .\n"); err == nil {
		t.Errorf("unterminated IRI should fail")
	}
	ts, err := ParseNTriples("# comment\n\n<a> <b> \"x\" .\n")
	if err != nil || len(ts) != 1 {
		t.Errorf("comments/blank lines should be skipped: %v %v", ts, err)
	}
	// Literal with escaped quote survives the roundtrip.
	s := NewStore()
	s.Add(Triple{NewIRI("a"), NewIRI("b"), NewLiteral(`say "hi" \ ok`)})
	s2 := NewStore()
	if err := s2.LoadNTriples(s.NTriples()); err != nil {
		t.Fatalf("LoadNTriples: %v", err)
	}
	if s2.Len() != 1 || s2.Match(nil, nil, nil)[0].O.Value != `say "hi" \ ok` {
		t.Errorf("escaped literal mangled: %v", s2.Match(nil, nil, nil))
	}
}

func TestTermHelpers(t *testing.T) {
	if !NewIRI("x").IsIRI() || NewLiteral("x").IsIRI() {
		t.Errorf("IsIRI misreports")
	}
	if f, ok := NewLiteral("12.5").Float(); !ok || f != 12.5 {
		t.Errorf("Float = %v %v", f, ok)
	}
	if _, ok := NewLiteral("abc").Float(); ok {
		t.Errorf("non-numeric literal parsed as float")
	}
	if _, ok := NewIRI("12").Float(); ok {
		t.Errorf("IRI should not parse as float")
	}
	if NewNumericLiteral(42).Value != "42" {
		t.Errorf("NumericLiteral = %q", NewNumericLiteral(42).Value)
	}
}

func TestStoreAddMatchProperty(t *testing.T) {
	// Property: every added triple is findable by full match, and Len equals
	// the number of distinct triples added.
	f := func(ids []uint8) bool {
		s := NewStore()
		seen := map[Triple]bool{}
		for _, id := range ids {
			tr := Triple{popIRI(string(rune('a' + id%5))), propIRI(string(rune('p' + id%3))), NewNumericLiteral(float64(id % 7))}
			s.Add(tr)
			seen[tr] = true
		}
		if s.Len() != len(seen) {
			return false
		}
		for tr := range seen {
			if len(s.Match(&tr.S, &tr.P, &tr.O)) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
