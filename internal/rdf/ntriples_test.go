package rdf

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// oracleNTriples is the fmt rendering the writer replaced: one
// Triple.String per line, sort.Strings, a newline after every line.
func oracleNTriples(ts []Triple) string {
	lines := make([]string, len(ts))
	for i, t := range ts {
		lines[i] = t.String()
	}
	sort.Strings(lines)
	var b strings.Builder
	for _, line := range lines {
		b.WriteString(line + "\n")
	}
	return b.String()
}

// randomTerm draws a term whose value mixes what quoting must escape:
// quotes, backslashes, control characters, non-ASCII and invalid UTF-8.
func randomTerm(rng *rand.Rand) Term {
	pieces := []string{"a", "b", "z", "0", "1.5", " ", `"`, `\`, "\n", "\t", "\x00", "\x7f", "é", "日本", "\xff", "\xc3", "<", ">", "http://x/"}
	var b strings.Builder
	for n := rng.Intn(5); n >= 0; n-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	if rng.Intn(2) == 0 {
		return NewIRI(b.String())
	}
	return NewLiteral(b.String())
}

// TestNTriplesWriterMatchesFmt holds the append-based writer to the fmt
// rendering byte for byte — through Add, through a store's dump, and through
// MergeNTriples over 1, 2 and 4 stores, which must equal the single-store dump
// of their union.
func TestNTriplesWriterMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		seen := map[Triple]bool{}
		var ts []Triple
		for n := rng.Intn(60); n >= 0; n-- {
			tr := Triple{randomTerm(rng), randomTerm(rng), randomTerm(rng)}
			if rng.Intn(4) == 0 && len(ts) > 0 {
				tr.S = ts[rng.Intn(len(ts))].S // subjects carrying several predicates
			}
			if !seen[tr] {
				seen[tr] = true
				ts = append(ts, tr)
			}
		}
		want := oracleNTriples(ts)
		var w NTriplesWriter
		for _, tr := range ts {
			w.Add(tr)
		}
		if got := w.String(); got != want {
			t.Fatalf("round %d: writer renders\n%q\nfmt renders\n%q", round, got, want)
		}
		union := NewStore()
		union.AddAll(ts)
		if got := union.NTriples(); got != want {
			t.Fatalf("round %d: store dump\n%q\nfmt renders\n%q", round, got, want)
		}
		for _, parts := range []int{1, 2, 4} {
			stores := make([]*Store, parts)
			for i := range stores {
				stores[i] = NewStore()
			}
			for _, tr := range ts {
				stores[rng.Intn(parts)].Add(tr)
			}
			if got := MergeNTriples(stores); got != want {
				t.Fatalf("round %d: MergeNTriples over %d stores differs from the union's dump", round, parts)
			}
		}
	}
	var empty NTriplesWriter
	if got := empty.String(); got != "" {
		t.Errorf("empty writer renders %q", got)
	}
	if got := MergeNTriples([]*Store{NewStore(), NewStore()}); got != "" {
		t.Errorf("MergeNTriples of empty stores renders %q", got)
	}
}
