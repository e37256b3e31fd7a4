package rdf

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseNTriples: ParseNTriples never panics, and whatever it accepts
// loads, dumps (NTriples) and parses again to the same set of triples — the
// round trip the data directory's snapshots, the /data endpoint and every
// knowledge base file rest on.
func FuzzParseNTriples(f *testing.F) {
	for _, seed := range []string{
		"<http://x/a> <http://x/b> \"c\" .\n",
		"<http://galo/kb/pop/t1/3> <http://galo/qep/property/hasLowerCardinality> \"12.5\" .\n# a comment\n\n<a> <b> <c> .",
		"<a> <b> \"line\\nbreak \\\"quoted\\\" \\u00e9\" .",
		"<a> <b> \"1\" .\n<a> <b> \"1.0\" .\n<a> <b> \"1\" .",
		"<a>\t<b> <c>.",
		"<a> <b> \"NaN\" .\n<a> <b> \" 2 \" .",
		"<a> <b> .",
		"<a> <b> <c> <d> .",
		"<a> <b> \"unterminated .",
		"<a <b> <c> .",
		"a b c .",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		triples, err := ParseNTriples(text)
		if err != nil {
			return
		}
		want := map[Triple]struct{}{}
		for _, tr := range triples {
			want[tr] = struct{}{}
		}
		s := NewStore()
		if err := s.LoadNTriples(text); err != nil {
			t.Fatalf("ParseNTriples accepted what LoadNTriples rejects: %v", err)
		}
		if s.Len() != len(want) {
			t.Fatalf("loaded %d triples, parsed %d distinct ones", s.Len(), len(want))
		}
		dump := s.NTriples()
		again, err := ParseNTriples(dump)
		if err != nil {
			t.Fatalf("the dump does not parse: %v\n%s", err, dump)
		}
		if len(again) != len(want) {
			t.Fatalf("the dump holds %d triples, the store %d\n%s", len(again), len(want), dump)
		}
		for _, tr := range again {
			if _, ok := want[tr]; !ok {
				t.Fatalf("the dump holds %v, which was never loaded\n%s", tr, dump)
			}
		}
	})
}

// numericSeeds are literals at the edges of what ParseFloat takes after
// TrimSpace: a guideline document and an IRI, white space around a number,
// NaN and Inf in their spellings, a leading sign or point, a hexadecimal
// float, an underscore (which a decimal literal may not hold) and nothing.
var numericSeeds = []string{
	"<OPTGUIDELINES><HSJOIN/></OPTGUIDELINES>", "http://galo/kb/pop/t1", " 1e3 ", "\t\n7\r", " 2\u0085",
	"NaN", "nan", "Inf", "-Infinity", "+inf", "+.5", "-.5e-3", ".", "0x1p-2", "0X1P+2", "1_0", "0x_1p0",
	"", " ", "e5", "x1", "12abc", "\x002",
}

// TestNumericLiteralAcceptsWhatParseFloatDoes holds numericLiteral's one-byte
// rejection to what it stands in front of: a literal is numeric, with the
// same value, exactly when strconv.ParseFloat accepts it after
// strings.TrimSpace.
func TestNumericLiteralAcceptsWhatParseFloatDoes(t *testing.T) {
	for _, s := range numericSeeds {
		checkNumericLiteral(t, s)
	}
}

// FuzzNumericLiteral is TestNumericLiteralAcceptsWhatParseFloatDoes over
// generated literals.
func FuzzNumericLiteral(f *testing.F) {
	for _, s := range numericSeeds {
		f.Add(s)
	}
	f.Fuzz(checkNumericLiteral)
}

func checkNumericLiteral(t *testing.T, s string) {
	want, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	got, ok := numericLiteral(Term{Kind: Literal, Value: s})
	if ok != (err == nil) || ok && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("numericLiteral(%q) = %v, %v; ParseFloat after TrimSpace: %v, %v", s, got, ok, want, err)
	}
	if _, ok := numericLiteral(Term{Kind: IRI, Value: s}); ok {
		t.Fatalf("the IRI %q read as a number", s)
	}
}
