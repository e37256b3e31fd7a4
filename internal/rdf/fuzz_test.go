package rdf

import "testing"

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
