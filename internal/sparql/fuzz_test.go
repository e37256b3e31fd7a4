package sparql

import (
	"encoding/json"
	"os"
	"testing"

	"galo/internal/rdf"
)

// fuzzSeeds are the hand-written queries of this package's tests: every
// construct the subset has, and the inputs Parse must reject.
var fuzzSeeds = []string{
	`PREFIX predURI: <http://galo/qep/property/>
		SELECT ?pop_Q3 ?pop_6
		WHERE {
			?pop_Q3 predURI:hasLowerRowSize ?ih1 .
			FILTER ( ?ih1 <= 8) .
			?pop_Q3 predURI:hasOutputStream ?pop_6 .
			FILTER (STR(?pop_6) > STR(?pop_Q3)) .
		}`,
	`PREFIX pr: <http://galo/qep/property/>
		SELECT ?a ?b WHERE {
			?a pr:hasPopType "IXSCAN" .
			?a pr:hasOutputStream ?b .
			?b pr:hasPopType "NLJOIN" .
		}`,
	`PREFIX pr: <http://galo/qep/property/>
		SELECT ?x WHERE {
			?x pr:hasEstimateCardinality ?c .
			FILTER (?c >= 1000 && ?c <= 100000) .
		}`,
	`PREFIX pr: <http://galo/qep/property/>
		SELECT ?top WHERE {
			<http://galo/qep/pop/4> pr:hasOutputStream+ ?top .
			?top pr:hasPopType "HSJOIN" .
		}`,
	`PREFIX pr: <http://galo/qep/property/>
		SELECT ?t WHERE {
			<http://galo/qep/pop/4> pr:hasOutputStream/pr:hasOutputStream ?mid .
			?mid pr:hasPopType ?t .
		}`,
	`PREFIX pr: <http://galo/qep/property/>
		SELECT ?x WHERE {
			?x pr:hasPopType ?t .
			FILTER (?t = "HSJOIN" || ?t = 'NLJOIN') .
		} LIMIT 1`,
	`PREFIX pr: <http://galo/qep/property/>
		SELECT * WHERE { ?x pr:hasPopType "HSJOIN" . } # comment`,
	`SELECT ?x WHERE { ?x <p> ?x . FILTER (50 >= ?x) . FILTER (-1.5e3 != $x) }`,
	"",
	"SELECT ?x",
	"SELECT ?x WHERE { ?x ?p ?y }",
	"PREFIX p <http://x> SELECT ?x WHERE { ?x p:a ?y }",
	"SELECT ?x WHERE { ?x <p> ?y } LIMIT z",
	"SELECT ?x WHERE { ?x <p> ?y } LIMIT -1",
	"SELECT ?x WHERE { ?x <p> ?y } LIMIT 0",
	"SELECT ?x WHERE { ?x <p> ?y . FILTER (?y !! 3) }",
}

// FuzzParse: Parse never panics, a query it accepts has a LIMIT of 0 (none)
// or more, and Execute evaluates it without panicking — against an empty
// store and against a small one.
func FuzzParse(f *testing.F) {
	for _, text := range fuzzSeeds {
		f.Add(text)
	}
	// The matcher's own queries: a sample of the golden probe texts.
	if data, err := os.ReadFile("../transform/testdata/golden_probes.json"); err == nil {
		var golden struct {
			Queries []struct {
				Fragments []struct{ Text string }
			}
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			f.Fatal(err)
		}
		n := 0
		for _, q := range golden.Queries {
			for _, frag := range q.Fragments {
				if n%16 == 0 {
					f.Add(frag.Text)
				}
				n++
			}
		}
	}
	empty, small := rdf.NewStore().Snapshot(), planStore().Snapshot()
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(text)
		if err != nil {
			return
		}
		if q.Limit < 0 {
			t.Fatalf("parsed to Limit %d", q.Limit)
		}
		if _, err := Execute(q, empty); err != nil {
			t.Fatalf("parsed but did not execute: %v", err)
		}
		// Unconstrained patterns multiply: the small store has three triples
		// per predicate at most, so eight patterns bound one evaluation.
		if len(q.Patterns) <= 8 {
			if _, err := Execute(q, small); err != nil {
				t.Fatalf("parsed but did not execute: %v", err)
			}
		}
	})
}
