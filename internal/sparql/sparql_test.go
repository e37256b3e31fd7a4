package sparql

import (
	"fmt"
	"testing"

	"galo/internal/rdf"
)

const prop = "http://galo/qep/property/"

func pop(id string) rdf.Term { return rdf.NewIRI("http://galo/qep/pop/" + id) }
func p(name string) rdf.Term { return rdf.NewIRI(prop + name) }

// planStore encodes a small plan graph: 2 -> 3 -> 4 chained by
// hasOutputStream, with types and cardinalities.
func planStore() *rdf.Store {
	s := rdf.NewStore()
	add := func(subj rdf.Term, name string, obj rdf.Term) { s.Add(rdf.Triple{S: subj, P: p(name), O: obj}) }
	add(pop("2"), "hasPopType", rdf.NewLiteral("HSJOIN"))
	add(pop("2"), "hasEstimateCardinality", rdf.NewNumericLiteral(13))
	add(pop("3"), "hasPopType", rdf.NewLiteral("NLJOIN"))
	add(pop("3"), "hasEstimateCardinality", rdf.NewNumericLiteral(1750))
	add(pop("4"), "hasPopType", rdf.NewLiteral("IXSCAN"))
	add(pop("4"), "hasEstimateCardinality", rdf.NewNumericLiteral(73049))
	add(pop("4"), "hasOutputStream", pop("3"))
	add(pop("3"), "hasOutputStream", pop("2"))
	return s
}

func TestParseFigure6StyleQuery(t *testing.T) {
	q, err := Parse(`PREFIX predURI: <http://galo/qep/property/>
		SELECT ?pop_Q3 ?pop_6
		WHERE {
			?pop_Q3 predURI:hasLowerRowSize ?ih1 .
			FILTER ( ?ih1 <= 8) .
			?pop_Q3 predURI:hasHigherRowSize ?ih2 .
			FILTER ( ?ih2 >= 8) .
			?pop_Q3 predURI:hasOutputStream ?pop_6 .
			FILTER (STR(?pop_6) > STR(?pop_Q3)) .
		}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Select) != 2 || q.Select[0] != "pop_Q3" {
		t.Errorf("Select = %v", q.Select)
	}
	if len(q.Patterns) != 3 || len(q.Filters) != 3 {
		t.Errorf("patterns=%d filters=%d", len(q.Patterns), len(q.Filters))
	}
	if q.Patterns[0].Path[0].Pred.Value != prop+"hasLowerRowSize" {
		t.Errorf("prefix not expanded: %v", q.Patterns[0].Path[0].Pred)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT ?x",                    // no WHERE
		"SELECT WHERE { ?x <p> ?y }",   // no vars
		"SELECT ?x WHERE { ?x <p> ?y",  // unterminated block
		"SELECT ?x WHERE { }",          // no patterns
		"SELECT ?x WHERE { ?x ?p ?y }", // variable predicate
		"PREFIX p <http://x> SELECT ?x WHERE { ?x p:a ?y }", // prefix without colon
		"SELECT ?x WHERE { ?x q:a ?y }",                     // unknown prefix
		"SELECT ?x WHERE { ?x <p> ?y } LIMIT z",             // bad limit
		"SELECT ?x WHERE { ?x <p> ?y . FILTER (?y !! 3) }",
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		}
	}
}

// TestParseLimit: a LIMIT is a positive count. A negative one is an error,
// and so is LIMIT 0 — SPARQL's "no solutions" — because Query.Limit 0 means
// the query has no LIMIT clause; before both were accepted and returned every
// solution.
func TestParseLimit(t *testing.T) {
	for _, c := range []struct {
		limit string
		want  int // -1: a parse error
	}{
		{"", 0},
		{"LIMIT 1", 1},
		{"LIMIT 8", 8},
		{"limit 3", 3},
		{"LIMIT 0", -1},
		{"LIMIT -0", -1},
		{"LIMIT -1", -1},
		{"LIMIT -8", -1},
		{"LIMIT 1.5", -1},
		{"LIMIT", -1},
	} {
		q, err := Parse("SELECT ?s WHERE { ?s <p> ?o } " + c.limit)
		switch {
		case c.want < 0 && err == nil:
			t.Errorf("%q: parsed to Limit %d, want an error", c.limit, q.Limit)
		case c.want >= 0 && err != nil:
			t.Errorf("%q: %v", c.limit, err)
		case c.want >= 0 && q.Limit != c.want:
			t.Errorf("%q: Limit %d, want %d", c.limit, q.Limit, c.want)
		}
	}
	store := rdf.NewStore()
	for i := 0; i < 5; i++ {
		store.Add(rdf.Triple{S: pop(fmt.Sprint(i)), P: rdf.NewIRI("p"), O: rdf.NewLiteral("o")})
	}
	sols, err := Execute(MustParse("SELECT ?s WHERE { ?s <p> ?o } LIMIT 2"), store.Snapshot())
	if err != nil || len(sols) != 2 {
		t.Errorf("LIMIT 2 over 5 triples: %d solutions, %v", len(sols), err)
	}
}

func TestExecuteSimpleChain(t *testing.T) {
	store := planStore()
	q := MustParse(`PREFIX pr: <http://galo/qep/property/>
		SELECT ?a ?b WHERE {
			?a pr:hasPopType "IXSCAN" .
			?a pr:hasOutputStream ?b .
			?b pr:hasPopType "NLJOIN" .
		}`)
	sols, err := Execute(q, store.Snapshot())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(sols) != 1 {
		t.Fatalf("solutions = %v", sols)
	}
	if sols[0]["a"] != pop("4") || sols[0]["b"] != pop("3") {
		t.Errorf("bindings = %v", sols[0])
	}
}

func TestExecuteFiltersNumericBounds(t *testing.T) {
	store := planStore()
	template := `PREFIX pr: <http://galo/qep/property/>
		SELECT ?x WHERE {
			?x pr:hasEstimateCardinality ?c .
			FILTER (?c >= %d && ?c <= %d) .
		}`
	sols, err := Execute(MustParse(fmt.Sprintf(template, 1000, 100000)), store.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Errorf("range filter matched %d, want 2", len(sols))
	}
	sols, err = Execute(MustParse(fmt.Sprintf(template, 1, 20)), store.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Errorf("narrow filter matched %d, want 1", len(sols))
	}
}

func TestExecuteStrFunctionAndDistinctness(t *testing.T) {
	store := planStore()
	// Two distinct join operators, enforced distinct via STR comparison as
	// the paper's generated queries do.
	q := MustParse(`PREFIX pr: <http://galo/qep/property/>
		SELECT ?a ?b WHERE {
			?a pr:hasEstimateCardinality ?ca .
			?b pr:hasEstimateCardinality ?cb .
			FILTER (STR(?a) > STR(?b)) .
		}`)
	sols, err := Execute(q, store.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// 3 subjects -> ordered pairs with a>b: 3.
	if len(sols) != 3 {
		t.Errorf("solutions = %d, want 3", len(sols))
	}
	for _, s := range sols {
		if s["a"] == s["b"] {
			t.Errorf("STR filter failed to keep resources distinct: %v", s)
		}
	}
}

func TestExecutePropertyPathTransitive(t *testing.T) {
	store := planStore()
	q := MustParse(`PREFIX pr: <http://galo/qep/property/>
		SELECT ?top WHERE {
			<http://galo/qep/pop/4> pr:hasOutputStream+ ?top .
			?top pr:hasPopType "HSJOIN" .
		}`)
	sols, err := Execute(q, store.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || sols[0]["top"] != pop("2") {
		t.Errorf("transitive path solutions = %v", sols)
	}
	// Sequence path: type of the node two hops up.
	q2 := MustParse(`PREFIX pr: <http://galo/qep/property/>
		SELECT ?t WHERE {
			<http://galo/qep/pop/4> pr:hasOutputStream/pr:hasOutputStream ?mid .
			?mid pr:hasPopType ?t .
		}`)
	sols2, err := Execute(q2, store.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(sols2) != 1 || sols2[0]["t"].Value != "HSJOIN" {
		t.Errorf("sequence path solutions = %v", sols2)
	}
}

func TestExecuteOrAndLimit(t *testing.T) {
	store := planStore()
	q := MustParse(`PREFIX pr: <http://galo/qep/property/>
		SELECT ?x WHERE {
			?x pr:hasPopType ?t .
			FILTER (?t = "HSJOIN" || ?t = "NLJOIN") .
		}`)
	sols, err := Execute(q, store.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 2 {
		t.Errorf("OR filter matched %d", len(sols))
	}
	q.Limit = 1
	sols, _ = Execute(q, store.Snapshot())
	if len(sols) != 1 {
		t.Errorf("LIMIT not applied: %d", len(sols))
	}
}

func TestExecuteSelectAllProjection(t *testing.T) {
	store := planStore()
	q := MustParse(`PREFIX pr: <http://galo/qep/property/>
		SELECT * WHERE { ?x pr:hasPopType "HSJOIN" . }`)
	sols, err := Execute(q, store.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 || sols[0]["x"] != pop("2") {
		t.Errorf("SELECT * solutions = %v", sols)
	}
	// Projection drops unselected variables.
	q2 := MustParse(`PREFIX pr: <http://galo/qep/property/>
		SELECT ?x WHERE { ?x pr:hasOutputStream ?y . }`)
	sols2, _ := Execute(q2, store.Snapshot())
	for _, s := range sols2 {
		if _, ok := s["y"]; ok {
			t.Errorf("unprojected variable leaked: %v", s)
		}
	}
	if _, err := Execute(nil, store.Snapshot()); err == nil {
		t.Errorf("nil query should fail")
	}
}

func TestNoMatchWhenBoundsExcludeValue(t *testing.T) {
	// Mirrors the matching engine's main use: a template whose cardinality
	// bounds exclude the incoming plan's value must not match.
	store := rdf.NewStore()
	store.Add(rdf.Triple{S: pop("t1"), P: p("hasLowerCardinality"), O: rdf.NewNumericLiteral(19771)})
	store.Add(rdf.Triple{S: pop("t1"), P: p("hasHigherCardinality"), O: rdf.NewNumericLiteral(128500)})
	mk := func(v int) *Query {
		return MustParse(fmt.Sprintf(`PREFIX pr: <http://galo/qep/property/>
			SELECT ?x WHERE {
				?x pr:hasLowerCardinality ?lo . FILTER (?lo <= %d) .
				?x pr:hasHigherCardinality ?hi . FILTER (?hi >= %d) .
			}`, v, v))
	}
	if sols, _ := Execute(mk(50000), store.Snapshot()); len(sols) != 1 {
		t.Errorf("value inside bounds should match")
	}
	if sols, _ := Execute(mk(500), store.Snapshot()); len(sols) != 0 {
		t.Errorf("value below bounds should not match")
	}
	if sols, _ := Execute(mk(500000), store.Snapshot()); len(sols) != 0 {
		t.Errorf("value above bounds should not match")
	}
}
