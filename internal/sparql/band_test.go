package sparql

import (
	"fmt"
	"slices"
	"testing"

	"galo/internal/rdf"
)

// bandStore builds a store shaped like the knowledge base's cardinality
// bounds: pops with hasLowerCardinality values 0, 10, ..., plus a type
// marker.
func bandStore(n int) *rdf.Store {
	s := rdf.NewStore()
	for i := 0; i < n; i++ {
		pop := rdf.NewIRI(fmt.Sprintf("http://x/pop%03d", i))
		s.Add(rdf.Triple{S: pop, P: rdf.NewIRI("http://p/hasLowerCardinality"), O: rdf.NewNumericLiteral(float64(i * 10))})
		s.Add(rdf.Triple{S: pop, P: rdf.NewIRI("http://p/hasPopType"), O: rdf.NewLiteral("HSJOIN")})
	}
	return s
}

// TestFilterBoundsUseBandIndex checks that a FILTER-bounded pattern returns
// exactly the in-band solutions — through the live store and through a
// pinned snapshot that subsequent writes must not disturb.
func TestFilterBoundsUseBandIndex(t *testing.T) {
	store := bandStore(50)
	q, err := Parse(`PREFIX predURI: <http://p/>
SELECT ?pop ?lo
WHERE {
 ?pop predURI:hasPopType "HSJOIN" .
 ?pop predURI:hasLowerCardinality ?lo .
 FILTER ( ?lo <= 40 ) .
 FILTER ( ?lo >= 20 ) .
}`)
	if err != nil {
		t.Fatal(err)
	}
	sols, err := Execute(q, store.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 3 { // values 20, 30, 40
		t.Fatalf("got %d solutions, want 3: %v", len(sols), sols)
	}
	snap := store.Snapshot()
	store.Add(rdf.Triple{S: rdf.NewIRI("http://x/late"), P: rdf.NewIRI("http://p/hasLowerCardinality"), O: rdf.NewNumericLiteral(25)})
	store.Add(rdf.Triple{S: rdf.NewIRI("http://x/late"), P: rdf.NewIRI("http://p/hasPopType"), O: rdf.NewLiteral("HSJOIN")})
	pinned, err := Execute(q, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(pinned) != 3 {
		t.Errorf("pinned snapshot sees %d solutions, want 3", len(pinned))
	}
	live, err := Execute(q, store.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 4 {
		t.Errorf("live store sees %d solutions, want 4", len(live))
	}
}

// TestNumericBoundsDerivation covers the filter→interval analysis, including
// mirrored comparisons and the OR guard.
func TestNumericBoundsDerivation(t *testing.T) {
	q, err := Parse(`PREFIX p: <http://p/>
SELECT ?a ?b ?c
WHERE {
 ?x p:v ?a .
 ?x p:w ?b .
 ?x p:u ?c .
 FILTER ( ?a <= 100 ) .
 FILTER ( ?a >= 5 ) .
 FILTER ( 50 >= ?b ) .
}`)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string]varBounds{}
	for slot, b := range pr.bounds(pr.Params()) {
		bounds[pr.vars[slot]] = b
	}
	a := bounds["a"]
	if a.lo == nil || *a.lo != 5 || a.hi == nil || *a.hi != 100 {
		t.Errorf("bounds[a] = %+v, want [5,100]", a)
	}
	b := bounds["b"]
	if b.hi == nil || *b.hi != 50 || b.lo != nil {
		t.Errorf("bounds[b] = %+v, want (-inf,50]", b)
	}
	if c, ok := bounds["c"]; ok && (c.lo != nil || c.hi != nil) {
		t.Errorf("bounds[c] = %+v, want unconstrained", c)
	}
	// The bounds are the parameters' values, not the query's: one Prepared
	// serves every set of constants.
	other := pr.bounds([]float64{1, 2, 3})
	if a := other[slices.Index(pr.vars, "a")]; *a.lo != 2 || *a.hi != 1 {
		t.Errorf("bounds[a] under parameters (1, 2, 3) = [%v, %v], want [2, 1]", *a.lo, *a.hi)
	}
	if b := other[slices.Index(pr.vars, "b")]; b.lo != nil || *b.hi != 3 {
		t.Errorf("bounds[b] under parameters (1, 2, 3) = %+v, want (-inf, 3]", b)
	}
}
