package joblike

import (
	"reflect"
	"testing"

	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/scenario"
)

func generate(t *testing.T, seed int64, hazards bool) *storage.Database {
	t.Helper()
	db, err := New().Generate(scenario.GenOptions{Seed: seed, Scale: 0.05, Hazards: hazards})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSameSeedSameWorkload: one seed generates the same rows and the same
// queries; another seed other rows.
func TestSameSeedSameWorkload(t *testing.T) {
	a, b := generate(t, 7, true), generate(t, 7, true)
	if scenario.Fingerprint(a) != scenario.Fingerprint(b) {
		t.Error("one seed generated two databases")
	}
	if qa, qb := New().HazardQueries(a, 0), New().HazardQueries(b, 0); scenario.FingerprintQueries(qa) != scenario.FingerprintQueries(qb) {
		t.Error("one seed generated two query lists")
	}
	if scenario.Fingerprint(generate(t, 8, true)) == scenario.Fingerprint(a) {
		t.Error("two seeds generated one database")
	}
}

// TestQueriesParseResolveAndRoundTrip: every hazard query resolves against the
// schema and renders to SQL that parses back to the same query.
func TestQueriesParseResolveAndRoundTrip(t *testing.T) {
	db := generate(t, 7, true)
	qs := New().HazardQueries(db, 0)
	if len(qs) != 8 || len(New().HazardQueries(db, 3)) != 3 {
		t.Fatalf("%d hazard queries", len(qs))
	}
	for _, q := range qs {
		again, err := sqlparser.Parse(q.SQL())
		if err != nil {
			t.Fatalf("%s: %q does not parse: %v", q.Name, q.SQL(), err)
		}
		again.Name = q.Name
		if !reflect.DeepEqual(again, q) {
			t.Errorf("%s does not round-trip through SQL(): %q", q.Name, q.SQL())
		}
		if err := sqlparser.Resolve(again, db.Catalog.Schema); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
	}
}

// TestFunctionalDependenciesHold checks the oracle the hazard rests on: every
// movie's class is ClassOf its genre and every company's tier TierOf its
// country.
func TestFunctionalDependenciesHold(t *testing.T) {
	db := generate(t, 7, true)
	for _, row := range db.Table(Movie).Rows {
		if row[3].S != ClassOf(row[2].S) {
			t.Fatalf("movie %v: class %q, genre %q", row[0], row[3].S, row[2].S)
		}
	}
	for _, row := range db.Table(Company).Rows {
		if row[3].S != TierOf(row[2].S) {
			t.Fatalf("company %v: tier %q, country %q", row[0], row[3].S, row[2].S)
		}
	}
	if n := db.RowCount(Movie); n < 64*len(Genres) {
		t.Errorf("%d movies, fewer than the floor of 64 per genre", n)
	}
}
