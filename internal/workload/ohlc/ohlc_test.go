package ohlc

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

// TestStatisticsPredateTheFlood checks the hazard itself: with hazards armed
// the statistics saw the historical wave only and no bar of the recent window;
// the control dataset's statistics saw every bar.
func TestStatisticsPredateTheFlood(t *testing.T) {
	lo, _ := RecentWindow()
	for _, hazards := range []bool{true, false} {
		db := generate(t, 7, hazards)
		bars := db.RowCount(Bars)
		recent := 0
		for _, row := range db.Table(Bars).Rows {
			if row[1].I >= lo {
				recent++
			}
		}
		if want := bars - int(float64(bars)*HistoricalFraction); recent != want {
			t.Errorf("hazards %v: %d of %d bars in the recent window, want %d", hazards, recent, bars, want)
		}
		believed := int(db.Catalog.EstimatedCardinality(Bars))
		if want := bars; hazards {
			want = bars - recent
			if believed != want {
				t.Errorf("stale statistics believe in %d bars, want the %d before the flood", believed, want)
			}
		} else if believed != want {
			t.Errorf("fresh statistics believe in %d bars, want %d", believed, want)
		}
	}
}
