package trace

import (
	"reflect"
	"testing"

	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/scenario"
)

func generate(t *testing.T, seed int64) *storage.Database {
	t.Helper()
	db, err := New().Generate(scenario.GenOptions{Seed: seed, Scale: 0.1, Hazards: true})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSameSeedSameWorkload: one seed generates the same rows, the same
// queries and the same arrival schedule; another seed other rows and another
// schedule.
func TestSameSeedSameWorkload(t *testing.T) {
	a, b := generate(t, 7), generate(t, 7)
	if scenario.Fingerprint(a) != scenario.Fingerprint(b) {
		t.Error("one seed generated two databases")
	}
	if qa, qb := New().HazardQueries(a, 0), New().HazardQueries(b, 0); scenario.FingerprintQueries(qa) != scenario.FingerprintQueries(qb) {
		t.Error("one seed generated two query lists")
	}
	if scenario.Fingerprint(generate(t, 8)) == scenario.Fingerprint(a) {
		t.Error("two seeds generated one database")
	}
	schedule := func(seed int64, profile string) []Arrival {
		return Arrivals(TraceOptions{Seed: seed, Tenants: 4, Arrivals: 64, Profile: profile})
	}
	for _, profile := range []string{ProfileBursty, ProfileSteady} {
		if !reflect.DeepEqual(schedule(7, profile), schedule(7, profile)) {
			t.Errorf("%s: one seed generated two schedules", profile)
		}
	}
	if reflect.DeepEqual(schedule(7, ProfileBursty), schedule(8, ProfileBursty)) {
		t.Error("two seeds generated one bursty schedule")
	}
}

// TestQueriesParseResolveAndRoundTrip: every hazard query and every query an
// arrival schedule issues resolves against the schema and renders to SQL that
// parses back to the same query.
func TestQueriesParseResolveAndRoundTrip(t *testing.T) {
	db := generate(t, 7)
	qs := New().HazardQueries(db, 0)
	if len(qs) != NumTenants/2+3 || len(New().HazardQueries(db, 3)) != 3 {
		t.Fatalf("%d hazard queries", len(qs))
	}
	for _, a := range Arrivals(TraceOptions{Seed: 7, Tenants: 4, Arrivals: 64}) {
		qs = append(qs, a.Query)
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

// TestArrivalSchedules: a schedule has the requested length, is in time
// order, names only the requested tenants and — bursty — gives each burst to
// one owner.
func TestArrivalSchedules(t *testing.T) {
	for _, profile := range []string{ProfileBursty, ProfileSteady} {
		arrivals := Arrivals(TraceOptions{Seed: 3, Tenants: 4, Arrivals: 100, Profile: profile, BurstLen: 8})
		if len(arrivals) != 100 {
			t.Fatalf("%s: %d arrivals", profile, len(arrivals))
		}
		tenants := map[string]int{}
		for i, a := range arrivals {
			if i > 0 && a.AtMillis < arrivals[i-1].AtMillis {
				t.Fatalf("%s: arrival %d at %d ms precedes its predecessor", profile, i, a.AtMillis)
			}
			tenants[a.Tenant]++
		}
		for tenant := range tenants {
			if tenant != TenantID(1) && tenant != TenantID(2) && tenant != TenantID(3) && tenant != TenantID(4) {
				t.Errorf("%s: arrival from %s, outside the 4 tenants", profile, tenant)
			}
		}
		if profile == ProfileSteady && len(tenants) != 4 {
			t.Errorf("steady: %d tenants issued requests, want 4", len(tenants))
		}
	}
}

// TestDominantTypesDominate checks the correlation the hazard rests on: most
// of each tenant's events carry its dominant type.
func TestDominantTypesDominate(t *testing.T) {
	db := generate(t, 7)
	total, dominant := map[int64]int{}, map[int64]int{}
	for _, row := range db.Table(Events).Rows {
		tenant := row[0].I
		total[tenant]++
		if row[1].S == DominantType(int(tenant)) {
			dominant[tenant]++
		}
	}
	if len(total) != NumTenants {
		t.Fatalf("events of %d tenants, want %d", len(total), NumTenants)
	}
	for tenant, n := range total {
		if share := float64(dominant[tenant]) / float64(n); share < DominantShare-0.1 {
			t.Errorf("tenant %d: dominant type on %.2f of %d events, want about %.2f", tenant, share, n, DominantShare)
		}
	}
}
