package executor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/randplan"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// TestPreparedRunMatchesRun runs every random plan of
// testdata/differential.json — both suites of TestDifferentialRandomPlans,
// drawn from the same seeded sequence — through one Prepared per query text,
// shared by four goroutines that each run their own copy of every plan at
// once. Each run's RunStats and every operator's ActMillis and ActCardinality
// must be what Run(plan, q) books, bit for bit, and what the fixture froze.
func TestPreparedRunMatchesRun(t *testing.T) {
	if *update {
		t.Skip("the fixture is being rewritten")
	}
	plans := differentialPlans
	if testing.Short() {
		plans = 200
	}
	db, opt, _ := setup(t)
	preparedSuite(t, "tpcds", db, opt, tpcdsShapes(), plans)
	db, opt, shapes := keyFamilies(t)
	preparedSuite(t, "key families", db, opt, shapes, plans/10)
}

// preparedSuite draws the plans differentialSuite draws — the same cases,
// skipped alike, the generator consumed alike — and runs them as
// TestPreparedRunMatchesRun says.
func preparedSuite(t *testing.T, name string, db *storage.Database, opt *optimizer.Optimizer, shapes []*sqlparser.Query, plans int) {
	ex := New(db)
	const seed = 20190122
	rng := rand.New(rand.NewSource(seed))
	gen := randplan.New(opt, seed)
	type planRun struct {
		plan *qgm.Plan
		prep *Prepared
		want run
	}
	var cases []planRun
	prepared := map[string]*Prepared{}
	for n := 0; n < plans; {
		q, plan, _ := randomCase(t, rng, gen, opt, shapes)
		if plan == nil {
			continue
		}
		stats, err := ex.Run(plan, q)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		want := run{ops: actuals(plan), stats: stats}
		if tooMuchWork(want) {
			continue
		}
		n++
		rng.Intn(stats.Rows + 1) // the suite's early Close
		key := planKey(name, q, plan)
		frozen, ok := frozenEntry(t, key)
		if !ok {
			t.Fatalf("%s: no entry in %s: the sequence drifted from TestDifferentialRandomPlans's", key, fixturePath)
		}
		if d := sameBooking(frozen, want); d != "" {
			t.Fatalf("%s: Run against the fixture: %s", key, d)
		}
		p := prepared[q.SQL()]
		if p == nil {
			if p, err = ex.Prepare(q); err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			prepared[q.SQL()] = p
		}
		cases = append(cases, planRun{plan, p, want})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range cases {
				plan := c.plan.Clone()
				stats, err := c.prep.Run(plan)
				if err != nil {
					t.Errorf("%s plan %d: Prepared.Run: %v", name, i, err)
					return
				}
				if d := diff(c.want, run{ops: actuals(plan), stats: stats}, true); d != "" {
					t.Errorf("%s plan %d, goroutine %d:\n%s\n%s", name, i, g, qgm.Format(plan), d)
					return
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%s: %d plans of %d queries, 4 goroutines on each Prepared", name, len(cases), len(prepared))
}

// frozenEntry returns the fixture's entry under key.
func frozenEntry(t *testing.T, key string) (frozenRun, bool) {
	t.Helper()
	frozenCheck(t, key, frozenRun{}) // loads the fixture
	fixture.mu.Lock()
	defer fixture.mu.Unlock()
	f, ok := fixture.entries[key]
	return f, ok
}

// sameBooking compares what a Run books with a frozen entry: the stats and
// every operator's actuals, bit for bit.
func sameBooking(want frozenRun, got run) string {
	if want.Stats != got.stats {
		return fmt.Sprintf("stats %+v, frozen %+v", got.stats, want.Stats)
	}
	if len(want.Millis) != len(got.ops) {
		return fmt.Sprintf("%d operators, frozen %d", len(got.ops), len(want.Millis))
	}
	for i, op := range got.ops {
		if bits := fmt.Sprintf("%016x", math.Float64bits(op[0])); bits != want.Millis[i] || op[1] != want.Cards[i] {
			return fmt.Sprintf("operator %d books (%s, %v), frozen (%s, %v)", i, bits, op[1], want.Millis[i], want.Cards[i])
		}
	}
	return ""
}
