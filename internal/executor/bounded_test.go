package executor

import (
	"math"
	"math/rand"
	"testing"

	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/randplan"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// TestBoundedRunProperties is the generated defence of RunBounded, over the
// seeded random plans of the differential suite (a fifth as many), with
// budgets at 0.1 / 0.5 / 0.9 / 1.0 / 1.5 times the plan's unbounded
// ElapsedMillis:
//
//   - budget 0 is Run, which is what Execute books;
//   - a run is aborted exactly when the unbounded run costs more than the
//     budget, and then has itself booked more than the budget;
//   - a run that is not aborted is the unbounded run: all of RunStats and every
//     operator's ActMillis and ActCardinality, bit for bit;
//   - an aborted cursor hands its chunks back: the previous plan, run right
//     after on the same executor, is indistinguishable from its first run (CI
//     repeats this under GOGC=1).
//
// It also requires that aborting saves something: a fair share of the runs at
// half the budget must have stopped before booking the full cost.
func TestBoundedRunProperties(t *testing.T) {
	db, opt, _ := setup(t)
	plans := differentialPlans / 5
	if testing.Short() {
		plans = 40
	}
	boundedSuite(t, "tpcds", db, opt, tpcdsShapes(), plans)
	db, opt, shapes := keyFamilies(t)
	boundedSuite(t, "key families", db, opt, shapes, plans/4)
}

func boundedSuite(t *testing.T, name string, db *storage.Database, opt *optimizer.Optimizer, shapes []*sqlparser.Query, plans int) {
	const seed = 20190122
	rng := rand.New(rand.NewSource(seed))
	gen := randplan.New(opt, seed)
	ex := New(db)

	// The previous case, for the run right after an abort.
	var prev struct {
		q    *sqlparser.Query
		plan *qgm.Plan
		full run
	}
	aborted, cutShort := 0, 0
	for n := 0; n < plans; {
		q, plan, _ := randomCase(t, rng, gen, opt, shapes)
		if plan == nil {
			continue
		}
		ser := execute(t, ex, plan, q)
		if tooMuchWork(ser) {
			continue
		}
		n++
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s plan #%d, %s\n%s\n"+format, append([]any{name, n, q.SQL(), qgm.Format(plan)}, args...)...)
		}
		bounded := func(budget float64) run {
			stats, err := ex.RunBounded(plan, q, budget)
			if err != nil {
				t.Fatalf("RunBounded: %v", err)
			}
			return run{ops: actuals(plan), stats: stats}
		}
		full := bounded(0)
		if want := (run{ops: ser.ops, stats: ser.stats}); diff(want, full, false) != "" {
			fail("budget 0 differs from Execute: %s", diff(want, full, false))
		}
		elapsed := full.stats.ElapsedMillis
		for _, f := range []float64{0.1, 0.5, 0.9, 1.0, 1.5} {
			budget := f * elapsed
			got := bounded(budget)
			if got.stats.Aborted != (elapsed > budget) {
				fail("budget %v of %v: Aborted = %v", budget, elapsed, got.stats.Aborted)
			}
			if !got.stats.Aborted {
				if d := diff(full, got, false); d != "" {
					fail("budget %v of %v, not aborted: %s", budget, elapsed, d)
				}
				continue
			}
			if got.stats.ElapsedMillis <= budget {
				fail("budget %v: aborted having booked %v of %v", budget, got.stats.ElapsedMillis, elapsed)
			}
			if f == 0.5 {
				aborted++
				if got.stats.ElapsedMillis < elapsed {
					cutShort++
				}
			}
			if prev.plan != nil {
				stats, err := ex.Run(prev.plan, prev.q)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if d := diff(prev.full, run{ops: actuals(prev.plan), stats: stats}, false); d != "" {
					fail("the previous plan, run right after an abort at %v: %s", budget, d)
				}
			}
		}
		prev.q, prev.plan, prev.full = q, plan, full
	}
	t.Logf("%s, %d plans: %d of %d runs at half the budget stopped before booking the full cost", name, plans, cutShort, aborted)
	if cutShort < aborted/4 {
		t.Errorf("%s: aborting saves nothing: %d of %d runs at half the budget were cut short", name, cutShort, aborted)
	}
}

// TestStoppedJoinStaysExhausted: a join whose build side alone takes the run
// over its budget stops, and every later Next returns false without doing
// anything — the outer is never pulled, and RunStats and every operator's
// ActMillis and ActCardinality stay as the stop left them.
func TestStoppedJoinStaysExhausted(t *testing.T) {
	_, opt, ex := setup(t)
	q := sqlparser.MustParse(`SELECT ss_quantity FROM store_sales, date_dim
		WHERE ss_sold_date_sk = d_date_sk AND d_year >= 1995`)
	plan, err := opt.BuildPlan(q, optimizer.Join(qgm.OpHSJOIN, optimizer.Leaf("STORE_SALES"), optimizer.Leaf("DATE_DIM")))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ex.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := p.open(plan, math.SmallestNonzeroFloat64)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.finish()
	if _, ok := cur.root.Next(); ok || !cur.ctx.overBudget() {
		t.Fatalf("Next = %v over budget %v: the build did not stop the run", ok, cur.ctx.overBudget())
	}
	stopped := run{ops: actuals(plan), stats: cur.Stats()}
	for i := 2; i <= 3; i++ {
		if _, ok := cur.root.Next(); ok {
			t.Fatalf("Next #%d after the stop returned a row", i)
		}
		if d := sameBits(stopped, run{ops: actuals(plan), stats: cur.Stats()}); d != "" {
			t.Fatalf("Next #%d after the stop moved the run: %s", i, d)
		}
	}
}
