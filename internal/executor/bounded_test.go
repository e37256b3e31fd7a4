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
// seeded random plans of the differential suite (a fifth as many), serially
// and at 4 workers, with budgets at 0.1 / 0.5 / 0.9 / 1.0 / 1.5 times the
// plan's unbounded ElapsedMillis:
//
//   - budget 0 is Run, which is what Execute books;
//   - a run is aborted exactly when the unbounded run costs more than the
//     budget, and then has itself booked more than the budget;
//   - a run that is not aborted is the unbounded run: all of RunStats and every
//     operator's ActMillis and ActCardinality, bit for bit;
//   - an aborted cursor leaves no exchange worker behind and hands its chunks
//     back: the previous plan, run right after on the same executor, is
//     indistinguishable from its first run (CI repeats this under GOGC=1).
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
	serial, parallel := New(db), New(db)
	parallel.Workers = 4

	type sideState struct {
		name string
		ex   *Executor
		// the previous case, for the run right after an abort
		q    *sqlparser.Query
		plan *qgm.Plan
		full run
	}
	sides := []*sideState{{name: "serial", ex: serial}, {name: "4 workers", ex: parallel}}
	aborted, cutShort := 0, 0
	for n := 0; n < plans; {
		q, plan, _ := randomCase(t, rng, gen, opt, shapes)
		if plan == nil {
			continue
		}
		ser := execute(t, serial, plan, q)
		if tooMuchWork(ser) {
			continue
		}
		n++
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s plan #%d, %s\n%s\n"+format, append([]any{name, n, q.SQL(), qgm.Format(plan)}, args...)...)
		}
		for _, side := range sides {
			bounded := func(budget float64) run {
				stats, err := side.ex.RunBounded(plan, q, budget)
				if err != nil {
					t.Fatalf("RunBounded: %v", err)
				}
				if live := ExchangeWorkerCount(); live != 0 {
					fail("%s, budget %v: %d exchange workers outlive the run", side.name, budget, live)
				}
				return run{ops: actuals(plan), stats: stats}
			}
			full := bounded(0)
			if want := (run{ops: ser.ops, stats: ser.stats}); diff(want, full, false) != "" {
				fail("%s, budget 0 differs from Execute: %s", side.name, diff(want, full, false))
			}
			elapsed := full.stats.ElapsedMillis
			for _, f := range []float64{0.1, 0.5, 0.9, 1.0, 1.5} {
				budget := f * elapsed
				got := bounded(budget)
				if got.stats.Aborted != (elapsed > budget) {
					fail("%s, budget %v of %v: Aborted = %v", side.name, budget, elapsed, got.stats.Aborted)
				}
				if !got.stats.Aborted {
					if d := diff(full, got, false); d != "" {
						fail("%s, budget %v of %v, not aborted: %s", side.name, budget, elapsed, d)
					}
					continue
				}
				if got.stats.ElapsedMillis <= budget {
					fail("%s, budget %v: aborted having booked %v of %v", side.name, budget, got.stats.ElapsedMillis, elapsed)
				}
				if f == 0.5 {
					aborted++
					if got.stats.ElapsedMillis < elapsed {
						cutShort++
					}
				}
				if side.plan != nil {
					stats, err := side.ex.Run(side.plan, side.q)
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					if d := diff(side.full, run{ops: actuals(side.plan), stats: stats}, false); d != "" {
						fail("%s: the previous plan, run right after an abort at %v: %s", side.name, budget, d)
					}
				}
			}
			side.q, side.plan, side.full = q, plan, full
		}
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

// TestBoundedParallelMatchesSerial holds a bounded run of a segment under a
// SORT or a GRPBY to the serial one: the join-sort, threeway-sort and
// join-groupby plans of TestParallelMatchesSerialAcrossWorkerCounts, run by
// RunBounded at 0.1, 0.5, 0.9, 1.0 and 1.5 times each plan's cost at workers
// 0, 4 and 8, book all of RunStats and every operator's ActMillis (as bits) and
// ActCardinality alike at every worker count — aborted or not — and leave no
// exchange worker behind.
func TestBoundedParallelMatchesSerial(t *testing.T) {
	_, opt, _ := setup(t)
	join := func(outer, inner string) *optimizer.Spec {
		return optimizer.Join(qgm.OpHSJOIN, optimizer.Leaf(outer), optimizer.Leaf(inner))
	}
	cases := []struct {
		name, sql string
		spec      *optimizer.Spec
	}{
		{"join-sort", `SELECT i_item_desc, ss_quantity FROM store_sales, item
			WHERE ss_item_sk = i_item_sk AND ss_quantity > 5 ORDER BY i_item_desc`,
			join("STORE_SALES", "ITEM")},
		{"threeway-sort", `SELECT i_item_desc, ss_quantity, d_year FROM store_sales, item, date_dim
			WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk ORDER BY i_item_desc`,
			optimizer.Join(qgm.OpHSJOIN, join("STORE_SALES", "ITEM"), optimizer.Leaf("DATE_DIM"))},
		{"join-groupby", `SELECT i_category FROM store_sales, item
			WHERE ss_item_sk = i_item_sk GROUP BY i_category`,
			join("STORE_SALES", "ITEM")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := sqlparser.MustParse(tc.sql)
			plan, err := opt.BuildPlan(q, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			bounded := func(workers int, budget float64) run {
				stats, err := New(testDB).WithWorkers(workers).RunBounded(plan, q, budget)
				if err != nil {
					t.Fatalf("RunBounded: %v", err)
				}
				if live := ExchangeWorkerCount(); live != 0 {
					t.Fatalf("workers=%d, budget %v: %d exchange workers outlive the run", workers, budget, live)
				}
				return run{ops: actuals(plan), stats: stats}
			}
			elapsed := bounded(0, 0).stats.ElapsedMillis
			aborted := 0
			for _, f := range []float64{0.1, 0.5, 0.9, 1.0, 1.5} {
				budget := f * elapsed
				serial := bounded(0, budget)
				if serial.stats.Aborted {
					aborted++
				}
				for _, workers := range []int{4, 8} {
					segments := ExchangeSegmentCount()
					got := bounded(workers, budget)
					if ExchangeSegmentCount() == segments {
						t.Fatalf("workers=%d, budget %v: no exchange ran", workers, budget)
					}
					if d := sameBits(serial, got); d != "" {
						t.Errorf("workers=%d, budget %v of %v: %s", workers, budget, elapsed, d)
					}
				}
			}
			if aborted != 3 {
				t.Errorf("%d of 5 budgets aborted the serial run, want the 3 below its cost", aborted)
			}
		})
	}
}
