package executor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/randplan"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// TestRunCountsWhatExecuteEmits holds the counting root (countRows) to the
// drain it stands in for, over the seeded random plans of
// TestDifferentialRandomPlans — both suites, the same sequence — serially and
// at 4 workers:
//
//   - Prepared.Run books what Prepared.Execute books: all of RunStats and
//     every operator's ActMillis (as bits) and ActCardinality;
//   - RunBounded at budgets of 0 and ¼, ½ and ¾ of the plan's unbounded
//     ElapsedMillis books what a run opened under that budget and drained
//     through its root's Next books (drainedRun), Aborted included.
//
// The hand-picked cases of assertFrozen are checked the same way
// (checkCounting). A path silently not taken proves nothing, so the suite
// fails when fewer runs than a floor took the counting root (countingFloor).
func TestRunCountsWhatExecuteEmits(t *testing.T) {
	plans := differentialPlans
	if testing.Short() {
		plans = 200
	}
	db, opt, _ := setup(t)
	countingSuite(t, "tpcds", db, opt, tpcdsShapes(), plans)
	db, opt, shapes := keyFamilies(t)
	countingSuite(t, "key families", db, opt, shapes, plans/10)
}

// countingFloor is, per suite, how many runs per plan must have taken the
// counting root: a tenth of what the whole tpcds suite counts (2.6 of its 10
// runs of a plan). The key families join on keys read through the rows — a
// string, two columns, a column holding one string — which never count, so
// theirs is a ceiling of none.
var countingFloor = map[string]float64{"tpcds": 0.25, "key families": 0}

// countingSuite draws the plans differentialSuite draws, consuming the
// generator alike, and checks each as TestRunCountsWhatExecuteEmits says.
func countingSuite(t *testing.T, name string, db *storage.Database, opt *optimizer.Optimizer, shapes []*sqlparser.Query, plans int) {
	const seed = 20190122
	rng := rand.New(rand.NewSource(seed))
	gen := randplan.New(opt, seed)
	ex := New(db)
	prepared := map[string]*Prepared{}
	counted := rootsCounted.Load()
	for n := 0; n < plans; {
		q, plan, _ := randomCase(t, rng, gen, opt, shapes)
		if plan == nil {
			continue
		}
		p := prepared[q.SQL()]
		if p == nil {
			var err error
			if p, err = ex.Prepare(q); err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			prepared[q.SQL()] = p
		}
		for _, workers := range []int{1, 4} {
			p := p.WithWorkers(workers)
			res, err := p.Execute(plan)
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			want := run{ops: actuals(plan), stats: res.Stats}
			if workers == 1 {
				if tooMuchWork(want) {
					break
				}
				n++
				rng.Intn(res.Stats.Rows + 1) // the differential suite's early Close
			}
			if d := checkCounting(p, plan, want); d != "" {
				t.Fatalf("%s plan #%d at %d workers, %s\n%s\n%s", name, n, workers, q.SQL(), qgm.Format(plan), d)
			}
		}
	}
	got := rootsCounted.Load() - counted
	t.Logf("%s, %d plans: %d runs counted their root", name, plans, got)
	switch f := countingFloor[name]; {
	case f == 0 && got > 0:
		t.Errorf("%s: %d runs counted a root whose key is read through the rows", name, got)
	case float64(got) < f*float64(plans):
		t.Errorf("%s: the suite lost coverage: %d runs over %d plans counted their root; the floor is %v per plan", name, got, plans, f)
	}
}

// checkCounting describes the first way the runs of the plan through p differ
// from what they must book ("" when none does): Run books want, what Execute
// booked, and RunBounded at budgets of 0, ¼, ½ and ¾ of want's ElapsedMillis
// books what drainedRun does under the same budget.
func checkCounting(p *Prepared, plan *qgm.Plan, want run) string {
	stats, err := p.Run(plan)
	if err != nil {
		return fmt.Sprintf("Run: %v", err)
	}
	if d := sameBits(want, run{ops: actuals(plan), stats: stats}); d != "" {
		return "Run against Execute: " + d
	}
	for _, f := range []float64{0, 0.25, 0.5, 0.75} {
		budget := f * want.stats.ElapsedMillis
		stats, err := drainedRun(p, plan, budget)
		if err != nil {
			return fmt.Sprintf("drainedRun: %v", err)
		}
		drained := run{ops: actuals(plan), stats: stats}
		if stats, err = p.RunBounded(plan, budget); err != nil {
			return fmt.Sprintf("RunBounded: %v", err)
		}
		if d := sameBits(drained, run{ops: actuals(plan), stats: stats}); d != "" {
			return fmt.Sprintf("RunBounded at %v of %v against the drain: %s", budget, want.stats.ElapsedMillis, d)
		}
	}
	return ""
}

// drainedRun is RunBounded as it was before the counting root: the plan
// opened under the budget and its root drained through Next.
func drainedRun(p *Prepared, plan *qgm.Plan, budgetMillis float64) (RunStats, error) {
	cur, err := p.open(plan, budgetMillis)
	if err != nil {
		return RunStats{}, err
	}
	for _, ok := cur.root.Next(); ok; _, ok = cur.root.Next() {
		cur.rows++
	}
	cur.finish()
	return cur.Stats(), nil
}

// sameBits compares two runs' RunStats and every operator's ActMillis, as
// bits, and ActCardinality.
func sameBits(want, got run) string {
	if want.stats != got.stats || math.Float64bits(want.stats.ElapsedMillis) != math.Float64bits(got.stats.ElapsedMillis) {
		return fmt.Sprintf("stats %+v, want %+v", got.stats, want.stats)
	}
	for i, op := range got.ops {
		if math.Float64bits(op[0]) != math.Float64bits(want.ops[i][0]) || op[1] != want.ops[i][1] {
			return fmt.Sprintf("operator %d (ActMillis, ActCardinality) = %v, want %v", i, op, want.ops[i])
		}
	}
	return ""
}
