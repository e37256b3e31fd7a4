package optimizer_test

import (
	"fmt"
	"math/rand"
	"testing"

	"galo/internal/guideline"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/randplan"
	"galo/internal/sqlparser"
)

// TestBoundedSearchMatchesUnbounded is the differential test of the greedy
// bound on the dynamic program: every golden-corpus query, plain and under its
// golden guideline document, and 1 000 random queries of 2 to 9 tables (a
// tenth of them under the race detector or -short) — cartesian products
// included — under random guideline documents: seeded ones with unsatisfiable
// and conflicting guidelines, whole random plans as a guideline, or both. Each
// is planned by Optimize and by optimizer.UnboundedSearch, which replays every
// attempt unbounded and also checks each bounded attempt against its unbounded
// twin. The plan, every estimate, UsedDP, the guideline outcome and the error
// must be identical, and the bound may only lower the count of combinations
// considered.
//
// The safety net — a bounded search that pruned every plan, searched again
// unbounded — must never run on the golden corpus. On the random queries it
// may, rarely: the greedy plan can undercut the dynamic program's answer,
// because a clamped cardinality makes a subset's estimate depend on its join
// order and the dynamic program keeps the cheapest plan of a subset, not the
// one with the smallest output. Seed 29 takes it on 3 of 1 000 queries; the
// test allows 1 %.
func TestBoundedSearchMatchesUnbounded(t *testing.T) {
	corpora := goldenCorpora(t)
	searched, pruned := 0, 0
	check := func(db corpus, q *sqlparser.Query, doc *guideline.Document) {
		t.Helper()
		opts := optimizer.DefaultOptions()
		opts.Guidelines = doc
		opt := optimizer.New(db.db.Catalog, opts)
		p, err := opt.Prepare(q)
		if err != nil {
			return
		}
		want := optimizer.UnboundedSearch(t, opt, p)
		if !want.DP {
			return
		}
		searched++
		pruned += want.Pruned
		got, report, err := opt.OptimizePrepared(p)
		render := func(plan *qgm.Plan, r *optimizer.Report, err error) string {
			if err != nil {
				return "error: " + err.Error()
			}
			return fmt.Sprintf("used_dp=%v applied=%v ignored=%v\n%s", r.UsedDP, r.GuidelinesApplied, r.GuidelinesIgnored, dumpPlan(plan, p.SQL()))
		}
		if g, w := render(got, report, err), render(want.Plan, want.Report, want.Err); g != w {
			t.Errorf("%s/%s: the bounded search differs from the unbounded one\nbounded:\n%s\nunbounded:\n%s", db.name, q.Name, g, w)
		}
		if err == nil && want.Pruned == 0 && report.PlansConsidered > want.Report.PlansConsidered {
			t.Errorf("%s/%s: %d combinations considered bounded, %d unbounded", db.name, q.Name, report.PlansConsidered, want.Report.PlansConsidered)
		}
	}

	for _, c := range corpora {
		gr := rand.New(rand.NewSource(int64(len(c.name)) + 7)) // TestGoldenPlans' documents
		for _, q := range c.queries {
			doc := randomGuidelines(gr, c.db.Catalog, q)
			check(c, q, nil)
			check(c, q, doc)
		}
	}
	if pruned > 0 {
		t.Errorf("the bound pruned every plan in %d golden-corpus attempts", pruned)
	}
	golden := searched

	tpcds := corpora[0]
	n := 1000
	if testing.Short() || optimizer.RaceDetector {
		n /= 10
	}
	pruned = 0
	r := rand.New(rand.NewSource(29))
	gen := randplan.New(optimizer.New(tpcds.db.Catalog, optimizer.DefaultOptions()), 29)
	for i := 0; i < n; i++ {
		q := growQuery(r, tpcds.db.Catalog.Schema, fmt.Sprintf("BOUND.Q%04d", i), 2+r.Intn(8))
		doc, whole := randomGuidelines(r, tpcds.db.Catalog, q), randomPlanGuideline(gen, tpcds, q)
		switch k := r.Intn(3); {
		case whole == nil || k == 0:
		case k == 1:
			doc = whole
		default:
			doc = guideline.Merge(whole, doc)
		}
		check(tpcds, q, doc)
	}
	t.Logf("%d golden-corpus and %d random searches compared; the safety net ran %d times", golden, searched-golden, pruned)
	if pruned*100 > n {
		t.Errorf("the bound pruned every plan in %d attempts over %d random queries", pruned, n)
	}
}

// randomPlanGuideline returns a random plan of the query as a guideline
// document, which a plan can satisfy whole; nil when the sampled spec does not
// build.
func randomPlanGuideline(gen *randplan.Generator, c corpus, q *sqlparser.Query) *guideline.Document {
	spec, err := gen.RandomSpec(q)
	if err != nil {
		return nil
	}
	plan, err := optimizer.New(c.db.Catalog, optimizer.DefaultOptions()).BuildPlan(q, spec)
	if err != nil {
		return nil
	}
	doc, err := guideline.FromPlan(plan)
	if err != nil {
		return nil
	}
	return doc
}
