package learning

import (
	"errors"
	"strings"
	"testing"

	"galo/internal/executor"
	"galo/internal/kb"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/tpcds"
)

var sharedDB *storage.Database

func learnDB(t *testing.T) *storage.Database {
	t.Helper()
	if sharedDB == nil {
		var err error
		sharedDB, err = tpcds.Generate(tpcds.GenOptions{Seed: 9, Scale: 0.08, Hazards: true})
		if err != nil {
			t.Fatal(err)
		}
	}
	return sharedDB
}

func fastOptions() Options {
	o := DefaultOptions()
	o.RandomPlans = 6
	o.PredicateVariants = 1
	o.Runs = 2
	o.Workers = 2
	o.MaxSubQueriesPerQuery = 12
	o.Workload = "tpcds-test"
	return o
}

func resolved(t *testing.T, q *sqlparser.Query) *sqlparser.Query {
	t.Helper()
	work := q.Clone()
	if err := sqlparser.Resolve(work, tpcds.Schema()); err != nil {
		t.Fatalf("resolve %s: %v", q.Name, err)
	}
	return work
}

func TestSubQueriesFigure3(t *testing.T) {
	q := resolved(t, tpcds.Fig3Query()) // web_sales x item x date_dim, 2 joins
	subs := SubQueries(q, 4, 64)
	// Connected subsets: {ws,item}, {ws,date}, {ws,item,date} = 3.
	if len(subs) != 3 {
		t.Fatalf("SubQueries = %d, want 3", len(subs))
	}
	var twoWay *sqlparser.Query
	for _, s := range subs {
		if len(s.From) == 2 {
			names := map[string]bool{}
			for _, tr := range s.From {
				names[tr.Table] = true
			}
			if names["WEB_SALES"] && names["ITEM"] {
				twoWay = s
			}
		}
	}
	if twoWay == nil {
		t.Fatal("web_sales x item sub-query not generated")
	}
	// The Figure 3b projection: join predicate plus the item category filter,
	// and not the date predicate.
	if twoWay.NumJoins() != 1 {
		t.Errorf("sub-query joins = %d", twoWay.NumJoins())
	}
	for _, p := range twoWay.Where {
		if !p.IsJoin() && p.Left.Column == "D_YEAR" {
			t.Errorf("date predicate leaked into the web_sales/item sub-query: %v", p)
		}
	}
	if len(twoWay.Select) == 0 {
		t.Errorf("sub-query should project columns from its tables")
	}
	// Threshold caps the size.
	capped := SubQueries(resolved(t, tpcds.WideQuery(12)), 2, 1000)
	for _, s := range capped {
		if len(s.From) > 3 {
			t.Errorf("sub-query exceeds join threshold: %d tables", len(s.From))
		}
	}
	// Cap on enumeration.
	limited := SubQueries(resolved(t, tpcds.WideQuery(20)), 4, 10)
	if len(limited) > 10 {
		t.Errorf("MaxSubQueries cap not applied: %d", len(limited))
	}
	if SubQueries(resolved(t, sqlparser.MustParse("SELECT i_item_desc FROM item")), 4, 10) != nil {
		t.Errorf("single-table query should produce no sub-queries")
	}
}

func TestStructureKeyMergesSameShape(t *testing.T) {
	a := sqlparser.MustParse(`SELECT i_item_desc FROM web_sales, item WHERE ws_item_sk = i_item_sk AND i_category = 'Music'`)
	b := sqlparser.MustParse(`SELECT i_item_desc FROM web_sales, item WHERE ws_item_sk = i_item_sk AND i_category = 'Books'`)
	c := sqlparser.MustParse(`SELECT i_item_desc FROM store_sales, item WHERE ss_item_sk = i_item_sk AND i_category = 'Music'`)
	if StructureKey(a) != StructureKey(b) {
		t.Errorf("same structure with different values should share a key")
	}
	if StructureKey(a) == StructureKey(c) {
		t.Errorf("different tables should not share a key")
	}
}

func TestPredicateVariantsSampleDatabase(t *testing.T) {
	db := learnDB(t)
	q := resolved(t, sqlparser.MustParse(`SELECT i_item_desc FROM web_sales, item WHERE ws_item_sk = i_item_sk AND i_category = 'Jewelry'`))
	gen := storage.NewGenerator(3)
	variants := PredicateVariants(db, q, 3, gen)
	if len(variants) < 2 {
		t.Fatalf("expected variants beyond the original, got %d", len(variants))
	}
	if variants[0] != q {
		t.Errorf("original query must be the first variant")
	}
	seen := map[string]bool{}
	for _, v := range variants[1:] {
		for _, p := range v.Where {
			if !p.IsJoin() && p.Left.Column == "I_CATEGORY" {
				if p.Value.S == "Jewelry" {
					t.Errorf("variant kept the original value")
				}
				seen[p.Value.S] = true
			}
		}
	}
	if len(seen) == 0 {
		t.Errorf("no sampled category values")
	}
	// No variants requested.
	if got := PredicateVariants(db, q, 0, gen); len(got) != 1 {
		t.Errorf("PredicateVariants(0) = %d", len(got))
	}
}

func TestLearnQueryFindsRewritesOnHazardousWorkload(t *testing.T) {
	db := learnDB(t)
	knowledge := kb.New()
	eng := New(db, knowledge, fastOptions())
	report, err := eng.LearnQuery(tpcds.Fig8Query())
	if err != nil {
		t.Fatalf("LearnQuery: %v", err)
	}
	if report.SubQueries == 0 {
		t.Fatalf("no sub-queries analyzed")
	}
	if report.WallMillis <= 0 || report.SimulatedWorkMillis <= 0 {
		t.Errorf("timings not recorded: %+v", report)
	}
	if report.TemplatesAdded == 0 {
		t.Errorf("expected at least one template learned from the hazardous Figure 8 query (candidates=%d)", report.CandidateRewrites)
	}
	if knowledge.Size() != report.TemplatesAdded {
		t.Errorf("KB size %d != templates added %d", knowledge.Size(), report.TemplatesAdded)
	}
	for _, tmpl := range knowledge.Templates() {
		if tmpl.Improvement < eng.Opts.MinImprovement {
			t.Errorf("template improvement %v below threshold", tmpl.Improvement)
		}
		for _, scan := range tmpl.Problem.Scans() {
			if scan.Table != "" && scan.Table[:6] != "TABLE_" {
				t.Errorf("template not abstracted: %s", scan.Table)
			}
		}
		if tmpl.GuidelineXML == "" || tmpl.SourceWorkload != "tpcds-test" {
			t.Errorf("template metadata incomplete: %+v", tmpl)
		}
	}
}

// TestFig8WideMisestimationDrivesLearning is the end-to-end check of the
// honest Figure 8 hazard: with histogram statistics collected before the
// recent-window flood, the optimizer deterministically picks a merge join
// whose sorted index access looks nearly free, the executor's actuals prove
// a hash join over scans at least 2x faster, and the learning engine
// abstracts exactly that MSJOIN→HSJOIN rewrite into the knowledge base.
func TestFig8WideMisestimationDrivesLearning(t *testing.T) {
	db := learnDB(t)
	q := tpcds.Fig8WideQuery(db)
	opt := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	plan := opt.MustOptimize(q)

	// The plan-time pick: an MSJOIN joining the fact table with date_dim,
	// both inputs claiming sort-avoidance (no SORT operator below the join).
	var msjoin *qgm.Node
	plan.Root.Walk(func(n *qgm.Node) {
		if n.Op == qgm.OpMSJOIN && msjoin == nil {
			msjoin = n
		}
	})
	if msjoin == nil {
		t.Fatalf("wide-range Fig 8 query did not pick a merge join:\n%s", qgm.Format(plan))
	}
	tables := msjoin.Tables()
	if len(tables) != 2 || tables[0] != "DATE_DIM" || tables[1] != "STORE_SALES" {
		t.Errorf("MSJOIN joins %v, want [DATE_DIM STORE_SALES]", tables)
	}
	if msjoin.Outer.Op == qgm.OpSORT || msjoin.Inner.Op == qgm.OpSORT {
		t.Errorf("MSJOIN should claim sort-avoidance through index order properties:\n%s", qgm.Format(plan))
	}
	if msjoin.OrderedOn == "" {
		t.Errorf("MSJOIN carries no order property")
	}

	// The runtime truth: a hash join over scans beats the picked plan >= 2x.
	ex := executor.New(db)
	picked, err := ex.Execute(plan, q)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := opt.BuildPlan(q, optimizer.Join(qgm.OpHSJOIN,
		optimizer.Join(qgm.OpHSJOIN,
			optimizer.LeafAccess("STORE_SALES", qgm.OpTBSCAN, ""),
			optimizer.LeafAccess("DATE_DIM", qgm.OpTBSCAN, "")),
		optimizer.LeafAccess("ITEM", qgm.OpTBSCAN, "")))
	if err != nil {
		t.Fatal(err)
	}
	alt, err := ex.Execute(hs, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(alt.Rows) != len(picked.Rows) {
		t.Fatalf("plans disagree on results: %d vs %d rows", len(alt.Rows), len(picked.Rows))
	}
	if alt.Stats.ElapsedMillis*2 > picked.Stats.ElapsedMillis {
		t.Errorf("hash join should be >=2x faster: MSJOIN plan %.1fms, HSJOIN plan %.1fms",
			picked.Stats.ElapsedMillis, alt.Stats.ElapsedMillis)
	}

	// The learning engine discovers the MSJOIN -> HSJOIN template from the
	// estimate/actual gap alone. A slightly larger random-plan budget makes
	// sure the 2-table plan space — which contains the winning hash join over
	// scans — is covered.
	knowledge := kb.New()
	opts := fastOptions()
	opts.RandomPlans = 12
	eng := New(db, knowledge, opts)
	if _, err := eng.LearnWorkload([]*sqlparser.Query{q}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tmpl := range knowledge.Templates() {
		problemHasMS := false
		tmpl.Problem.Walk(func(n *qgm.Node) {
			if n.Op == qgm.OpMSJOIN {
				problemHasMS = true
			}
		})
		if problemHasMS && tmpl.Structural && strings.Contains(tmpl.GuidelineXML, "HSJOIN") {
			found = true
		}
	}
	if !found {
		t.Errorf("MSJOIN->HSJOIN template not learned (KB size %d)", knowledge.Size())
	}
}

// TestLearnWorkloadDeterministicAcrossWorkerCounts pins that learning
// outcomes do not depend on goroutine scheduling: the same workload learns the
// same knowledge base — the same N-Triples bytes, sequence-salted template
// IDs and term order included — at 1, 2 and 8 workers and on two consecutive
// runs. (Plans are generated and templates published sequentially in workload
// order, and observation groups become templates in sorted key order; only
// plan execution fans out.)
func TestLearnWorkloadDeterministicAcrossWorkerCounts(t *testing.T) {
	db := learnDB(t)
	learn := func(workers int) string {
		knowledge := kb.New()
		opts := fastOptions()
		opts.Workers = workers
		eng := New(db, knowledge, opts)
		queries := []*sqlparser.Query{tpcds.Fig3Query(), tpcds.Fig8WideQuery(db), tpcds.Fig7Query()}
		if _, err := eng.LearnWorkload(queries); err != nil {
			t.Fatal(err)
		}
		if knowledge.Size() == 0 {
			t.Fatalf("nothing learned at %d workers", workers)
		}
		return knowledge.NTriples()
	}
	want := learn(1)
	for _, workers := range []int{1, 2, 8} {
		if got := learn(workers); got != want {
			t.Errorf("knowledge base at %d workers differs from the first run at 1 worker (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}

func TestLearnWorkloadParallelAndDeduplicates(t *testing.T) {
	db := learnDB(t)
	knowledge := kb.New()
	eng := New(db, knowledge, fastOptions())
	queries := []*sqlparser.Query{tpcds.Fig3Query(), tpcds.Fig8Query(), tpcds.Fig7Query()}
	report, err := eng.LearnWorkload(queries)
	if err != nil {
		t.Fatalf("LearnWorkload: %v", err)
	}
	if report.QueriesAnalyzed != 3 {
		t.Errorf("QueriesAnalyzed = %d", report.QueriesAnalyzed)
	}
	if report.SubQueriesAnalyzed == 0 {
		t.Errorf("no sub-queries analyzed")
	}
	if report.TemplatesAdded != knowledge.Size() {
		t.Errorf("report/KB disagreement: %d vs %d", report.TemplatesAdded, knowledge.Size())
	}
	if report.AvgWallPerQuery() <= 0 {
		t.Errorf("AvgWallPerQuery = %v", report.AvgWallPerQuery())
	}
	// Fig3 and Fig8 share the store_sales/date_dim/item structure only
	// partially; but repeated runs over the same workload should not grow the
	// KB because structures are already known.
	sizeBefore := knowledge.Size()
	if _, err := eng.LearnWorkload(queries); err != nil {
		t.Fatal(err)
	}
	if knowledge.Size() != sizeBefore {
		t.Errorf("re-learning the same workload grew the KB from %d to %d", sizeBefore, knowledge.Size())
	}
}

// TestAbortedMeasurementIsBilledItsBudget pins what an aborted execution
// costs: exactly budget × Runs (a completed one elapsed × Runs), and it is
// ranked behind every plan that finished.
func TestAbortedMeasurementIsBilledItsBudget(t *testing.T) {
	done := &execution{Stats: executor.RunStats{ElapsedMillis: 40}}
	cut := &execution{Budget: 10, Stats: executor.RunStats{ElapsedMillis: 12, Aborted: true}}
	if got := done.billed(3); got != 120 {
		t.Errorf("completed execution billed %v ms over 3 runs, want 120", got)
	}
	if got := cut.billed(3); got != 30 {
		t.Errorf("aborted execution billed %v ms over 3 runs, want 30", got)
	}
	ranked := []*execution{cut, done}
	if sortExecutions(ranked); ranked[0] != done {
		t.Errorf("an aborted plan (booked 12 ms) ranked before a completed one (40 ms)")
	}
}

// TestRankingComparator pins the ranking module's order: elapsed time first;
// within the 2 % tie band fewer physical reads, then CPU rows, then sort-heap
// pages, then lower time; failed and aborted runs after every completed one;
// and input order wherever the keys are equal.
func TestRankingComparator(t *testing.T) {
	type run struct {
		name                 string
		millis               float64
		phys, cpu, sortPages int64
		aborted, failed      bool
	}
	cases := []struct {
		name string
		in   []run
		want string
	}{
		{"apart beyond the band sort by time alone", []run{
			{name: "c", millis: 103, phys: 0, cpu: 0, sortPages: 0},
			{name: "b", millis: 100, phys: 9, cpu: 9, sortPages: 9},
			{name: "a", millis: 50, phys: 99, cpu: 99, sortPages: 99},
		}, "a b c"},
		{"within the band fewer physical reads win", []run{
			{name: "b", millis: 100, phys: 5, cpu: 1},
			{name: "a", millis: 101, phys: 4, cpu: 9},
		}, "a b"},
		{"then fewer CPU rows", []run{
			{name: "b", millis: 100, phys: 4, cpu: 9, sortPages: 1},
			{name: "a", millis: 101.5, phys: 4, cpu: 8, sortPages: 9},
		}, "a b"},
		{"then fewer sort-heap pages", []run{
			{name: "b", millis: 100, phys: 4, cpu: 8, sortPages: 3},
			{name: "a", millis: 101.9, phys: 4, cpu: 8, sortPages: 2},
		}, "a b"},
		{"then lower time", []run{
			{name: "b", millis: 101, phys: 4, cpu: 8, sortPages: 2},
			{name: "a", millis: 100, phys: 4, cpu: 8, sortPages: 2},
		}, "a b"},
		{"failed and aborted runs go last in input order", []run{
			{name: "x", millis: 1, failed: true},
			{name: "b", millis: 90},
			{name: "y", millis: 2, aborted: true},
			{name: "a", millis: 10},
			{name: "z", millis: 3, failed: true},
		}, "a b x y z"},
		{"equal keys keep input order", []run{
			{name: "b", millis: 100, phys: 1, cpu: 2, sortPages: 3},
			{name: "a", millis: 100, phys: 1, cpu: 2, sortPages: 3},
			{name: "c", millis: 100, phys: 1, cpu: 2, sortPages: 3},
		}, "b a c"},
	}
	for _, c := range cases {
		xs := make([]*execution, len(c.in))
		names := map[*execution]string{}
		for i, r := range c.in {
			xs[i] = &execution{Stats: executor.RunStats{ElapsedMillis: r.millis, PhysicalReads: r.phys,
				CPURows: r.cpu, SortHeapPages: r.sortPages, Aborted: r.aborted}}
			if r.failed {
				xs[i].Err = errors.New("failed")
			}
			names[xs[i]] = r.name
		}
		sortExecutions(xs)
		got := make([]string, len(xs))
		for i, x := range xs {
			got[i] = names[x]
		}
		if strings.Join(got, " ") != c.want {
			t.Errorf("%s: ranked %s, want %s", c.name, strings.Join(got, " "), c.want)
		}
	}
}

// TestFunnelAddsUp checks the funnel counters against each other and against
// the report's own totals on a workload that learns templates.
func TestFunnelAddsUp(t *testing.T) {
	db := learnDB(t)
	opts := fastOptions()
	report, err := New(db, kb.New(), opts).LearnWorkload([]*sqlparser.Query{tpcds.Fig3Query(), tpcds.Fig8WideQuery(db), tpcds.Fig7Query()})
	if err != nil {
		t.Fatal(err)
	}
	var sum Funnel
	subs := 0
	for _, qr := range report.PerQuery {
		for _, f := range qr.SubQueryFunnels {
			sum.add(f)
			subs++
		}
	}
	f := report.Funnel
	if sum != f || subs != report.SubQueriesAnalyzed {
		t.Errorf("per-sub-query funnels sum to %+v over %d sub-queries, report says %+v over %d", sum, subs, f, report.SubQueriesAnalyzed)
	}
	if f.TemplatesAdded != report.TemplatesAdded || f.TemplatesAdded == 0 {
		t.Errorf("funnel templates added %d, report %d", f.TemplatesAdded, report.TemplatesAdded)
	}
	if f.ExecutionsDistinct != f.PlansGenerated || f.ExecutionsAsked != opts.Runs*f.ExecutionsDistinct {
		t.Errorf("every plan runs once and is billed Runs times: %s", f)
	}
	alternatives := f.PlansGenerated - f.Variants
	if f.ExecutionsAborted == 0 || f.ExecutionsAborted > alternatives {
		t.Errorf("aborted %d of %d alternatives", f.ExecutionsAborted, alternatives)
	}
	if f.StructuralWinners > f.BeatBaseline || f.BeatBaseline > alternatives {
		t.Errorf("the funnel widens downstream: %s", f)
	}
	if report.PlanMillis <= 0 || report.ExecuteMillis <= 0 || report.RankMillis <= 0 ||
		report.PlanMillis+report.ExecuteMillis+report.RankMillis > report.WallMillis {
		t.Errorf("phase times %v + %v + %v ms of %v ms", report.PlanMillis, report.ExecuteMillis, report.RankMillis, report.WallMillis)
	}
}
