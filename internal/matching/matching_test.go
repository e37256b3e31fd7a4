package matching

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"galo/internal/executor"
	"galo/internal/fuseki"
	"galo/internal/kb"
	"galo/internal/learning"
	"galo/internal/optimizer"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/tpcds"
)

// The integration fixture learns a small knowledge base once and reuses it in
// every test: this exercises the full offline workflow (learning engine,
// transformation engine, knowledge base) before the online matching tests.
// Learning is deterministic — plans are ranked on the executor's simulated
// cost — so the fixture's knowledge base is identical at any worker count or
// -cpu setting.
var (
	fixtureDB *storage.Database
	fixtureKB *kb.KB
)

func fixture(t *testing.T) (*storage.Database, *kb.KB) {
	t.Helper()
	if fixtureDB == nil {
		db, err := tpcds.Generate(tpcds.GenOptions{Seed: 21, Scale: 0.08, Hazards: true})
		if err != nil {
			t.Fatal(err)
		}
		knowledge := kb.New()
		opts := learning.DefaultOptions()
		opts.RandomPlans = 8
		opts.PredicateVariants = 1
		opts.Runs = 2
		opts.Workers = 2
		opts.MaxSubQueriesPerQuery = 12
		opts.Workload = "tpcds"
		eng := learning.New(db, knowledge, opts)
		queries := []*sqlparser.Query{tpcds.Fig3Query(), tpcds.Fig4Query(), tpcds.Fig7Query(), tpcds.Fig8WideQuery(db)}
		report, err := eng.LearnWorkload(queries)
		if err != nil {
			t.Fatal(err)
		}
		if report.TemplatesAdded == 0 {
			t.Fatal("fixture learned no templates; matching tests cannot run")
		}
		fixtureDB, fixtureKB = db, knowledge
	}
	return fixtureDB, fixtureKB
}

func newEngine(db *storage.Database, knowledge *kb.KB) *Engine {
	return New(db.Catalog, fuseki.LocalEndpoint{Store: knowledge.Store()}, DefaultOptions())
}

func TestMatchPlanFindsLearnedPattern(t *testing.T) {
	db, knowledge := fixture(t)
	eng := newEngine(db, knowledge)
	opt := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	plan := opt.MustOptimize(tpcds.Fig8WideQuery(db))
	matches, err := eng.MatchPlan(plan)
	if err != nil {
		t.Fatalf("MatchPlan: %v", err)
	}
	if len(matches) == 0 {
		t.Fatalf("no matches for the query the knowledge base was learned from (KB size %d)", knowledge.Size())
	}
	for _, m := range matches {
		if m.Guideline == nil {
			t.Errorf("match without guideline: %+v", m)
		}
		if m.TemplateIRI == "" || m.Improvement <= 0 {
			t.Errorf("match metadata incomplete: %+v", m)
		}
		// The rebound guideline references the incoming query's instances,
		// not canonical labels.
		for _, id := range m.Guideline.TabIDs() {
			if strings.HasPrefix(id, "TABLE_") {
				t.Errorf("guideline TABID not rebound: %s", id)
			}
		}
		if m.MatchMillis < 0 {
			t.Errorf("negative match time")
		}
	}
	if _, err := eng.MatchPlan(nil); err == nil {
		t.Errorf("nil plan should fail")
	}
}

func TestReoptimizeImprovesActualRuntime(t *testing.T) {
	db, knowledge := fixture(t)
	eng := newEngine(db, knowledge)
	ex := executor.New(db)

	improvedSomething := false
	for _, q := range []*sqlparser.Query{tpcds.Fig8WideQuery(db), tpcds.Fig7Query(), tpcds.Fig4Query()} {
		res, err := eng.Reoptimize(q)
		if err != nil {
			t.Fatalf("Reoptimize(%s): %v", q.Name, err)
		}
		if res.OriginalPlan == nil {
			t.Fatalf("missing original plan for %s", q.Name)
		}
		if len(res.Matches) == 0 {
			continue
		}
		if res.ReoptimizedPlan == nil || res.Guidelines.Empty() {
			t.Fatalf("%s matched but was not re-optimized", q.Name)
		}
		if err := res.ReoptimizedPlan.Validate(); err != nil {
			t.Fatalf("re-optimized plan invalid: %v", err)
		}
		origRes, err := ex.Execute(res.OriginalPlan, q)
		if err != nil {
			t.Fatal(err)
		}
		reoptRes, err := ex.Execute(res.ReoptimizedPlan, q)
		if err != nil {
			t.Fatal(err)
		}
		// Result correctness is preserved by re-optimization.
		if len(origRes.Rows) != len(reoptRes.Rows) {
			t.Errorf("%s: re-optimized plan returns %d rows, original %d",
				q.Name, len(reoptRes.Rows), len(origRes.Rows))
		}
		if reoptRes.Stats.ElapsedMillis < origRes.Stats.ElapsedMillis*0.95 {
			improvedSomething = true
		}
		// Never a catastrophic regression.
		if reoptRes.Stats.ElapsedMillis > origRes.Stats.ElapsedMillis*1.5 {
			t.Errorf("%s: re-optimization regressed runtime %.1f -> %.1f ms",
				q.Name, origRes.Stats.ElapsedMillis, reoptRes.Stats.ElapsedMillis)
		}
	}
	if !improvedSomething {
		t.Errorf("re-optimization improved none of the problem queries")
	}
}

func TestReoptimizeQueryWithoutMatches(t *testing.T) {
	db, knowledge := fixture(t)
	eng := newEngine(db, knowledge)
	// A single-table query has no join fragments and can never match.
	q := sqlparser.MustParse(`SELECT i_item_desc FROM item WHERE i_category = 'Music'`)
	res, err := eng.Reoptimize(q)
	if err != nil {
		t.Fatalf("Reoptimize: %v", err)
	}
	if len(res.Matches) != 0 || res.ReoptimizedPlan != nil || res.Rewritten() {
		t.Errorf("unexpected match for a single-table query: %+v", res)
	}
}

func TestCrossWorkloadReuseViaCanonicalLabels(t *testing.T) {
	// The Figure 8 pattern learned on store_sales/date_dim should match the
	// structurally identical wide-range misestimate over catalog_sales and
	// web_sales (different tables, never learned from), because the knowledge
	// base stores canonical labels rather than table names.
	db, knowledge := fixture(t)
	eng := newEngine(db, knowledge)
	lo, hi := tpcds.WideDateRange(db)
	crossQueries := []*sqlparser.Query{
		sqlparser.MustParse(fmt.Sprintf(`SELECT i_item_desc, cs_quantity FROM catalog_sales, item, date_dim
			WHERE cs_item_sk = i_item_sk AND cs_sold_date_sk = d_date_sk
			AND i_category = 'Books' AND d_date_sk BETWEEN %d AND %d`, lo, hi)),
		sqlparser.MustParse(fmt.Sprintf(`SELECT i_item_desc, ws_quantity FROM web_sales, item, date_dim
			WHERE ws_item_sk = i_item_sk AND ws_sold_date_sk = d_date_sk
			AND i_category = 'Home' AND d_date_sk BETWEEN %d AND %d`, lo, hi)),
	}
	matchedAny := false
	for _, q := range crossQueries {
		res, err := eng.Reoptimize(q)
		if err != nil {
			t.Fatalf("Reoptimize: %v", err)
		}
		if len(res.Matches) > 0 {
			matchedAny = true
		}
	}
	if !matchedAny {
		t.Errorf("no cross-query reuse: patterns learned on one query never matched another")
	}
}

func TestMatchingThroughFusekiHTTPEndpoint(t *testing.T) {
	// The knowledge base can be consulted over HTTP exactly as with a local
	// store.
	db, knowledge := fixture(t)
	srv := httptest.NewServer(fuseki.NewShardedServer(knowledge.Stores, knowledge.LoadNTriples))
	defer srv.Close()
	remote := New(db.Catalog, fuseki.NewClient(srv.URL), DefaultOptions())
	local := newEngine(db, knowledge)

	opt := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	plan := opt.MustOptimize(tpcds.Fig8WideQuery(db))
	localMatches, err := local.MatchPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	remoteMatches, err := remote.MatchPlan(opt.MustOptimize(tpcds.Fig8WideQuery(db)))
	if err != nil {
		t.Fatal(err)
	}
	if len(localMatches) != len(remoteMatches) {
		t.Errorf("local found %d matches, remote %d", len(localMatches), len(remoteMatches))
	}
}
