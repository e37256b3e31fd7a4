// Learning benchmark: what the offline phase costs. Learning is plan
// execution — the optimizer's plan and a handful of random alternatives per
// sub-query variant — so the numbers here are sub-queries analyzed per second,
// how many executions the ranking stands for against how many the executor
// ran (and how many of those it stopped at their budget), and where the wall
// time went: planning, executing, ranking. TestEmitBenchLearningJSON writes
// BENCH_learning.json over the two bench/setup.go fixtures and Exp-1's default
// configuration, with `before` rows measured on the parent commit.
package galo_test

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"galo/internal/experiments"
	"galo/internal/kb"
	"galo/internal/learning"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/tpcds"
)

type learningRow struct {
	Fixture             string  `json:"fixture"`
	SubQueries          int     `json:"sub_queries"`
	TemplatesAdded      int     `json:"templates_added"`
	WallMillis          float64 `json:"wall_ms"`
	SubQueriesPerSec    float64 `json:"sub_queries_per_s"`
	ExecutionsAsked     int     `json:"executions_asked"`
	ExecutionsDistinct  int     `json:"executions_distinct"`
	ExecutionsAborted   int     `json:"executions_aborted"`
	Alternatives        int     `json:"alternatives"`
	PlanShare           float64 `json:"plan_share"`
	ExecuteShare        float64 `json:"execute_share"`
	RankShare           float64 `json:"rank_share"`
	SimulatedWorkMillis float64 `json:"simulated_work_ms"`
}

func learningRowOf(fixture string, reports ...*learning.Report) learningRow {
	row := learningRow{Fixture: fixture}
	var plan, execute, rank float64
	for _, r := range reports {
		row.SubQueries += r.SubQueriesAnalyzed
		row.TemplatesAdded += r.TemplatesAdded
		row.WallMillis += r.WallMillis
		row.ExecutionsAsked += r.Funnel.ExecutionsAsked
		row.ExecutionsDistinct += r.Funnel.ExecutionsDistinct
		row.ExecutionsAborted += r.Funnel.ExecutionsAborted
		row.Alternatives += r.Funnel.PlansGenerated - r.Funnel.Variants // the random alternatives
		row.SimulatedWorkMillis += r.SimulatedWorkMillis
		plan, execute, rank = plan+r.PlanMillis, execute+r.ExecuteMillis, rank+r.RankMillis
	}
	row.SubQueriesPerSec = float64(row.SubQueries) / (row.WallMillis / 1000)
	row.PlanShare, row.ExecuteShare, row.RankShare = plan/row.WallMillis, execute/row.WallMillis, rank/row.WallMillis
	return row
}

// benchLearningFixture is the database, training workload and learning options
// of bench/setup.go: execute_validate (scale 0.5, six wide Figure 8 variants)
// or the other three workloads (scale 0.08, Figures 8 and 7 plus four
// variants).
func benchLearningFixture(tb testing.TB, execute bool) (*storage.Database, []*sqlparser.Query, learning.Options) {
	tb.Helper()
	scale := 0.08
	if execute {
		scale = 0.5
	}
	db, err := tpcds.Generate(tpcds.GenOptions{Seed: 31, Scale: scale, Hazards: true})
	if err != nil {
		tb.Fatal(err)
	}
	opts := learning.DefaultOptions()
	opts.RandomPlans, opts.PredicateVariants, opts.Runs, opts.Workers = 8, 1, 2, 2
	opts.MaxSubQueriesPerQuery, opts.Workload, opts.Seed = 10, "tpcds", 31
	train := tpcds.Fig8WideVariants(db, 6)
	if !execute {
		train = append([]*sqlparser.Query{tpcds.Fig8Query(), tpcds.Fig7Query()}, tpcds.Fig8WideVariants(db, 4)...)
	}
	return db, train, opts
}

// measureBenchLearning learns the fixture's workload into a fresh knowledge
// base the given number of times and returns the run with the median wall time.
func measureBenchLearning(tb testing.TB, name string, execute bool, repeats int) learningRow {
	tb.Helper()
	db, train, opts := benchLearningFixture(tb, execute)
	rows := make([]learningRow, repeats)
	for i := range rows {
		report, err := learning.New(db, kb.New(), opts).LearnWorkload(train)
		if err != nil {
			tb.Fatal(err)
		}
		rows[i] = learningRowOf(name, report)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].WallMillis < rows[j].WallMillis })
	return rows[repeats/2]
}

func BenchmarkLearnExecuteValidateFixture(b *testing.B) {
	db, train, opts := benchLearningFixture(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := learning.New(db, kb.New(), opts).LearnWorkload(train); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEmitBenchLearningJSON writes BENCH_learning.json. It only runs when
// GALO_BENCH_JSON=1. Its gates are clock-free: on the execute_validate fixture
// the executor must run at most half the executions the ranking stands for,
// and must stop at least 60 % of the alternatives at their budget.
func TestEmitBenchLearningJSON(t *testing.T) {
	if os.Getenv("GALO_BENCH_JSON") == "" {
		t.Skip("set GALO_BENCH_JSON=1 to (re)write BENCH_learning.json")
	}
	rows := []learningRow{
		measureBenchLearning(t, "bench scale 0.08 (routinized, cold_large_kb, publish_while_serving)", false, 7),
		measureBenchLearning(t, "bench scale 0.5 (execute_validate)", true, 7),
	}
	exp1, err := experiments.RunExp1(experiments.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var reports []*learning.Report
	for _, r := range exp1 {
		reports = append(reports, r.Report)
	}
	rows = append(rows, learningRowOf("Exp-1 default config (scale 1.2, 28 TPC-DS queries, join thresholds 1-4 summed)", reports...))
	for _, r := range rows {
		t.Logf("%s: %d sub-queries in %.0f ms (%.1f/s); executions asked %d, distinct %d, aborted %d of %d alternatives; plan %.0f%% / execute %.0f%% / rank %.0f%%",
			r.Fixture, r.SubQueries, r.WallMillis, r.SubQueriesPerSec, r.ExecutionsAsked, r.ExecutionsDistinct,
			r.ExecutionsAborted, r.Alternatives, r.PlanShare*100, r.ExecuteShare*100, r.RankShare*100)
	}
	if ev := rows[1]; 2*ev.ExecutionsDistinct > ev.ExecutionsAsked || 10*ev.ExecutionsAborted < 6*ev.Alternatives {
		t.Errorf("execute_validate fixture: executions distinct %d of %d asked (want <= half), aborted %d of %d alternatives (want >= 60%%)",
			ev.ExecutionsDistinct, ev.ExecutionsAsked, ev.ExecutionsAborted, ev.Alternatives)
	}

	doc := map[string]any{
		"benchmark": "offline learning: sub-queries per second, executions asked / distinct / aborted, share of wall per phase",
		"note":      "One row per fixture: the two learning set-ups of bench/setup.go (median by wall time of seven runs into a fresh knowledge base; the database is generated once) and Exp-1 at the harness default (RunExp1, one run, its four join thresholds summed). executions_asked is what the ranking stands for — Runs per plan, each plan ranked on its one deterministic run and billed Runs times; the before learner executed that many plus a confirmation round per structural winner (402 / 138 / 1776 there, 378 / 126 / 1764 with the round deleted); executions_distinct is what the executor ran (every plan once), executions_aborted how many of those a budget stopped, alternatives how many random plans competed. *_share split wall_ms over the three phases (decomposition and claiming count as planning). simulated_work_ms bills an aborted run at its budget times Runs. before = the same fixtures on commit 0e17fdd (per-query goroutine fan-out, every plan executed Runs times, confirmation rounds re-executed, nothing aborted), the two test binaries alternated on the same 2-CPU machine; that learner had no phases or funnel, so its rows carry wall, rate and simulated work only (not recorded for Exp-1), and executions_distinct = executions_asked; each before row is the middle of three alternated runs (97 / 92 / 99 ms, 414 / 406 / 394 ms, 13.3 / 13.9 / 13.8 s; after, on the learner that still ran the confirmation round: 23 / 20 / 17 ms, 38 / 35 / 40 ms, 1.56 / 1.71 / 1.80 s). No wall-time change is claimed for deleting the round: the rank phase is 1-3 % of wall, and nine alternated emitter runs on a shared 2-CPU machine read 19-38 ms for the scale 0.08 fixture with the round and 26-41 ms without it.",
		"env":       benchEnv(),
		"learning":  rows,
		"before":    learningBefore,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_learning.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_learning.json:\n%s", data)
}

// learningBefore is the same measurement on the parent commit (see the note
// the file is emitted with).
var learningBefore = []learningRow{
	{Fixture: "bench scale 0.08 (routinized, cold_large_kb, publish_while_serving)", SubQueries: 12, TemplatesAdded: 5,
		WallMillis: 97.267, SubQueriesPerSec: 123.372, ExecutionsAsked: 402, ExecutionsDistinct: 402, Alternatives: 168, SimulatedWorkMillis: 1254740.833},
	{Fixture: "bench scale 0.5 (execute_validate)", SubQueries: 3, TemplatesAdded: 2,
		WallMillis: 406.019, SubQueriesPerSec: 7.389, ExecutionsAsked: 138, ExecutionsDistinct: 138, Alternatives: 56, SimulatedWorkMillis: 3689480.245},
	{Fixture: "Exp-1 default config (scale 1.2, 28 TPC-DS queries, join thresholds 1-4 summed)", SubQueries: 65, TemplatesAdded: 3,
		WallMillis: 13756.784, SubQueriesPerSec: 4.725, ExecutionsAsked: 1776, ExecutionsDistinct: 1776, Alternatives: 756},
}
