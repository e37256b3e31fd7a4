// Trajectory of the optimizer in BENCH_optimizer.json, so future PRs can
// track both halves of it: TestEmitBenchOptimizerJSON measures
// estimate-vs-actual cardinality error (q-error) over a workload sample with
// and without the ANALYZE histograms (how statistics changes move plan
// quality), and the cost of planning itself per join count (ns, bytes,
// allocations and plans considered per Optimize).
package galo_test

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"testing"

	"galo/internal/executor"
	"galo/internal/experiments"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/workload/tpcds"
)

// qErrors optimizes and executes each query, returning the per-scan q-error
// max(est/act, act/est) — the standard cardinality-estimation quality metric.
func qErrors(t *testing.T, opt *optimizer.Optimizer, ex *executor.Executor, queries []*sqlparser.Query) []float64 {
	t.Helper()
	var errs []float64
	for _, q := range queries {
		plan, _, err := opt.Optimize(q)
		if err != nil {
			t.Fatalf("optimize %s: %v", q.Name, err)
		}
		if _, err := ex.Execute(plan, q); err != nil {
			t.Fatalf("execute %s: %v", q.Name, err)
		}
		plan.Root.Walk(func(n *qgm.Node) {
			if !n.Op.IsScan() {
				return
			}
			est := math.Max(n.EstCardinality, 1)
			act := math.Max(n.ActCardinality, 1)
			errs = append(errs, math.Max(est/act, act/est))
		})
	}
	sort.Float64s(errs)
	return errs
}

func quantile(sorted []float64, q float64) float64 { return experiments.QErrorQuantile(sorted, q) }

func round3(f float64) float64 { return math.Round(f*1000) / 1000 }

// planningRow is the cost of one Optimize call for one query.
type planningRow struct {
	NsPerOp         int64 `json:"ns_per_op"`
	BytesPerOp      int64 `json:"bytes_per_op"`
	AllocsPerOp     int64 `json:"allocs_per_op"`
	PlansConsidered int   `json:"plans_considered"`
}

// planningCases names one tpcds.Queries() entry per join count: the shapes of
// the bench/ routinized pool (web_sales x item, Figure 3, star, snowflake,
// 5-join snowflake) and the widest query still planned by DP.
var planningCases = []struct {
	name  string
	index int
}{{"j1", 4}, {"j2", 8}, {"j3", 34}, {"j4", 40}, {"j5", 55}, {"j8", 90}}

// planningBefore is the same measurement on the commit before the
// enumerator was rewritten around the planning context (aefdf06, PR 11), on
// the machine the committed BENCH_optimizer.json was emitted on.
var planningBefore = map[string]planningRow{
	"j1": {107687, 40878, 455, 24},
	"j2": {888124, 492500, 4016, 246},
	"j3": {6582169, 4089870, 22560, 1272},
	"j4": {34491835, 20187580, 114518, 5958},
	"j5": {145575278, 111361744, 416435, 19236},
	"j8": {11649433010, 6938358112, 28516878, 1129188},
}

// planningBeforePR18 is the same measurement on the parent of PR 18 (commit
// e85df13, a clean checkout, the same machine and minute as the committed
// "after"): the planning context with a qgm.Node and a planCand allocated per
// admitted candidate, before candidates became slab values.
var planningBeforePR18 = map[string]planningRow{
	"j1": {24229, 12769, 145, 24},
	"j2": {70014, 35422, 325, 246},
	"j3": {188956, 89566, 690, 1272},
	"j4": {479493, 226821, 1660, 5958},
	"j5": {1375616, 505749, 3803, 19236},
	"j8": {56818166, 8634152, 76702, 1129188},
}

// planningBeforePR23 is the same measurement on the parent of PR 23 (commit
// f8e29e6, a clean checkout, the same machine and minute as the committed
// "after"): a fresh slab, DP table and path list per Optimize, chunks sized by
// the query, the front half run by every call.
var planningBeforePR23 = map[string]planningRow{
	"j1": {12828, 8625, 78, 24},
	"j2": {26305, 18426, 116, 246},
	"j3": {51736, 34981, 139, 1272},
	"j4": {142519, 68515, 182, 5958},
	"j5": {477995, 130160, 211, 19236},
	"j8": {17571380, 1391436, 346, 1129188},
}

func measurePlanning(t *testing.T, opt *optimizer.Optimizer) map[string]planningRow {
	t.Helper()
	all := tpcds.Queries()
	out := map[string]planningRow{}
	for _, c := range planningCases {
		q := all[c.index]
		_, report, err := opt.Optimize(q)
		if err != nil {
			t.Fatalf("optimize %s: %v", q.Name, err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := opt.Optimize(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		out[c.name] = planningRow{res.NsPerOp(), res.AllocedBytesPerOp(), res.AllocsPerOp(), report.PlansConsidered}
	}
	return out
}

// benchEnv records where a trajectory file was emitted.
func benchEnv() map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if exec.Command("git", "diff", "--quiet", "HEAD").Run() != nil {
			commit += "+uncommitted"
		}
	}
	return map[string]any{"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "commit": commit}
}

// TestEmitBenchOptimizerJSON writes BENCH_optimizer.json. Only runs when
// GALO_BENCH_JSON=1 (CI's bench-emit step sets it).
func TestEmitBenchOptimizerJSON(t *testing.T) {
	if os.Getenv("GALO_BENCH_JSON") == "" {
		t.Skip("set GALO_BENCH_JSON=1 to (re)write BENCH_optimizer.json")
	}
	// A fresh (hazard-free) database isolates the statistics layer itself:
	// any estimation error left is the estimator's, not staleness.
	db, err := tpcds.Generate(tpcds.GenOptions{Seed: 20190122, Scale: 0.1, Hazards: false})
	if err != nil {
		t.Fatal(err)
	}
	queries := append(tpcds.Queries()[:24], tpcds.Fig8WideVariants(db, 4)...)
	ex := executor.New(db)

	withHist := qErrors(t, optimizer.New(db.Catalog, optimizer.DefaultOptions()), ex, queries)
	planning := measurePlanning(t, optimizer.New(db.Catalog, optimizer.DefaultOptions()))
	// Every planner PR so far changed the data layout, not the search: a row
	// whose plans_considered moved is not a faster planner but a different one.
	for name, row := range planning {
		for _, before := range []map[string]planningRow{planningBefore, planningBeforePR18, planningBeforePR23} {
			if was := before[name].PlansConsidered; row.PlansConsidered != was {
				t.Fatalf("%s: %d plans considered, %d on an earlier planner", name, row.PlansConsidered, was)
			}
		}
	}

	// The same database with the histograms stripped: the pre-ANALYZE
	// estimator (min/max interpolation + NDV + System-R constants).
	bareDB, err := tpcds.Generate(tpcds.GenOptions{Seed: 20190122, Scale: 0.1, Hazards: false})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range bareDB.Catalog.TablesWithStats() {
		for _, cs := range bareDB.Catalog.Stats(tbl).Columns {
			cs.Histogram = nil
		}
	}
	withoutHist := qErrors(t, optimizer.New(bareDB.Catalog, optimizer.DefaultOptions()), executor.New(bareDB), queries)

	row := func(errs []float64) map[string]any {
		return map[string]any{
			"scans":       len(errs),
			"median_qerr": round3(quantile(errs, 0.5)),
			"p90_qerr":    round3(quantile(errs, 0.9)),
			"p99_qerr":    round3(quantile(errs, 0.99)),
			"max_qerr":    round3(errs[len(errs)-1]),
		}
	}
	doc := map[string]any{
		"benchmark":          "scan cardinality estimate vs actual (q-error) over 28 TPC-DS-like queries, fresh statistics",
		"note":               "q-error = max(est/act, act/est) per base-table scan; 1.0 is a perfect estimate. with_histograms uses the ANALYZE equi-depth histograms, without_histograms the pre-ANALYZE min/max interpolation and System-R constants.",
		"with_histograms":    row(withHist),
		"without_histograms": row(withoutHist),
		"planning": map[string]any{
			"benchmark":   "one Optimizer.Optimize call per join count (tpcds.Queries() entries 5, 9, 35, 41, 56 and 91; j8 is the widest query under JoinEnumDPLimit)",
			"note":        "before = the map-set enumerator of PR 11 (commit aefdf06); before_pr18 = the planning context allocating a qgm.Node and a planCand per admitted candidate (commit e85df13, clean checkout, same machine); before_pr23 = candidates as slab values in a fresh slab per call, nodes built once for the winner (commit f8e29e6, clean checkout, same machine); after = slab, DP table and access paths from a recycled arena, a finished subset's displaced candidates cut from the slab, the front half (Prepare) copying each predicate once. plans_considered must not move (the emitter fails if it does): each step changed the data layout, not the search",
			"env":         benchEnv(),
			"before":      planningBefore,
			"before_pr18": planningBeforePR18,
			"before_pr23": planningBeforePR23,
			"after":       planning,
		},
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_optimizer.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_optimizer.json:\n%s", data)
}
