// Memory and wall-time profile of the streaming executor versus the
// materializing Volcano baseline it replaced: TestEmitBenchExecutorJSON runs
// deep pipelines (multi-join plus sort / group-by) both ways and records
// wall time and peak-resident intermediate rows in BENCH_executor.json, so
// future PRs can track the executor's memory behavior. The emit FAILS if the
// streaming path's peak residency regresses past half the materializing
// baseline — that 2x bound is the refactor's reason to exist.
package galo_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"galo/internal/executor"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/tpcds"
)

// benchPipeline is one deep-pipeline measurement: the same plan executed on
// the streaming and on the materializing path.
type benchPipeline struct {
	name string
	sql  string
	spec *optimizer.Spec
}

// execModeRow measures one executor mode over a pipeline: best wall time of
// several runs plus the (deterministic) simulated cost and peak residency.
type execModeRow struct {
	WallMS float64 `json:"wall_ms"`
	// Before is the wall_ms the same row carried in the BENCH_executor.json
	// this emission replaced: the trajectory's previous point (see before_env
	// for the machine it was measured on).
	Before    float64 `json:"before,omitempty"`
	SimMillis float64 `json:"sim_millis"`
	PeakRows  int64   `json:"peak_rows"`
	PeakBytes int64   `json:"peak_bytes"`
	Rows      int     `json:"rows"`
}

func runExecMode(t *testing.T, ex *executor.Executor, plan *qgm.Plan, q *sqlparser.Query, before float64) execModeRow {
	t.Helper()
	row := execModeRow{Before: before}
	const runs = 5
	for i := 0; i < runs; i++ {
		start := time.Now()
		res, err := ex.Execute(plan, q)
		wall := float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if i == 0 || wall < row.WallMS {
			row.WallMS = wall
		}
		row.SimMillis = res.Stats.ElapsedMillis
		row.PeakRows = res.Stats.PeakIntermediateRows
		row.PeakBytes = res.Stats.PeakIntermediateBytes
		row.Rows = res.Stats.Rows
	}
	row.WallMS = round3(row.WallMS)
	row.SimMillis = round3(row.SimMillis)
	return row
}

// runParallelMode measures the streaming path at a given exchange worker
// count over the same pipeline.
func runParallelMode(t *testing.T, db *storage.Database, plan *qgm.Plan, q *sqlparser.Query, workers int, before float64) execModeRow {
	t.Helper()
	ex := executor.New(db)
	ex.Workers = workers
	return runExecMode(t, ex, plan, q, before)
}

// committedNumber digs one number out of the BENCH_executor.json an emission
// is about to replace (0 when the path is absent).
func committedNumber(committed map[string]any, path ...string) float64 {
	var cur any = committed
	for _, key := range path {
		m, _ := cur.(map[string]any)
		cur = m[key]
	}
	f, _ := cur.(float64)
	return f
}

// TestEmitBenchExecutorJSON writes BENCH_executor.json. Only runs when
// GALO_BENCH_JSON=1 (CI's bench-emit step sets it).
func TestEmitBenchExecutorJSON(t *testing.T) {
	if os.Getenv("GALO_BENCH_JSON") == "" {
		t.Skip("set GALO_BENCH_JSON=1 to (re)write BENCH_executor.json")
	}
	// Full laptop scale — the data volume the streaming refactor unlocked.
	db, err := tpcds.Generate(tpcds.GenOptions{Seed: 20190122, Scale: 1.0, Hazards: true})
	if err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	var committed map[string]any
	if data, err := os.ReadFile("BENCH_executor.json"); err == nil {
		if err := json.Unmarshal(data, &committed); err != nil {
			t.Fatalf("committed BENCH_executor.json: %v", err)
		}
	}

	pipelines := []benchPipeline{
		{
			name: "three_way_join_sort",
			sql: `SELECT i_item_desc, ws_quantity FROM web_sales, item, date_dim
				WHERE ws_item_sk = i_item_sk AND ws_sold_date_sk = d_date_sk AND ws_quantity > 10
				ORDER BY i_item_desc`,
			spec: optimizer.Join(qgm.OpHSJOIN,
				optimizer.Join(qgm.OpHSJOIN,
					optimizer.Leaf("WEB_SALES"), optimizer.Leaf("DATE_DIM")),
				optimizer.Leaf("ITEM")),
		},
		{
			name: "three_way_join_groupby",
			sql: `SELECT i_category FROM store_sales, item, date_dim
				WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND ss_quantity > 10
				GROUP BY i_category`,
			spec: optimizer.Join(qgm.OpHSJOIN,
				optimizer.Join(qgm.OpHSJOIN,
					optimizer.Leaf("STORE_SALES"), optimizer.Leaf("DATE_DIM")),
				optimizer.Leaf("ITEM")),
		},
	}

	// The 2x-at-4-workers gate needs 4 real CPUs: exchange workers are
	// goroutines, and on fewer cores the parallel rows measure scheduling.
	gateArmed := runtime.NumCPU() >= 4
	results := map[string]any{}
	for _, p := range pipelines {
		q := sqlparser.MustParse(p.sql)
		buildPlan := func() *qgm.Plan {
			plan, err := opt.BuildPlan(q, p.spec)
			if err != nil {
				t.Fatalf("BuildPlan %s: %v", p.name, err)
			}
			return plan
		}
		stream := runExecMode(t, executor.New(db), buildPlan(), q, committedNumber(committed, "pipelines", p.name, "streaming", "wall_ms"))
		matEx := executor.New(db)
		matEx.Materialize = true
		mat := runExecMode(t, matEx, buildPlan(), q, committedNumber(committed, "pipelines", p.name, "materializing", "wall_ms"))

		if stream.Rows == 0 {
			t.Fatalf("%s: pipeline produced no rows — not a meaningful benchmark", p.name)
		}
		if stream.Rows != mat.Rows {
			t.Fatalf("%s: row counts diverge: streaming=%d materializing=%d", p.name, stream.Rows, mat.Rows)
		}
		if stream.SimMillis <= 0 || mat.SimMillis <= 0 {
			t.Fatalf("%s: simulated cost missing", p.name)
		}
		// The refactor's gate: streaming peak residency must stay at or below
		// half the materializing baseline, or the emit fails the build.
		if stream.PeakRows*2 > mat.PeakRows {
			t.Errorf("%s: streaming peak %d rows exceeds 50%% of materializing peak %d rows",
				p.name, stream.PeakRows, mat.PeakRows)
		}
		reduction := 0.0
		if stream.PeakRows > 0 {
			reduction = float64(mat.PeakRows) / float64(stream.PeakRows)
		}
		// Parallel section: the same plan on the exchange at 1/2/4 workers.
		// Gates: simulated cost must stay bit-identical to serial streaming at
		// every worker count (the cost-parity invariant), and 4 workers must
		// halve the serial wall time on capable hardware.
		parallel := map[string]any{}
		var speedup4 float64
		for _, w := range []int{1, 2, 4} {
			mode := fmt.Sprintf("workers_%d", w)
			pr := runParallelMode(t, db, buildPlan(), q, w, committedNumber(committed, "pipelines", p.name, "parallel", mode, "wall_ms"))
			if pr.Rows != stream.Rows {
				t.Errorf("%s: workers=%d row count diverges: %d vs serial %d", p.name, w, pr.Rows, stream.Rows)
			}
			if pr.SimMillis != stream.SimMillis {
				t.Errorf("%s: workers=%d simulated cost %v diverges from serial %v — cost parity broken",
					p.name, w, pr.SimMillis, stream.SimMillis)
			}
			if w == 4 && pr.WallMS > 0 {
				speedup4 = stream.WallMS / pr.WallMS
			}
			parallel[mode] = pr
		}
		if gateArmed && speedup4 < 2 {
			t.Errorf("%s: 4-worker speedup %.2fx over serial streaming is below the 2x gate", p.name, speedup4)
		}
		parallel["speedup_at_4_workers"] = fmt.Sprintf("%.1fx", speedup4)

		results[p.name] = map[string]any{
			"streaming":          stream,
			"materializing":      mat,
			"peak_row_reduction": fmt.Sprintf("%.1fx", reduction),
			"parallel":           parallel,
		}
	}

	// Where the replaced file was emitted: its env block, or just the CPU
	// count from a file older than the block.
	beforeEnv, _ := committed["env"].(map[string]any)
	if beforeEnv == nil {
		beforeEnv = map[string]any{"cpus": committedNumber(committed, "cpus")}
	}
	doc := map[string]any{
		"benchmark": "streaming executor vs materializing Volcano baseline on deep pipelines (3-way join + sort / group-by), TPC-DS-like data at scale 1.0 with hazards",
		"cpus":      runtime.NumCPU(),
		// Explicit, so a trajectory whose gate never armed says so itself.
		"speedup_gate_armed": gateArmed,
		"env":                benchEnv(),
		"before_env":         beforeEnv,
		"note":               "wall_ms is the best of 5 runs; sim_millis is the deterministic simulated cost (identical across modes by the cost-parity invariant); peak_rows/peak_bytes is the high-water mark of rows resident in operator state (sort buffers, hash build sides, group sets — plus every intermediate rowset on the materializing path). The emit test fails if streaming peak_rows exceeds 50% of the materializing baseline. The parallel section runs the same plans on the exchange operator at 1/2/4 workers: sim_millis must stay bit-identical to serial streaming at every worker count, and the emit fails if 4 workers don't at least halve the serial wall time. That speedup gate only arms when the emitting machine has >= 4 CPUs (speedup_gate_armed; false means the committed speedups were never gated): exchange workers are real goroutines, so on fewer cores the parallel rows measure scheduling overhead, not speedup. before is the wall_ms of the same row in the BENCH_executor.json this emission replaced, emitted where before_env says. The committed file: before = the rows of the file this emission replaced (emitted at commit 29acd78+, PR 19, where the exchange still ran a push engine of its own: scan, FILTER and hash probe written a second time in exchange.go), after = exchange workers pull replicas of the serial iterators and their counts are folded into one lead spine that charges; both on a 2-CPU machine at -cpu 1. Every sim_millis, peak_rows, peak_bytes and rows is identical to the replaced file's. speedup_gate_armed is false: the speedups in this file were never gated, and the >= 4-CPU emission is still owed (ROADMAP item 2). No speed is claimed for this change, and the before column cannot show one either way: the replaced file is weeks old, and the materializing rows, whose code did not change, moved against it as far as any row did — that is the machine. The alternating parent / change pairs are in CHANGES.md (PR 24).",
		"pipelines":          results,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_executor.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_executor.json:\n%s", data)
}
