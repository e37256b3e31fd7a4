// Memory and wall-time profile of the streaming executor on deep pipelines
// (multi-join plus sort / group-by): TestEmitBenchExecutorJSON records wall
// time and peak-resident intermediate rows in BENCH_executor.json, so future
// changes can track the executor's memory behavior. The emit FAILS if the
// streaming peak residency regresses past half of what the materializing
// Volcano engine it replaced held on the same plan —
// that 2x bound is the streaming engine's reason to exist. The materializing
// engine is gone; its peaks are recorded below, as it last measured them.
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

// benchPipeline is one deep-pipeline measurement.
type benchPipeline struct {
	name string
	sql  string
	spec *optimizer.Spec
}

// execModeRow measures the executor over a pipeline: best wall time of
// several runs plus the (deterministic) simulated cost and peak residency.
type execModeRow struct {
	WallMS float64 `json:"wall_ms,omitempty"`
	// Before is the wall_ms the same row carried in the BENCH_executor.json
	// this emission replaced: the trajectory's previous point (see before_env
	// for the machine it was measured on).
	Before    float64 `json:"before,omitempty"`
	SimMillis float64 `json:"sim_millis"`
	PeakRows  int64   `json:"peak_rows"`
	PeakBytes int64   `json:"peak_bytes"`
	Rows      int     `json:"rows"`
}

// materializingAtParent is what the materializing engine returned and held on
// each pipeline in its last emission, at the parent of the commit that
// deleted it: counts of the simulated database, deterministic, so they stand
// in for a run. Its wall times measured a machine, not the plans, and are not
// carried over.
var materializingAtParent = map[string]execModeRow{
	"three_way_join_sort":    {SimMillis: 402.664, PeakRows: 19840, PeakBytes: 2689840, Rows: 8720},
	"three_way_join_groupby": {SimMillis: 402.548, PeakRows: 54282, PeakBytes: 9525960, Rows: 10},
}

// perRunRow is what one run of a plan allocates: counts, not times — the
// allocations and the bytes of one warmed run.
type perRunRow struct {
	Allocs float64 `json:"allocs"`
	Bytes  uint64  `json:"bytes"`
}

// perRunOf measures one run: allocations averaged over 20 runs after a warm-up
// (testing.AllocsPerRun), bytes the lowest TotalAlloc growth per run over five
// windows of four, as the executor package's bytes-per-run ceilings read them.
func perRunOf(t *testing.T, run func() error) perRunRow {
	t.Helper()
	do := func() {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	row := perRunRow{Allocs: testing.AllocsPerRun(20, do), Bytes: ^uint64(0)}
	for w := 0; w < 5; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 4; i++ {
			do()
		}
		runtime.ReadMemStats(&after)
		row.Bytes = min(row.Bytes, (after.TotalAlloc-before.TotalAlloc)/4)
	}
	return row
}

// perRunRows measures the two executions of a validated /reopt request on the
// wide-range Figure 8 query — the plan the stale statistics pick and the hash
// joins GALO rewrites it to — as Executor.Run (the query prepared anew) and as
// Prepared.Run (prepared once, as core.validate and learning run it). Each
// row's before is the prepared_run row of the committed file.
func perRunRows(t *testing.T, db *storage.Database, opt *optimizer.Optimizer, committed map[string]any) map[string]any {
	t.Helper()
	fig8 := tpcds.Fig8WideQuery(db)
	hash := func(outer, inner *optimizer.Spec) *optimizer.Spec { return optimizer.Join(qgm.OpHSJOIN, outer, inner) }
	rewritten, err := opt.BuildPlan(fig8, hash(
		hash(optimizer.LeafAccess("ITEM", qgm.OpFETCH, "I_CATEGORY_IDX"), optimizer.LeafAccess("STORE_SALES", qgm.OpTBSCAN, "")),
		optimizer.LeafAccess("DATE_DIM", qgm.OpIXSCAN, "D_DATE_SK")))
	if err != nil {
		t.Fatal(err)
	}
	ex := executor.New(db)
	prep, err := ex.Prepare(fig8)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	for name, plan := range map[string]*qgm.Plan{"fig8wide_orig": opt.MustOptimize(fig8), "fig8wide_rewritten": rewritten} {
		out[name] = map[string]any{
			"before": perRunRow{
				Allocs: committedNumber(committed, "per_run", name, "prepared_run", "allocs"),
				Bytes:  uint64(committedNumber(committed, "per_run", name, "prepared_run", "bytes")),
			},
			"executor_run": perRunOf(t, func() error { _, err := ex.Run(plan, fig8); return err }),
			"prepared_run": perRunOf(t, func() error { _, err := prep.Run(plan); return err }),
		}
	}
	return out
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

	results := map[string]any{}
	for _, p := range pipelines {
		q := sqlparser.MustParse(p.sql)
		plan, err := opt.BuildPlan(q, p.spec)
		if err != nil {
			t.Fatalf("BuildPlan %s: %v", p.name, err)
		}
		stream := runExecMode(t, executor.New(db), plan, q, committedNumber(committed, "pipelines", p.name, "streaming", "wall_ms"))
		mat := materializingAtParent[p.name]

		if stream.Rows == 0 {
			t.Fatalf("%s: pipeline produced no rows — not a meaningful benchmark", p.name)
		}
		if stream.Rows != mat.Rows || stream.SimMillis != mat.SimMillis {
			t.Fatalf("%s: %d rows at %v simulated ms, the materializing engine returned %d at %v",
				p.name, stream.Rows, stream.SimMillis, mat.Rows, mat.SimMillis)
		}
		// The streaming engine's gate: its peak residency must stay at or
		// below half the materializing engine's, or the emit fails the build.
		if stream.PeakRows*2 > mat.PeakRows {
			t.Errorf("%s: streaming peak %d rows exceeds 50%% of materializing peak %d rows",
				p.name, stream.PeakRows, mat.PeakRows)
		}
		reduction := 0.0
		if stream.PeakRows > 0 {
			reduction = float64(mat.PeakRows) / float64(stream.PeakRows)
		}
		results[p.name] = map[string]any{
			"streaming":               stream,
			"materializing_at_parent": mat,
			"peak_row_reduction":      fmt.Sprintf("%.1fx", reduction),
		}
	}

	// Where the replaced file was emitted: its env block, or just the CPU
	// count from a file older than the block.
	beforeEnv, _ := committed["env"].(map[string]any)
	if beforeEnv == nil {
		beforeEnv = map[string]any{"cpus": committedNumber(committed, "cpus")}
	}
	doc := map[string]any{
		"benchmark":  "streaming executor on deep pipelines (3-way join + sort / group-by) against the peak residency of the materializing Volcano engine it replaced; TPC-DS-like data at scale 1.0 with hazards",
		"cpus":       runtime.NumCPU(),
		"env":        benchEnv(),
		"before_env": beforeEnv,
		"note":       "wall_ms is the best of 5 runs; sim_millis is the deterministic simulated cost; peak_rows/peak_bytes is the high-water mark of rows resident in operator state (sort buffers, hash build sides, group sets). materializing_at_parent is not a measurement of this emission: it is what the materializing engine returned and held on the same plans in its last emission, at the parent of the commit that deleted it — counts of the simulated database, deterministic, kept as Go literals beside the emitter (its wall times measured a machine and are not carried over). The emit test fails if the streaming rows or sim_millis differ from those, or if streaming peak_rows exceeds 50% of materializing_at_parent.peak_rows. before is the wall_ms of the same row in the BENCH_executor.json this emission replaced, emitted where before_env says. per_run is what one run of the wide-range Figure 8 query's two validated plans allocates (fig8wide_orig, the plan the stale statistics pick; fig8wide_rewritten, GALO's hash joins), as counts: allocs per run and the bytes of one warmed run, on the same scale-1.0 data. executor_run is Executor.Run, which prepares the query anew; prepared_run is Prepared.Run over a query prepared once, as plan validation and learning run it, and counting its root join where it can; before is the prepared_run row of the BENCH_executor.json this emission replaced. The committed file was emitted on a 2-CPU machine; every sim_millis, peak_rows, peak_bytes and rows of the streaming rows is identical to the replaced file's, and its wall_ms beside before measures the machine as much as the code.",
		"pipelines":  results,
		"per_run":    perRunRows(t, db, opt, committed),
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
