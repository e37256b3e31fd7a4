package executor

import (
	"fmt"
	"runtime"
	"testing"

	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/tpcds"
)

// execCase is one plan of the executor's benchmark set.
type execCase struct {
	name string
	q    *sqlparser.Query
	plan *qgm.Plan
}

// execCases builds the benchmark set over the package's shared test database
// (TPC-DS-like, scale 0.1, hazards on): the wide-range Figure 8 query under
// the plan the stale statistics pick (NLJOIN over an early-out MSJOIN over
// index accesses) and under the plan GALO rewrites it to (hash joins over a
// table scan) — the two executions of one validated /reopt request — plus a
// two-table hash join and a sort-terminated three-way join.
func execCases(tb testing.TB) []execCase {
	tb.Helper()
	db, opt, _ := setup(tb)
	hash := func(outer, inner *optimizer.Spec) *optimizer.Spec { return optimizer.Join(qgm.OpHSJOIN, outer, inner) }
	fig8 := tpcds.Fig8WideQuery(db)
	cases := []struct {
		name string
		q    *sqlparser.Query
		spec *optimizer.Spec // nil: the optimizer's own choice
	}{
		{"fig8wide_orig", fig8, nil},
		{"fig8wide_rewritten", fig8, hash(
			hash(optimizer.LeafAccess("ITEM", qgm.OpFETCH, "I_CATEGORY_IDX"), optimizer.LeafAccess("STORE_SALES", qgm.OpTBSCAN, "")),
			optimizer.LeafAccess("DATE_DIM", qgm.OpIXSCAN, "D_DATE_SK"))},
		{"web_item", sqlparser.MustParse(`SELECT i_item_desc, ws_quantity FROM web_sales, item
			WHERE ws_item_sk = i_item_sk`), hash(optimizer.Leaf("WEB_SALES"), optimizer.Leaf("ITEM"))},
		{"three_way_sort", sqlparser.MustParse(`SELECT i_item_desc, ss_quantity, d_year FROM store_sales, item, date_dim
			WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk ORDER BY i_item_desc`),
			hash(hash(optimizer.Leaf("STORE_SALES"), optimizer.Leaf("ITEM")), optimizer.Leaf("DATE_DIM"))},
	}
	out := make([]execCase, len(cases))
	for i, c := range cases {
		plan := opt.MustOptimize(c.q)
		if c.spec != nil {
			var err error
			if plan, err = opt.BuildPlan(c.q, c.spec); err != nil {
				tb.Fatalf("%s: BuildPlan: %v", c.name, err)
			}
		}
		out[i] = execCase{c.name, c.q, plan}
	}
	return out
}

// BenchmarkExecute measures one serial Execute (rows collected) per plan of
// the benchmark set. Run with -benchmem; allocs/op is what
// TestExecuteAllocCeiling pins.
func BenchmarkExecute(b *testing.B) {
	_, _, ex := setup(b)
	for _, c := range execCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ex.Execute(c.plan, c.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// drainBuildCases are the plans of BenchmarkDrainBuild, at data scale 0.5 (the
// scale the end-to-end benchmark's execute_validate workload serves): every
// one of the 14 400 STORE_SALES rows in a join's build side, probed by about a
// hundred rows or fewer — so the time is the build side's. The build side is
// fed by a table scan, by an index-order scan under an early-out MSJOIN (the
// Figure 8 original), and by a join. The first two are keyed on
// SS_SOLD_DATE_IDX's column and have no predicate of their own, so their
// probes are answered from that index and their inner is counted from it, not
// drained — scan and index_order time a count, the early-out bound included,
// and nothing is buffered (held-rows still reads 14 400: the peaks count the
// plan's build side). unindexed_key joins a table scan on ss_cdemo_sk, which
// no index leads with, and join feeds the build from a join — those two still
// drain into a hash table, and are what a faster build (ROADMAP item 8's
// ≥ 1.3×) is measured on.
func drainBuildCases(tb testing.TB) (*storage.Database, []execCase) {
	tb.Helper()
	db, err := tpcds.Generate(tpcds.GenOptions{Seed: 5, Scale: 0.5, Hazards: true})
	if err != nil {
		tb.Fatal(err)
	}
	opt := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	dates := sqlparser.MustParse(`SELECT d_year, ss_quantity FROM date_dim, store_sales
		WHERE ss_sold_date_sk = d_date_sk AND d_date_sk BETWEEN 1 AND 100`)
	dateProbe := optimizer.LeafAccess("DATE_DIM", qgm.OpIXSCAN, "D_DATE_SK")
	demos := sqlparser.MustParse(`SELECT cd_gender, ss_quantity FROM customer_demographics, store_sales
		WHERE ss_cdemo_sk = cd_demo_sk AND cd_demo_sk BETWEEN 1 AND 100`)
	items := sqlparser.MustParse(`SELECT i_item_desc, ss_quantity, d_year FROM item, store_sales, date_dim
		WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND i_category = 'Jewelry'`)
	cases := []struct {
		name string
		q    *sqlparser.Query
		spec *optimizer.Spec
	}{
		{"scan", dates, optimizer.Join(qgm.OpHSJOIN, dateProbe, optimizer.LeafAccess("STORE_SALES", qgm.OpTBSCAN, ""))},
		{"index_order", dates, optimizer.Join(qgm.OpMSJOIN, dateProbe, optimizer.LeafAccess("STORE_SALES", qgm.OpFETCH, "SS_SOLD_DATE_IDX"))},
		{"unindexed_key", demos, optimizer.Join(qgm.OpHSJOIN, optimizer.LeafAccess("CUSTOMER_DEMOGRAPHICS", qgm.OpIXSCAN, "CD_DEMO_SK_IDX"),
			optimizer.LeafAccess("STORE_SALES", qgm.OpTBSCAN, ""))},
		{"join", items, optimizer.Join(qgm.OpHSJOIN, optimizer.LeafAccess("ITEM", qgm.OpFETCH, "I_CATEGORY_IDX"),
			optimizer.Join(qgm.OpHSJOIN, optimizer.LeafAccess("STORE_SALES", qgm.OpTBSCAN, ""), optimizer.Leaf("DATE_DIM")))},
	}
	out := make([]execCase, len(cases))
	for i, c := range cases {
		plan, err := opt.BuildPlan(c.q, c.spec)
		if err != nil {
			tb.Fatalf("%s: BuildPlan: %v", c.name, err)
		}
		out[i] = execCase{c.name, c.q, plan}
	}
	return db, out
}

// BenchmarkDrainBuild measures one serial Run of each drainBuildCases plan.
func BenchmarkDrainBuild(b *testing.B) {
	db, cases := drainBuildCases(b)
	ex := New(db)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var st RunStats
			var err error
			for i := 0; i < b.N; i++ {
				if st, err = ex.Run(c.plan, c.q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.PeakIntermediateRows), "held-rows")
		})
	}
}

// checkBytesPerRun holds the bytes one warmed Run of the plan allocates, as
// the runtime counts them (TotalAlloc is exact and cumulative: no sampling,
// and a collection in the middle takes nothing away), under the ceiling. A
// pool miss — a collection dropped the entry, or the goroutine moved to a P
// whose pool has none yet — can only push a reading up, so the lowest of a few
// windows is the steady state.
func checkBytesPerRun(t *testing.T, name string, ex *Executor, plan *qgm.Plan, q *sqlparser.Query, ceiling uint64) {
	t.Helper()
	const windows, runs = 5, 4
	lowest := ^uint64(0)
	for w := 0; w <= windows; w++ { // window 0 warms the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := ex.Run(plan, q); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if w > 0 {
			lowest = min(lowest, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
	}
	t.Logf("%s: %d bytes per warmed Run, ceiling %d", name, lowest, ceiling)
	if lowest > ceiling {
		t.Errorf("%s: %d bytes per warmed Run exceeds the ceiling of %d", name, lowest, ceiling)
	}
}

// TestExecuteAllocCeiling is the executor's clock-free performance gate: the
// allocation count of one Execute of each Figure 8 wide plan. The parent
// commit (b857bc1, flat rows re-copied by every join, one map entry and one
// slice per build key) measured 3 368 allocations for fig8wide_orig and 1 706
// for fig8wide_rewritten with this very test, each returning 183 rows; the
// ceilings are a fifth of that (this commit: 332 and 330, of which 183 are
// the projected result rows). A regression here means something started
// allocating per intermediate row or per key again.
//
// The bytes ceilings pin the arena: with join outputs, build buffers and
// index arrays recycled, a warmed Run allocates its operators and nothing
// that grows with the rows — under 32 KB for either Figure 8 wide plan (466 KB
// and 293 KB per Execute before the arena), and under 256 KB for the
// root-feeding segment of BenchmarkExecuteRootSegment at 4 workers, 28 800
// rows through the exchange (2.5 MB before). The BenchmarkDrainBuild plans
// hold the same 32 KB with 14 400 rows in a build side (6–11 KB measured): the
// buffered row IDs, the index arrays and a join-fed build's slabs all come
// from pooled 16 KB chunks, so one chunk that is not recycled — or one byte
// allocated per build row — breaks the ceiling.
func TestExecuteAllocCeiling(t *testing.T) {
	ceilings := map[string]float64{"fig8wide_orig": 3368 / 5, "fig8wide_rewritten": 1706 / 5}
	_, _, ex := setup(t)
	for _, c := range execCases(t) {
		ceiling, pinned := ceilings[c.name]
		if !pinned {
			continue
		}
		var rows int
		allocs := testing.AllocsPerRun(5, func() {
			res, err := ex.Execute(c.plan, c.q)
			if err != nil {
				t.Fatal(err)
			}
			rows = len(res.Rows)
		})
		t.Logf("%s: %.0f allocs per Execute (%d rows), ceiling %.0f", c.name, allocs, rows, ceiling)
		if rows == 0 {
			t.Errorf("%s returned no rows: not a meaningful measurement", c.name)
		}
		if allocs > ceiling {
			t.Errorf("%s: %.0f allocations per Execute exceeds the ceiling of %.0f", c.name, allocs, ceiling)
		}
		if !raceDetector {
			checkBytesPerRun(t, c.name, ex, c.plan, c.q, 32<<10)
		}
	}
	if !raceDetector {
		db, q, plan := rootSegmentCase(t)
		ex = New(db)
		ex.Workers = 4
		checkBytesPerRun(t, "root segment, 4 workers", ex, plan, q, 256<<10)
		db, cases := drainBuildCases(t)
		for _, c := range cases {
			checkBytesPerRun(t, "drain build, "+c.name, New(db), c.plan, c.q, 32<<10)
		}
	}
}

// raceDetector is set by race_test.go. Under the race detector sync.Pool drops
// a quarter of what is Put, on purpose, so bytes per Run measure the detector.
var raceDetector bool

// rootSegmentCase is the plan of BenchmarkExecuteRootSegment: a table scan
// big enough to be partitioned under a hash join feeding RETURN, at data scale
// 1.0.
func rootSegmentCase(tb testing.TB) (*storage.Database, *sqlparser.Query, *qgm.Plan) {
	tb.Helper()
	db, err := tpcds.Generate(tpcds.GenOptions{Seed: 5, Scale: 1.0, Hazards: true})
	if err != nil {
		tb.Fatal(err)
	}
	q := sqlparser.MustParse(`SELECT ss_quantity, i_current_price FROM store_sales, item
		WHERE ss_item_sk = i_item_sk`)
	plan, err := optimizer.New(db.Catalog, optimizer.DefaultOptions()).BuildPlan(q, optimizer.Join(qgm.OpHSJOIN,
		optimizer.LeafAccess("STORE_SALES", qgm.OpTBSCAN, ""), optimizer.Leaf("ITEM")))
	if err != nil {
		tb.Fatal(err)
	}
	return db, q, plan
}

// BenchmarkExecuteRootSegment measures the one shape whose wall time depends
// on how an exchange merges: a partitioned table scan under a hash join
// feeding RETURN (no terminal SORT or GRPBY to buffer behind), drained with
// Run at data scale 1.0, serially and on 4 workers. It is why such a segment
// keeps unordered fan-in: merged in partition order, a later partition's
// worker runs only exchangeChanDepth batches ahead of the consumer and the
// segment is slower than serial.
func BenchmarkExecuteRootSegment(b *testing.B) {
	db, q, plan := rootSegmentCase(b)
	for _, workers := range []int{0, 4} {
		ex := New(db)
		ex.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var st RunStats
			var err error
			for i := 0; i < b.N; i++ {
				if st, err = ex.Run(plan, q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Rows), "rows")
		})
	}
}
