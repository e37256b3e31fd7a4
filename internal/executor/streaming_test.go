package executor

import (
	"fmt"
	"testing"

	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// assertFrozen executes the plan the spec describes (the optimizer's own
// choice when spec is nil) on the streaming engine and requires the answer
// testdata/differential.json froze under the test's name: the rows in order,
// every operator's actuals and all of RunStats, bit for bit. It returns the
// run's stats, the peak intermediate rows the materializing engine held on
// the same plan when the file was frozen, which the streaming engine must not
// exceed, and the index paths the execution took. A case frozen after that
// engine was deleted records none; its peak is pinned by the frozen RunStats
// alone. The plan's Run and bounded runs must then book what the execution
// did (checkCounting).
func assertFrozen(t *testing.T, db *storage.Database, opt *optimizer.Optimizer, q *sqlparser.Query, spec *optimizer.Spec) (stream RunStats, matPeakRows int64, paths indexPaths) {
	t.Helper()
	var plan *qgm.Plan
	var err error
	if spec == nil {
		plan = opt.MustOptimize(q)
	} else if plan, err = opt.BuildPlan(q, spec); err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	p, err := New(db).Prepare(q)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	before := loadIndexPaths()
	res, err := p.Execute(plan)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	paths = loadIndexPaths().sub(before)
	executed := run{rows: res.Rows, ops: actuals(plan), stats: res.Stats}
	want, d := frozenCheck(t, t.Name(), freeze(executed))
	if d != "" {
		t.Errorf("%s\n%s", qgm.Format(plan), d)
	}
	if want.MatPeakRows > 0 && res.Stats.PeakIntermediateRows > want.MatPeakRows {
		t.Errorf("streaming peak rows %d exceeds the materializing engine's %d", res.Stats.PeakIntermediateRows, want.MatPeakRows)
	}
	if d := checkCounting(p, plan, executed); d != "" {
		t.Errorf("%s\n%s", qgm.Format(plan), d)
	}
	return res.Stats, want.MatPeakRows, paths
}

// TestStreamingMatchesMaterializingMatrix holds the operator matrix named in
// the roadmap — scan/ixscan access × the three join methods × a
// sort-terminated and a group-by-terminated query — to the answers frozen
// while the materializing engine agreed with them.
func TestStreamingMatchesMaterializingMatrix(t *testing.T) {
	db, opt, _ := setup(t)

	queries := []struct {
		name string
		sql  string
	}{
		{"sort", `SELECT i_item_desc, ws_quantity FROM web_sales, item
			WHERE ws_item_sk = i_item_sk AND i_category = 'Books' ORDER BY i_item_desc`},
		{"groupby", `SELECT i_category FROM web_sales, item
			WHERE ws_item_sk = i_item_sk AND ws_quantity > 40 GROUP BY i_category`},
	}
	accesses := []struct {
		name  string
		outer *optimizer.Spec
		inner *optimizer.Spec
	}{
		{"scan", optimizer.Leaf("WEB_SALES"), optimizer.Leaf("ITEM")},
		{"ixscan",
			optimizer.LeafAccess("WEB_SALES", qgm.OpIXSCAN, "WS_ITEM_IDX"),
			optimizer.LeafAccess("ITEM", qgm.OpFETCH, "I_ITEM_SK_IDX")},
	}

	ran := 0
	for _, method := range []qgm.OpType{qgm.OpHSJOIN, qgm.OpMSJOIN, qgm.OpNLJOIN} {
		for _, acc := range accesses {
			for _, qc := range queries {
				name := fmt.Sprintf("%s/%s/%s", method, acc.name, qc.name)
				t.Run(name, func(t *testing.T) {
					q := sqlparser.MustParse(qc.sql)
					spec := optimizer.Join(method, acc.outer, acc.inner)
					if _, err := opt.BuildPlan(q, spec); err != nil {
						t.Skipf("combination not plannable: %v", err)
					}
					assertFrozen(t, db, opt, q, spec)
					ran++
				})
			}
		}
	}
	if ran < 8 {
		t.Errorf("only %d matrix combinations ran; the suite lost coverage", ran)
	}
}

// TestStreamingMatchesMaterializingSingleTable holds the scan-only shapes to
// their frozen answers: pushdown through index bounds (equality, range,
// BETWEEN), LIKE through the compiled-pattern cache, and the optimizer's own
// plan choice.
func TestStreamingMatchesMaterializingSingleTable(t *testing.T) {
	db, opt, _ := setup(t)
	cases := []struct {
		name string
		sql  string
		spec *optimizer.Spec
	}{
		{"optimizer-choice", `SELECT i_item_desc FROM item WHERE i_category = 'Music' ORDER BY i_item_desc`, nil},
		{"tbscan-like", `SELECT i_item_desc FROM item WHERE i_item_desc LIKE '%er%'`,
			optimizer.LeafAccess("ITEM", qgm.OpTBSCAN, "")},
		{"ixscan-eq", `SELECT i_item_id FROM item WHERE i_category = 'Music'`,
			optimizer.LeafAccess("ITEM", qgm.OpFETCH, "I_CATEGORY_IDX")},
		{"ixscan-range", `SELECT d_year FROM date_dim WHERE d_date_sk < 2451000`,
			optimizer.LeafAccess("DATE_DIM", qgm.OpIXSCAN, "D_DATE_SK")},
		{"ixscan-between", `SELECT ws_quantity FROM web_sales WHERE ws_sold_date_sk BETWEEN 2450900 AND 2451200`,
			optimizer.LeafAccess("WEB_SALES", qgm.OpIXSCAN, "WS_SOLD_DATE_IDX")},
		{"groupby-orderby", `SELECT i_category FROM item WHERE i_current_price > 0 GROUP BY i_category ORDER BY i_category`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := sqlparser.MustParse(tc.sql)
			assertFrozen(t, db, opt, q, tc.spec)
		})
	}
}

// TestStreamingBoundsIntermediateRows pins the point of the streaming engine:
// on a join pipeline its peak resident intermediate rows stay at or under half
// of what the materializing engine held on the same plan (recorded in the
// fixture when that engine still ran; the count is deterministic).
func TestStreamingBoundsIntermediateRows(t *testing.T) {
	db, opt, _ := setup(t)
	q := sqlparser.MustParse(`SELECT i_item_desc, ws_quantity FROM web_sales, item
		WHERE ws_item_sk = i_item_sk ORDER BY i_item_desc`)
	spec := optimizer.Join(qgm.OpHSJOIN, optimizer.Leaf("WEB_SALES"), optimizer.Leaf("ITEM"))
	stream, matPeak, _ := assertFrozen(t, db, opt, q, spec)
	if stream.PeakIntermediateRows <= 0 || matPeak <= 0 {
		t.Fatalf("peak accounting missing: streaming=%d materializing=%d", stream.PeakIntermediateRows, matPeak)
	}
	if stream.PeakIntermediateRows*2 > matPeak {
		t.Errorf("streaming peak %d rows is not ≤ half the materializing peak %d rows", stream.PeakIntermediateRows, matPeak)
	}
}

// TestEarlyTerminationStopsUpstreamScans proves a bounded consumer stops the
// pipeline: closing the cursor after a few rows must leave the scan charged
// for only the rows it actually produced, not the whole table.
func TestEarlyTerminationStopsUpstreamScans(t *testing.T) {
	db, opt, ex := setup(t)
	q := sqlparser.MustParse(`SELECT ss_quantity FROM store_sales WHERE ss_quantity >= 0`)
	plan := opt.MustOptimize(q)

	full, err := ex.Execute(plan, q)
	if err != nil {
		t.Fatalf("full Execute: %v", err)
	}
	if full.Stats.Rows < 100 {
		t.Fatalf("table too small for the test: %d rows", full.Stats.Rows)
	}

	cur, err := ex.Open(plan, q)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const want = 3
	for i := 0; i < want; i++ {
		if _, ok := cur.Next(); !ok {
			t.Fatalf("cursor exhausted after %d rows", i)
		}
	}
	cur.Close()
	st := cur.Stats()
	if st.Rows != want {
		t.Errorf("partial Rows = %d, want %d", st.Rows, want)
	}
	if st.CPURows >= full.Stats.CPURows {
		t.Errorf("partial CPURows %d not below full-run %d — upstream scan did not stop", st.CPURows, full.Stats.CPURows)
	}
	if st.ElapsedMillis >= full.Stats.ElapsedMillis {
		t.Errorf("partial elapsed %v not below full-run %v", st.ElapsedMillis, full.Stats.ElapsedMillis)
	}
	// ResetActuals at Open must have cleared the full run's annotations, and
	// the partial run re-annotates with partial truth only.
	for _, scan := range plan.Root.Scans() {
		if scan.ActCardinality > want {
			t.Errorf("scan %s ActCardinality = %v after pulling %d rows — stale or unstopped",
				scan.Op, scan.ActCardinality, want)
		}
	}
	_ = db
}
