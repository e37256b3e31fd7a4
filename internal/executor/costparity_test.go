package executor

import (
	"fmt"
	"math"
	"testing"

	"galo/internal/catalog"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/tpcds"
)

// parityTables builds a hazard-free database for the plan/run cost parity
// suite: fresh statistics, no runtime transfer rate, and a buffer pool and
// sort heap small enough that BIG (64 pages) takes the does-not-fit and spill
// branches while SMALL (2 pages) takes the other side of each. Every column
// is numeric, so every row is as wide as the first one the statistics and the
// executor sample; and each table holds a whole number of pages, because plan
// time derives rows-per-page as rows/pages where run time divides the page
// size by the row width.
func parityTables(t *testing.T) *storage.Database {
	t.Helper()
	schema := catalog.NewSchema("P")
	big := catalog.NewTable("BIG",
		catalog.Column{Name: "b_id", Type: catalog.KindInt},
		catalog.Column{Name: "b_fk", Type: catalog.KindInt},
		catalog.Column{Name: "b_v", Type: catalog.KindFloat},
		catalog.Column{Name: "b_w", Type: catalog.KindInt},
	)
	small := catalog.NewTable("SMALL",
		catalog.Column{Name: "s_id", Type: catalog.KindInt},
		catalog.Column{Name: "s_v", Type: catalog.KindInt},
	)
	for _, ix := range []struct {
		t   *catalog.Table
		idx catalog.Index
	}{
		{big, catalog.Index{Name: "B_ID_IDX", Columns: []string{"b_id"}, Unique: true, ClusterRatio: 0.9}},
		{big, catalog.Index{Name: "B_FK_IDX", Columns: []string{"b_fk"}, ClusterRatio: 0.2}},
		{small, catalog.Index{Name: "S_ID_IDX", Columns: []string{"s_id"}, Unique: true, ClusterRatio: 0.95}},
	} {
		if err := ix.t.AddIndex(ix.idx); err != nil {
			t.Fatal(err)
		}
	}
	schema.AddTable(big)
	schema.AddTable(small)
	db := storage.NewDatabase(catalog.New(schema))
	db.Catalog.Config.BufferPoolPages = 16
	db.Catalog.Config.SortHeapPages = 8

	const smallRows, bigRows = 2 * 256, 64 * 128 // 16- and 32-byte rows on 4 KB pages
	for i := 0; i < smallRows; i++ {
		if err := db.Insert("SMALL", storage.Row{catalog.Int(int64(i)), catalog.Int(int64(i * 7 % 13))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < bigRows; i++ {
		row := storage.Row{catalog.Int(int64(i)), catalog.Int(int64(i * 31 % smallRows)), catalog.Float(float64(i*7919%1000) / 8), catalog.Int(int64(i % 5))}
		if err := db.Insert("BIG", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := storage.AnalyzeAll(db, storage.AnalyzeOptions{Histograms: true}); err != nil {
		t.Fatal(err)
	}
	if db.Pages("BIG") != 64 || db.Pages("SMALL") != 2 {
		t.Fatalf("BIG is %d pages and SMALL %d, want 64 and 2", db.Pages("BIG"), db.Pages("SMALL"))
	}
	return db
}

// parityChecker compares, operator by operator, what the optimizer estimated
// with what the executor charged.
type parityChecker struct {
	t    *testing.T
	db   *storage.Database
	plan catalog.CostModel // the plan-time view
	// checked counts the comparisons made, by operator.
	checked map[qgm.OpType]int
}

func (p *parityChecker) same(n *qgm.Node, what string, est, act float64) {
	p.t.Helper()
	p.checked[n.Op]++
	if math.Float64bits(est) != math.Float64bits(act) {
		p.t.Errorf("%s#%d %s: plan time %v (%016x), run time %v (%016x)",
			n.Op, n.ID, what, est, math.Float64bits(est), act, math.Float64bits(act))
	}
}

// firstRowWidth is the width of the first row a subtree emits: with numeric
// columns only, the sum of its tables' row widths.
func (p *parityChecker) firstRowWidth(n *qgm.Node) int {
	w := 0
	n.Walk(func(x *qgm.Node) {
		if x.Op.IsScan() {
			w += p.db.Table(x.Table).RowWidth()
		}
	})
	return w
}

// check walks an executed plan. Where the optimizer knew an operator's input
// counts exactly, the estimate it added for the operator is the charge, bit
// for bit; for joins (whose output cardinality is an estimate) the plan-time
// view of the model is fed the executed counts instead.
func (p *parityChecker) check(root *qgm.Node) {
	p.t.Helper()
	exact := func(n *qgm.Node) bool { return n.EstCardinality == n.ActCardinality }
	root.Walk(func(n *qgm.Node) {
		switch {
		case n.Op.IsScan():
			p.same(n, "estimate / charge", n.EstCost, n.ActMillis)
		case n.Op == qgm.OpSORT || n.Op == qgm.OpGRPBY:
			if exact(n.Outer) {
				p.same(n, "child estimate + charge / estimate", n.EstCost, n.Outer.EstCost+n.ActMillis)
			}
		case n.Op == qgm.OpRETURN || n.Op == qgm.OpFILTER:
			// Run-only charges: plan time passes the child's estimate through.
			factor := catalog.ReturnRowCPU
			if n.Op == qgm.OpFILTER {
				factor = catalog.FilterRowCPU
			}
			p.same(n, "estimate / child estimate", n.EstCost, n.Outer.EstCost)
			p.same(n, "per-row constant / charge", p.plan.PerRow(n.ActCardinality, factor), n.ActMillis)
		case n.Op.IsJoin():
			outer, inner, out := n.Outer.ActCardinality, n.Inner.ActCardinality, n.ActCardinality
			var want float64
			switch n.Op {
			case qgm.OpHSJOIN:
				want, _ = p.plan.HashJoin(outer, inner, out, p.firstRowWidth(n.Outer), p.firstRowWidth(n.Inner), n.BloomFilter)
			case qgm.OpMSJOIN:
				want = p.plan.MergeJoin(outer, inner, out)
			case qgm.OpNLJOIN:
				in := n.Inner
				cr := 0.0
				if in.Index != "" {
					cr = p.db.Catalog.Table(in.Table).IndexByName(in.Index).ClusterRatio
				}
				probe, _ := p.plan.NLProbe(in.Index != "", cr, float64(p.db.Pages(in.Table)), inner, out/outer)
				want = outer*probe + p.plan.PerRow(out, catalog.NLJoinOutRowCPU)
			}
			p.same(n, "plan-time view over executed counts / charge", want, n.ActMillis)
		}
	})
}

// TestPlanTimeCostEqualsRunTimeCharge is the parity the learning loop rests
// on, checked by execution: on a database with no estimation hazard, what the
// optimizer adds to a plan's cost for an operator is what the executor
// charges for it — to the last bit, serial and at 4 workers.
func TestPlanTimeCostEqualsRunTimeCharge(t *testing.T) {
	db := parityTables(t)
	bloom := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	noBloomOpts := optimizer.DefaultOptions()
	noBloomOpts.EnableBloomFilters = false
	noBloom := optimizer.New(db.Catalog, noBloomOpts)

	const join = `SELECT b_id, b_v, s_v FROM big, small WHERE b_fk = s_id`
	bigScan, smallScan := optimizer.Leaf("BIG"), optimizer.Leaf("SMALL")
	bigFetch := optimizer.LeafAccess("BIG", qgm.OpFETCH, "B_FK_IDX")
	smallFetch := optimizer.LeafAccess("SMALL", qgm.OpFETCH, "S_ID_IDX")
	cases := []struct {
		name string
		opt  *optimizer.Optimizer
		sql  string
		spec *optimizer.Spec
	}{
		{"tbscan/big", bloom, `SELECT b_id, b_fk, b_v, b_w FROM big`, bigScan},
		{"tbscan/small", bloom, `SELECT s_id, s_v FROM small`, smallScan},
		{"fetch/big-unclustered", bloom, `SELECT b_id, b_fk, b_v, b_w FROM big`, bigFetch},
		{"fetch/big-clustered", bloom, `SELECT b_id, b_fk, b_v, b_w FROM big`, optimizer.LeafAccess("BIG", qgm.OpFETCH, "B_ID_IDX")},
		{"fetch/small", bloom, `SELECT s_id, s_v FROM small`, smallFetch},
		{"ixscan/big", bloom, `SELECT b_fk FROM big`, optimizer.LeafAccess("BIG", qgm.OpIXSCAN, "B_FK_IDX")},
		{"sort/tbscan-spills", bloom, `SELECT b_id, b_v FROM big ORDER BY b_v`, bigScan},
		{"sort/fetch-spills", bloom, `SELECT b_id, b_v FROM big ORDER BY b_v`, bigFetch},
		{"sort/tbscan-fits", bloom, `SELECT s_id, s_v FROM small ORDER BY s_v`, smallScan},
		{"sort/fetch-fits", bloom, `SELECT s_id, s_v FROM small ORDER BY s_v`, smallFetch},
		{"grpby/tbscan", bloom, `SELECT b_w FROM big GROUP BY b_w`, bigScan},
		{"hsjoin/bloom", bloom, join, optimizer.Join(qgm.OpHSJOIN, bigScan, smallScan)},
		{"hsjoin/plain", noBloom, join, optimizer.Join(qgm.OpHSJOIN, bigScan, smallScan)},
		{"hsjoin/spill", bloom, join, optimizer.Join(qgm.OpHSJOIN, smallScan, bigScan)},
		{"hsjoin/spill-fetch", bloom, join, optimizer.Join(qgm.OpHSJOIN, smallFetch, bigFetch)},
		{"msjoin/two-sorts", bloom, join, optimizer.Join(qgm.OpMSJOIN, bigScan, smallScan)},
		{"msjoin/ordered-inputs", bloom, join, optimizer.Join(qgm.OpMSJOIN, bigFetch, smallFetch)},
		{"nljoin/index-fits", bloom, join, optimizer.Join(qgm.OpNLJOIN, bigScan, smallFetch)},
		{"nljoin/index-does-not-fit", bloom, join, optimizer.Join(qgm.OpNLJOIN, smallScan, bigFetch)},
		{"nljoin/scan-fits", bloom, join, optimizer.Join(qgm.OpNLJOIN, bigScan, smallScan)},
		{"nljoin/scan-does-not-fit", bloom, join, optimizer.Join(qgm.OpNLJOIN, smallScan, bigScan)},
		{"sort/over-join", bloom, join + ` ORDER BY b_v`, optimizer.Join(qgm.OpHSJOIN, bigScan, smallScan)},
	}

	checker := &parityChecker{t: t, db: db, plan: db.Catalog.Config.PlanCost(), checked: map[qgm.OpType]int{}}
	for _, workers := range []int{1, 4} {
		ex := New(db).WithWorkers(workers)
		for _, tc := range cases {
			t.Run(fmt.Sprintf("w%d/%s", workers, tc.name), func(t *testing.T) {
				checker.t = t
				q := sqlparser.MustParse(tc.sql)
				plan, err := tc.opt.BuildPlan(q, tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ex.Run(plan, q); err != nil {
					t.Fatal(err)
				}
				checker.check(plan.Root)
			})
		}
	}
	checker.t = t
	for op, want := range map[qgm.OpType]int{
		qgm.OpTBSCAN: 2 * 14, qgm.OpFETCH: 2 * 10, qgm.OpIXSCAN: 2, qgm.OpSORT: 2 * 6, qgm.OpGRPBY: 2,
		qgm.OpHSJOIN: 2 * 5, qgm.OpMSJOIN: 2 * 2, qgm.OpNLJOIN: 2 * 4, qgm.OpRETURN: 2 * 2 * len(cases),
	} {
		if checker.checked[op] < want {
			t.Errorf("%s: %d comparisons made, want at least %d; the suite lost coverage", op, checker.checked[op], want)
		}
	}
}

// TestTableScanParityOnHazardFreeTPCDS runs the full-scan parity over every
// table of the generated workload database with its hazards left out
// (string columns, real page counts).
func TestTableScanParityOnHazardFreeTPCDS(t *testing.T) {
	db, err := tpcds.Generate(tpcds.GenOptions{Seed: 5, Scale: 0.05, Hazards: false})
	if err != nil {
		t.Fatal(err)
	}
	if db.Catalog.Config.RuntimeTransferRate != 0 {
		t.Fatalf("hazard-free database has RuntimeTransferRate %v", db.Catalog.Config.RuntimeTransferRate)
	}
	opt := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	checker := &parityChecker{t: t, db: db, plan: db.Catalog.Config.PlanCost(), checked: map[qgm.OpType]int{}}
	for _, def := range db.Catalog.Schema.Tables() {
		q := sqlparser.MustParse("SELECT * FROM " + def.Name)
		plan, err := opt.BuildPlan(q, optimizer.LeafAccess(def.Name, qgm.OpTBSCAN, ""))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			if _, err := New(db).WithWorkers(workers).Run(plan, q); err != nil {
				t.Fatal(err)
			}
			checker.check(plan.Root)
		}
	}
	if checker.checked[qgm.OpTBSCAN] < 2*5 {
		t.Errorf("only %d table scans compared", checker.checked[qgm.OpTBSCAN])
	}
}
