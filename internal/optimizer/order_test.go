package optimizer_test

import (
	"fmt"
	"testing"

	"galo/internal/catalog"
	"galo/internal/executor"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/tpcds"
)

// freshDB is a hazard-free database: statistics and histograms describe the
// data truthfully, so estimates should track actuals.
var freshTestDB *storage.Database

func freshDB(t *testing.T) *storage.Database {
	t.Helper()
	if freshTestDB == nil {
		var err error
		freshTestDB, err = tpcds.Generate(tpcds.GenOptions{Seed: 5, Scale: 0.1, Hazards: false})
		if err != nil {
			t.Fatal(err)
		}
	}
	return freshTestDB
}

// TestHistogramEstimatesTrackGroundTruth checks the stats layer end to end:
// with fresh histograms, range and equality estimates land within a small
// factor of the true counts — including on the skewed fact date key where
// min/max interpolation is off by an order of magnitude.
func TestHistogramEstimatesTrackGroundTruth(t *testing.T) {
	db := freshDB(t)
	o := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	lo, hi, _ := tpcds.SaleDateRange(db)
	total := float64(db.RowCount(tpcds.StoreSales))

	countBetween := func(loV, hiV int64) float64 {
		tbl := db.Table(tpcds.StoreSales)
		ci := tbl.Def.ColumnIndex("SS_SOLD_DATE_SK")
		n := 0
		for _, row := range tbl.Rows {
			if d := row[ci].AsInt(); d >= loV && d <= hiV {
				n++
			}
		}
		return float64(n)
	}

	ts := o.Cat.Stats(tpcds.StoreSales)
	cases := []struct{ lo, hi int64 }{
		{lo, hi},      // the dense sale window
		{1, lo - 1},   // the sparse historical span
		{lo - 50, hi}, // straddling both
	}
	for _, c := range cases {
		truth := countBetween(c.lo, c.hi) / total
		est := o.PredicateSelectivity(ts, sqlparser.Predicate{
			Kind: sqlparser.PredBetween,
			Left: sqlparser.ColumnRef{Table: "STORE_SALES", Column: "SS_SOLD_DATE_SK"},
			Lo:   catalog.Int(c.lo), Hi: catalog.Int(c.hi),
		})
		if truth == 0 {
			continue
		}
		if est < truth/2 || est > truth*2 {
			t.Errorf("range [%d,%d]: est %.4f vs truth %.4f (off by >2x)", c.lo, c.hi, est, truth)
		}
		// The pre-histogram interpolation over [min,max] assumes uniformity;
		// for the dense window it underestimates badly. Prove the histogram
		// is doing the work by comparing against the uniform assumption.
		if c.lo == lo && c.hi == hi {
			uniform := float64(hi-lo+1) / float64(hi)
			if est < uniform*2 {
				t.Errorf("window estimate %.4f does not beat the uniform assumption %.4f", est, uniform)
			}
		}
	}

	// Equality on the Zipf-skewed item key: the top item is far above 1/NDV.
	itemTS := o.Cat.Stats(tpcds.StoreSales)
	topCount := db.CountWhereEqual(tpcds.StoreSales, "SS_ITEM_SK", catalog.Int(1))
	truth := float64(topCount) / total
	est := o.PredicateSelectivity(itemTS, sqlparser.Predicate{
		Kind: sqlparser.PredCompare, Op: "=",
		Left:  sqlparser.ColumnRef{Table: "STORE_SALES", Column: "SS_ITEM_SK"},
		Value: catalog.Int(1),
	})
	if est < truth/3 || est > truth*3 {
		t.Errorf("skewed equality: est %.5f vs truth %.5f", est, truth)
	}
}

// TestOrderPropertyEliminatesFinalSort is the IXSCAN -> SORT-elimination
// slice: an ORDER BY on an index-provided order needs no SORT operator, and
// the executed rows still come out sorted.
func TestOrderPropertyEliminatesFinalSort(t *testing.T) {
	db := freshDB(t)
	o := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	plan := o.MustOptimize(sqlparser.MustParse(`SELECT i_item_sk FROM item ORDER BY i_item_sk`))
	var sorts, ixscans int
	plan.Root.Walk(func(n *qgm.Node) {
		if n.Op == qgm.OpSORT {
			sorts++
		}
		if n.Op == qgm.OpIXSCAN {
			ixscans++
			if n.OrderedOn == "" {
				t.Errorf("index scan carries no order property")
			}
		}
	})
	if ixscans != 1 || sorts != 0 {
		t.Fatalf("expected a sort-free index plan, got ixscans=%d sorts=%d:\n%s", ixscans, sorts, qgm.Format(plan))
	}
	// The plan without the SORT still delivers ordered rows.
	res, err := executor.New(db).Execute(plan, sqlparser.MustParse(`SELECT i_item_sk FROM item ORDER BY i_item_sk`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if catalog.Compare(res.Rows[i-1][0], res.Rows[i][0]) > 0 {
			t.Fatalf("row %d out of order: %v > %v", i, res.Rows[i-1][0], res.Rows[i][0])
		}
	}
	// A non-indexed order still gets its SORT.
	sorted := o.MustOptimize(sqlparser.MustParse(`SELECT i_item_desc FROM item ORDER BY i_item_desc`))
	if sorted.Root.Outer == nil || sorted.Root.Outer.Op != qgm.OpSORT {
		t.Errorf("ORDER BY without index order should keep the SORT:\n%s", qgm.Format(sorted))
	}
}

// TestMultiColumnOrderBySortsAllKeys guards the final SORT against the order
// property shortcut: a SORT whose property names the leading ORDER BY column
// must still sort by the full ORDER BY key list.
func TestMultiColumnOrderBySortsAllKeys(t *testing.T) {
	db := freshDB(t)
	o := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	q := sqlparser.MustParse(`SELECT i_category, i_item_sk FROM item ORDER BY i_category, i_item_sk`)
	plan := o.MustOptimize(q)
	res, err := executor.New(db).Execute(plan, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		c := catalog.Compare(prev[0], cur[0])
		if c > 0 || (c == 0 && catalog.Compare(prev[1], cur[1]) > 0) {
			t.Fatalf("row %d violates ORDER BY i_category, i_item_sk: %v > %v", i, prev, cur)
		}
	}
}

// TestOrderPropertyPropagatesThroughMSJOIN pins the full propagation chain:
// sorted index accesses feed a merge join that claims the order, no SORT
// operator appears, and the order property survives on the join output.
func TestOrderPropertyPropagatesThroughMSJOIN(t *testing.T) {
	hazardDB, err := tpcds.Generate(tpcds.GenOptions{Seed: 5, Scale: 0.1, Hazards: true})
	if err != nil {
		t.Fatal(err)
	}
	o := optimizer.New(hazardDB.Catalog, optimizer.DefaultOptions())
	lo, hi := tpcds.WideDateRange(hazardDB)
	q := sqlparser.MustParse(fmt.Sprintf(`SELECT ss_quantity FROM store_sales, date_dim
		WHERE ss_sold_date_sk = d_date_sk AND d_date_sk BETWEEN %d AND %d`, lo, hi))
	plan := o.MustOptimize(q)
	join := plan.Root.Outer
	for join != nil && !join.Op.IsJoin() {
		join = join.Outer
	}
	if join == nil || join.Op != qgm.OpMSJOIN {
		t.Fatalf("wide-range fact/dimension join should pick MSJOIN:\n%s", qgm.Format(plan))
	}
	if join.OrderedOn == "" {
		t.Errorf("merge join output carries no order property")
	}
	for _, input := range []*qgm.Node{join.Outer, join.Inner} {
		if input.Op == qgm.OpSORT {
			t.Errorf("merge input uses a SORT instead of claiming index order:\n%s", qgm.Format(plan))
		} else if !input.Op.IsScan() || input.Index == "" {
			t.Errorf("merge input should be a sorted index access, got %s", input)
		}
	}
}
