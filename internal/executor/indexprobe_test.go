package executor

import (
	"fmt"
	"math"
	"testing"

	"galo/internal/catalog"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/workload/tpcds"
)

// TestIndexProbeFrozen holds joins whose inner is a bare scan keyed on a
// stored index to their frozen answers: the rows in order, every operator's
// actuals and all of RunStats, build-side peaks included. The cases were
// frozen while every join still drained its inner into a hash build, so they
// pin that answering probes from the index changes nothing a plan reports:
// the Figure 8 early-out MSJOIN over SS_SOLD_DATE_IDX, a table-scan inner with
// a residual predicate, an outer that crosses the switch to a build part-way,
// an empty outer, an empty inner, keys that are −0 and +0, and a NaN in the
// key column (whose index is not in key-word order). Each case also pins how
// many of its joins the index answered and how many of those switched.
func TestIndexProbeFrozen(t *testing.T) {
	db, opt, _ := setup(t)
	lo, hi := tpcds.WideDateRange(db)
	dates := func(extra string) *sqlparser.Query {
		return sqlparser.MustParse(fmt.Sprintf(`SELECT d_year, ss_quantity, ss_item_sk FROM date_dim, store_sales
			WHERE ss_sold_date_sk = d_date_sk AND d_date_sk BETWEEN %d AND %d%s`, lo, hi, extra))
	}
	dateIx := optimizer.LeafAccess("DATE_DIM", qgm.OpIXSCAN, "D_DATE_SK")
	salesScan := optimizer.LeafAccess("STORE_SALES", qgm.OpTBSCAN, "")
	salesByDate := optimizer.LeafAccess("STORE_SALES", qgm.OpFETCH, "SS_SOLD_DATE_IDX")
	cases := []struct {
		name               string
		q                  *sqlparser.Query
		spec               *optimizer.Spec
		answered, switched int64
	}{
		// The NLJOIN above the MSJOIN probes I_ITEM_SK_IDX with 2 042 rows.
		{"fig8-optimizer-choice", tpcds.Fig8WideQuery(db), nil, 2, 1},
		{"early-out-msjoin-ss-sold-date-idx", dates(""), optimizer.Join(qgm.OpMSJOIN, dateIx, salesByDate), 1, 0},
		{"tbscan-residual", dates(" AND ss_quantity > 50"), optimizer.Join(qgm.OpHSJOIN, dateIx, salesScan), 1, 0},
		{"tbscan-residual-nljoin", dates(" AND ss_quantity > 50"), optimizer.Join(qgm.OpNLJOIN, dateIx, salesScan), 1, 0},
		{"switch-part-way", dates(""), optimizer.Join(qgm.OpHSJOIN, salesScan, dateIx), 1, 1},
		{"switch-part-way-item", sqlparser.MustParse(`SELECT i_item_desc, ss_quantity FROM store_sales, item
			WHERE ss_item_sk = i_item_sk AND ss_quantity > 90`),
			optimizer.Join(qgm.OpHSJOIN, salesScan, optimizer.LeafAccess("ITEM", qgm.OpFETCH, "I_ITEM_SK_IDX")), 1, 1},
		{"empty-outer", dates(" AND d_year < 0"), optimizer.Join(qgm.OpHSJOIN, dateIx, salesScan), 1, 0},
		// Nothing drained, nothing to answer: the empty build answers.
		{"empty-inner", dates(" AND ss_quantity < 0"), optimizer.Join(qgm.OpMSJOIN, dateIx, salesByDate), 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertIndexPaths(t, tc.answered, tc.switched, func() { assertFrozen(t, db, opt, tc.q, tc.spec) })
		})
	}

	// −0 and +0 share a key word and tie under catalog.Compare, so the stable
	// index sort leaves them in row order, one run. A NaN ties with everything
	// under Compare: the sort may leave it anywhere, and the index is not in
	// key-word order.
	negZero := catalog.Float(math.Copysign(0, -1))
	families := []struct {
		name        string
		left, right []catalog.Value
	}{
		{"signed-zero", []catalog.Value{negZero, catalog.Float(0), catalog.Float(math.NaN()), catalog.Null()},
			[]catalog.Value{catalog.Float(0), negZero, catalog.Int(0), catalog.Null(), catalog.Int(3), catalog.Float(3), catalog.DateFromDays(3)}},
		{"nan-in-key", []catalog.Value{catalog.Float(0), catalog.Float(math.NaN()), catalog.Null(), negZero},
			[]catalog.Value{catalog.Float(0), negZero, catalog.Float(math.NaN()), catalog.Int(3)}},
	}
	for _, fam := range families {
		db, opt := keyTables(t, fam.left, fam.right, "k1")
		// 49 inner rows answer 49 / (2·bits.Len(50)) = 4 outer rows: the
		// whole outer (16 rows) switches, the short one (4) does not. A merge
		// join sorts a table-scan inner, which is then no bare scan.
		for _, outer := range []struct{ name, where string }{{"whole-outer", ""}, {"short-outer", " AND l_k2 IS NULL"}} {
			q := sqlparser.MustParse(`SELECT l_id, r_id, r_k1 FROM lt, rt WHERE l_k1 = r_k1` + outer.where)
			var answered, switched int64
			if fam.name == "signed-zero" {
				answered = 1
				if outer.name == "whole-outer" {
					switched = 1
				}
			}
			for _, inner := range []*optimizer.Spec{optimizer.LeafAccess("RT", qgm.OpTBSCAN, ""), optimizer.LeafAccess("RT", qgm.OpIXSCAN, "R_K1_IDX")} {
				for _, method := range []qgm.OpType{qgm.OpHSJOIN, qgm.OpMSJOIN, qgm.OpNLJOIN} {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", fam.name, outer.name, inner.Access.Method, method), func(t *testing.T) {
						answered, switched := answered, switched
						if method == qgm.OpMSJOIN && inner.Access.Method == qgm.OpTBSCAN {
							answered, switched = 0, 0
						}
						assertIndexPaths(t, answered, switched, func() {
							assertFrozen(t, db, opt, q, optimizer.Join(method, optimizer.LeafAccess("LT", qgm.OpTBSCAN, ""), inner))
						})
					})
				}
			}
		}
	}
}

// assertIndexPaths requires that run, one serial execution, had answered of
// its joins answered from an index and switched of those switch to a build.
func assertIndexPaths(t *testing.T, answered, switched int64, run func()) {
	t.Helper()
	a, s := indexAnswered.Load(), indexSwitched.Load()
	run()
	if a, s = indexAnswered.Load()-a, indexSwitched.Load()-s; a != answered || s != switched {
		t.Errorf("%d joins answered from an index, %d switched to a build; want %d and %d", a, s, answered, switched)
	}
}
