package executor

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"galo/internal/catalog"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
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
// key column (whose index is not in key-word order). Further key families
// join an inner without a predicate of its own at the edges of its key range:
// every key NULL, a largest key repeated in several kinds, −0 and +0 tied at
// the largest, and an empty table; and an inner whose first index entry is
// its widest row, which the build side's width is sampled from. Each case also
// pins how many of its joins the index answered and how many of those
// switched, and how many of its inners were counted rather than drained.
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
		name  string
		q     *sqlparser.Query
		spec  *optimizer.Spec
		paths indexPaths
	}{
		// The NLJOIN above the MSJOIN probes I_ITEM_SK_IDX with 2 042 rows;
		// i_category = 'Jewelry' leaves its inner drained.
		{"fig8-optimizer-choice", tpcds.Fig8WideQuery(db), nil, indexPaths{2, 1, 1}},
		{"early-out-msjoin-ss-sold-date-idx", dates(""), optimizer.Join(qgm.OpMSJOIN, dateIx, salesByDate), indexPaths{1, 0, 1}},
		{"tbscan-residual", dates(" AND ss_quantity > 50"), optimizer.Join(qgm.OpHSJOIN, dateIx, salesScan), indexPaths{1, 0, 0}},
		{"tbscan-residual-nljoin", dates(" AND ss_quantity > 50"), optimizer.Join(qgm.OpNLJOIN, dateIx, salesScan), indexPaths{1, 0, 0}},
		{"switch-part-way", dates(""), optimizer.Join(qgm.OpHSJOIN, salesScan, dateIx), indexPaths{1, 1, 0}},
		{"switch-part-way-item", sqlparser.MustParse(`SELECT i_item_desc, ss_quantity FROM store_sales, item
			WHERE ss_item_sk = i_item_sk AND ss_quantity > 90`),
			optimizer.Join(qgm.OpHSJOIN, salesScan, optimizer.LeafAccess("ITEM", qgm.OpFETCH, "I_ITEM_SK_IDX")), indexPaths{1, 1, 1}},
		{"empty-outer", dates(" AND d_year < 0"), optimizer.Join(qgm.OpHSJOIN, dateIx, salesScan), indexPaths{1, 0, 1}},
		// Nothing drained, nothing to answer: the empty build answers.
		{"empty-inner", dates(" AND ss_quantity < 0"), optimizer.Join(qgm.OpMSJOIN, dateIx, salesByDate), indexPaths{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertIndexPaths(t, tc.paths, func() { assertFrozen(t, db, opt, tc.q, tc.spec) })
		})
	}

	// −0 and +0 share a key word and tie under catalog.Compare, so the stable
	// index sort leaves them in row order, one run. A NaN ties with everything
	// under Compare: the sort may leave it anywhere, and the index is not in
	// key-word order.
	//
	// In repeated-max and signed-zero-max the probe column holds a string, so
	// an early-out MSJOIN compares its bound as a value, in string form when
	// the probe is the string: of the largest inner keys only the first met —
	// the date 3, the −0 — leaves that probe above the bound.
	negZero := catalog.Float(math.Copysign(0, -1))
	nulls := slices.Repeat([]catalog.Value{catalog.Null()}, 7)
	families := []struct {
		name        string
		left, right []catalog.Value
		answered    bool // the index is in key-word order and the inner holds a row
		counted     bool // the index is in key-word order
	}{
		{"signed-zero", []catalog.Value{negZero, catalog.Float(0), catalog.Float(math.NaN()), catalog.Null()},
			[]catalog.Value{catalog.Float(0), negZero, catalog.Int(0), catalog.Null(), catalog.Int(3), catalog.Float(3), catalog.DateFromDays(3)}, true, true},
		{"nan-in-key", []catalog.Value{catalog.Float(0), catalog.Float(math.NaN()), catalog.Null(), negZero},
			[]catalog.Value{catalog.Float(0), negZero, catalog.Float(math.NaN()), catalog.Int(3)}, false, false},
		{"all-null-key", []catalog.Value{catalog.Float(0), catalog.Null(), catalog.Int(3), negZero}, nulls, true, true},
		{"repeated-max", []catalog.Value{catalog.String("3"), catalog.Int(3), catalog.Null(), catalog.Float(1)},
			[]catalog.Value{catalog.Float(1), catalog.DateFromDays(3), catalog.Int(3), catalog.Null(), catalog.Float(3), catalog.Int(-2), catalog.Float(0.5)}, true, true},
		{"signed-zero-max", []catalog.Value{catalog.String("0"), catalog.Float(0), catalog.Null(), negZero},
			[]catalog.Value{negZero, catalog.Int(-1), catalog.Float(0), catalog.Null(), negZero, catalog.Float(-3), catalog.Int(0)}, true, true},
		{"empty-inner", []catalog.Value{catalog.Float(0), catalog.Null(), catalog.Int(3), negZero}, nil, false, true},
	}
	for _, fam := range families {
		db, opt := keyTables(t, fam.left, fam.right, "k1")
		// 49 inner rows answer 49 / (2·bits.Len(50)) = 4 outer rows: the
		// whole outer (16 rows) switches, the short one (4) does not. A merge
		// join sorts a table-scan inner, which is then no bare scan.
		for _, outer := range []struct{ name, where string }{{"whole-outer", ""}, {"short-outer", " AND l_k2 IS NULL"}} {
			q := sqlparser.MustParse(`SELECT l_id, r_id, r_k1 FROM lt, rt WHERE l_k1 = r_k1` + outer.where)
			var paths indexPaths
			if fam.answered {
				paths.answered = 1
				if outer.name == "whole-outer" {
					paths.switched = 1
				}
			}
			if fam.counted {
				paths.counted = 1
			}
			for _, inner := range []*optimizer.Spec{optimizer.LeafAccess("RT", qgm.OpTBSCAN, ""), optimizer.LeafAccess("RT", qgm.OpIXSCAN, "R_K1_IDX")} {
				for _, method := range []qgm.OpType{qgm.OpHSJOIN, qgm.OpMSJOIN, qgm.OpNLJOIN} {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", fam.name, outer.name, inner.Access.Method, method), func(t *testing.T) {
						paths := paths
						if method == qgm.OpMSJOIN && inner.Access.Method == qgm.OpTBSCAN {
							paths = indexPaths{}
						}
						assertIndexPaths(t, paths, func() {
							assertFrozen(t, db, opt, q, optimizer.Join(method, optimizer.LeafAccess("LT", qgm.OpTBSCAN, ""), inner))
						})
					})
				}
			}
		}
	}

	// RT's keys fall as its names grow: R_K_IDX lists the last, widest row
	// first. Three outer rows stay under the 64 inner rows' switch (4 rows).
	db, opt = namedTables(t, 64)
	q := sqlparser.MustParse(`SELECT l_id, r_name FROM lt, rt WHERE l_k = r_k`)
	for _, inner := range []*optimizer.Spec{optimizer.LeafAccess("RT", qgm.OpTBSCAN, ""), optimizer.LeafAccess("RT", qgm.OpIXSCAN, "R_K_IDX")} {
		for _, method := range []qgm.OpType{qgm.OpHSJOIN, qgm.OpMSJOIN, qgm.OpNLJOIN} {
			t.Run(fmt.Sprintf("wide-first-entry/%s/%s", inner.Access.Method, method), func(t *testing.T) {
				paths := indexPaths{answered: 1, counted: 1}
				if method == qgm.OpMSJOIN && inner.Access.Method == qgm.OpTBSCAN {
					paths = indexPaths{}
				}
				assertIndexPaths(t, paths, func() {
					assertFrozen(t, db, opt, q, optimizer.Join(method, optimizer.LeafAccess("LT", qgm.OpTBSCAN, ""), inner))
				})
			})
		}
	}
}

// namedTables builds LT(l_k, l_id), three rows keyed 0, n/2 and n-1, and
// RT(r_k, r_name) with an index R_K_IDX on r_k, n rows whose key falls from
// n-1 to 0 as the name grows from one byte to n.
func namedTables(t *testing.T, n int) (*storage.Database, *optimizer.Optimizer) {
	t.Helper()
	lt := catalog.NewTable("LT", catalog.Column{Name: "l_k", Type: catalog.KindInt}, catalog.Column{Name: "l_id", Type: catalog.KindInt})
	rt := catalog.NewTable("RT", catalog.Column{Name: "r_k", Type: catalog.KindInt}, catalog.Column{Name: "r_name", Type: catalog.KindString})
	if err := rt.AddIndex(catalog.Index{Name: "R_K_IDX", Columns: []string{"r_k"}}); err != nil {
		t.Fatal(err)
	}
	schema := catalog.NewSchema("N")
	schema.AddTable(lt)
	schema.AddTable(rt)
	db := storage.NewDatabase(catalog.New(schema))
	insert := func(table string, row storage.Row) {
		if err := db.Insert(table, row); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range []int{0, n / 2, n - 1} {
		insert("LT", storage.Row{catalog.Int(int64(k)), catalog.Int(int64(i))})
	}
	for i := range n {
		insert("RT", storage.Row{catalog.Int(int64(n - 1 - i)), catalog.String(strings.Repeat("x", i+1))})
	}
	if err := storage.AnalyzeAll(db, storage.AnalyzeOptions{Histograms: true}); err != nil {
		t.Fatal(err)
	}
	return db, optimizer.New(db.Catalog, optimizer.DefaultOptions())
}

// indexPaths counts the joins of an execution whose probes an index
// answered, those of them that switched to a build, and the joins whose inner
// was counted from the index instead of drained.
type indexPaths struct{ answered, switched, counted int64 }

// loadIndexPaths reads the process-wide counters.
func loadIndexPaths() indexPaths {
	return indexPaths{indexAnswered.Load(), indexSwitched.Load(), indexCounted.Load()}
}

// sub is the count of each path between two readings.
func (p indexPaths) sub(q indexPaths) indexPaths {
	return indexPaths{p.answered - q.answered, p.switched - q.switched, p.counted - q.counted}
}

// assertIndexPaths requires that run, one serial execution, took each path
// the number of times want says.
func assertIndexPaths(t *testing.T, want indexPaths, run func()) {
	t.Helper()
	before := loadIndexPaths()
	run()
	if got := loadIndexPaths().sub(before); got != want {
		t.Errorf("%d joins answered from an index, %d switched to a build, %d inners counted; want %d, %d and %d",
			got.answered, got.switched, got.counted, want.answered, want.switched, want.counted)
	}
}
