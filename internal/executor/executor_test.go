package executor

import (
	"sort"
	"strings"
	"testing"

	"galo/internal/catalog"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/tpcds"
)

var (
	testDB  *storage.Database
	testOpt *optimizer.Optimizer
)

func setup(t testing.TB) (*storage.Database, *optimizer.Optimizer, *Executor) {
	t.Helper()
	if testDB == nil {
		var err error
		testDB, err = tpcds.Generate(tpcds.GenOptions{Seed: 5, Scale: 0.1, Hazards: true})
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		testOpt = optimizer.New(testDB.Catalog, optimizer.DefaultOptions())
	}
	return testDB, testOpt, New(testDB)
}

// referenceRows computes the expected result of a conjunctive query by brute
// force, for correctness checks against arbitrary plans.
func referenceRows(t *testing.T, db *storage.Database, q *sqlparser.Query) int {
	t.Helper()
	work := q.Clone()
	if err := sqlparser.Resolve(work, db.Catalog.Schema); err != nil {
		t.Fatal(err)
	}
	// Start with the first table's filtered rows and iteratively join.
	type partial struct {
		cols map[string]catalog.Value
	}
	var parts []map[string]catalog.Value
	for i, ref := range work.From {
		tbl := db.Table(ref.Table)
		preds := sqlparser.PredicatesFor(work, ref.Name())
		var filtered []map[string]catalog.Value
		for _, row := range tbl.Rows {
			match := true
			for _, p := range preds {
				if !evalPredicate(&p, storage.Value(tbl.Def, row, p.Left.Column)) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			m := map[string]catalog.Value{}
			for ci, col := range tbl.Def.Columns {
				m[strings.ToUpper(ref.Name())+"."+col.Name] = row[ci]
			}
			filtered = append(filtered, m)
		}
		if i == 0 {
			parts = filtered
			continue
		}
		var next []map[string]catalog.Value
		joins := joinPredsTouching(work, ref.Name(), i)
		for _, left := range parts {
			for _, right := range filtered {
				ok := true
				for _, jp := range joins {
					lv, lok := left[strings.ToUpper(jp.Left.Table)+"."+jp.Left.Column]
					rv, rok := right[strings.ToUpper(jp.Left.Table)+"."+jp.Left.Column]
					var a, b catalog.Value
					if lok {
						a = lv
					} else {
						a = left[strings.ToUpper(jp.Right.Table)+"."+jp.Right.Column]
					}
					if rok {
						b = rv
					} else {
						b = right[strings.ToUpper(jp.Right.Table)+"."+jp.Right.Column]
					}
					if !catalog.Equal(a, b) {
						ok = false
						break
					}
				}
				if ok {
					merged := map[string]catalog.Value{}
					for k, v := range left {
						merged[k] = v
					}
					for k, v := range right {
						merged[k] = v
					}
					next = append(next, merged)
				}
			}
		}
		parts = next
	}
	_ = partial{}
	return len(parts)
}

// joinPredsTouching returns join predicates between the i-th FROM entry and
// any earlier entry.
func joinPredsTouching(q *sqlparser.Query, refName string, idx int) []sqlparser.Predicate {
	earlier := map[string]bool{}
	for i := 0; i < idx; i++ {
		earlier[strings.ToUpper(q.From[i].Name())] = true
	}
	var out []sqlparser.Predicate
	for _, p := range q.JoinPredicates() {
		l, r := strings.ToUpper(p.Left.Table), strings.ToUpper(p.Right.Table)
		if (l == strings.ToUpper(refName) && earlier[r]) || (r == strings.ToUpper(refName) && earlier[l]) {
			out = append(out, p)
		}
	}
	return out
}

func TestExecuteSingleTableFilter(t *testing.T) {
	db, opt, ex := setup(t)
	q := sqlparser.MustParse(`SELECT i_item_desc, i_current_price FROM item WHERE i_category = 'Music'`)
	plan := opt.MustOptimize(q)
	res, err := ex.Execute(plan, q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want := db.CountWhereEqual(tpcds.Item, "I_CATEGORY", catalog.String("Music"))
	if len(res.Rows) != want {
		t.Errorf("rows = %d, want %d", len(res.Rows), want)
	}
	if len(res.Columns) != 2 {
		t.Errorf("columns = %v", res.Columns)
	}
	if res.Stats.ElapsedMillis <= 0 {
		t.Errorf("elapsed = %v", res.Stats.ElapsedMillis)
	}
	if plan.ActualMillis != res.Stats.ElapsedMillis {
		t.Errorf("plan.ActualMillis not set")
	}
}

func TestExecuteJoinMatchesBruteForce(t *testing.T) {
	db, opt, ex := setup(t)
	q := sqlparser.MustParse(`SELECT i_item_desc, ws_quantity FROM web_sales, item
		WHERE ws_item_sk = i_item_sk AND i_category = 'Jewelry'`)
	plan := opt.MustOptimize(q)
	res, err := ex.Execute(plan, q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want := referenceRows(t, db, q)
	if len(res.Rows) != want {
		t.Errorf("optimizer plan rows = %d, brute force = %d", len(res.Rows), want)
	}
}

func TestAllJoinMethodsProduceSameResult(t *testing.T) {
	db, opt, ex := setup(t)
	q := sqlparser.MustParse(`SELECT i_item_desc, ws_quantity FROM web_sales, item
		WHERE ws_item_sk = i_item_sk AND i_category = 'Books'`)
	want := referenceRows(t, db, q)
	for _, method := range []qgm.OpType{qgm.OpHSJOIN, qgm.OpMSJOIN, qgm.OpNLJOIN} {
		spec := optimizer.Join(method, optimizer.Leaf("WEB_SALES"), optimizer.Leaf("ITEM"))
		plan, err := opt.BuildPlan(q, spec)
		if err != nil {
			t.Fatalf("BuildPlan(%s): %v", method, err)
		}
		res, err := ex.Execute(plan, q)
		if err != nil {
			t.Fatalf("Execute(%s): %v", method, err)
		}
		if len(res.Rows) != want {
			t.Errorf("%s produced %d rows, want %d", method, len(res.Rows), want)
		}
		// Swapped inputs produce the same result too.
		swapped := optimizer.Join(method, optimizer.Leaf("ITEM"), optimizer.Leaf("WEB_SALES"))
		plan2, err := opt.BuildPlan(q, swapped)
		if err != nil {
			t.Fatalf("BuildPlan swapped (%s): %v", method, err)
		}
		res2, err := ex.Execute(plan2, q)
		if err != nil {
			t.Fatalf("Execute swapped (%s): %v", method, err)
		}
		if len(res2.Rows) != want {
			t.Errorf("%s (swapped) produced %d rows, want %d", method, len(res2.Rows), want)
		}
	}
}

func TestThreeWayJoinCorrectAcrossPlans(t *testing.T) {
	db, opt, ex := setup(t)
	q := tpcds.Fig3Query()
	want := referenceRows(t, db, q)
	optimal := opt.MustOptimize(q)
	res, err := ex.Execute(optimal, q)
	if err != nil {
		t.Fatalf("Execute optimal: %v", err)
	}
	if len(res.Rows) != want {
		t.Errorf("optimal plan rows = %d, want %d", len(res.Rows), want)
	}
	alt := optimizer.Join(qgm.OpHSJOIN,
		optimizer.Join(qgm.OpHSJOIN, Leaf3("DATE_DIM"), Leaf3("WEB_SALES")),
		Leaf3("ITEM"))
	plan, err := opt.BuildPlan(q, alt)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	res2, err := ex.Execute(plan, q)
	if err != nil {
		t.Fatalf("Execute alt: %v", err)
	}
	if len(res2.Rows) != want {
		t.Errorf("alternative plan rows = %d, want %d", len(res2.Rows), want)
	}
}

// Leaf3 is a local alias to keep the spec construction readable.
func Leaf3(ref string) *optimizer.Spec { return optimizer.Leaf(ref) }

func TestActualCardinalitiesAnnotated(t *testing.T) {
	_, opt, ex := setup(t)
	q := tpcds.Fig8Query()
	plan := opt.MustOptimize(q)
	if _, err := ex.Execute(plan, q); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	annotated := 0
	plan.Root.Walk(func(n *qgm.Node) {
		if n.ActMillis > 0 || n.ActCardinality > 0 {
			annotated++
		}
	})
	if annotated < plan.NumOps()/2 {
		t.Errorf("only %d of %d operators annotated with actuals", annotated, plan.NumOps())
	}
}

func TestEstimationErrorVisibleAtRuntime(t *testing.T) {
	// With hazards installed the optimizer's estimate for a stale fact table
	// diverges from the actual row count revealed by execution.
	db, opt, ex := setup(t)
	q := sqlparser.MustParse(`SELECT cs_quantity FROM catalog_sales WHERE cs_quantity > 0`)
	plan := opt.MustOptimize(q)
	if _, err := ex.Execute(plan, q); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	scan := plan.Root.Scans()[0]
	if scan.ActCardinality < scan.EstCardinality*2 {
		t.Errorf("expected under-estimation: est=%v act=%v", scan.EstCardinality, scan.ActCardinality)
	}
	_ = db
}

func TestGroupByAndOrderByExecution(t *testing.T) {
	db, _, ex := setup(t)
	opt := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	q := sqlparser.MustParse(`SELECT i_category FROM item WHERE i_current_price > 0 GROUP BY i_category ORDER BY i_category`)
	plan := opt.MustOptimize(q)
	res, err := ex.Execute(plan, q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) == 0 || len(res.Rows) > len(tpcds.Categories) {
		t.Errorf("group by produced %d rows", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if catalog.Compare(res.Rows[i-1][0], res.Rows[i][0]) > 0 {
			t.Errorf("result not ordered at %d: %v > %v", i, res.Rows[i-1][0], res.Rows[i][0])
		}
	}
}

func TestPredicateEvaluation(t *testing.T) {
	mk := func(sql string) sqlparser.Predicate {
		q := sqlparser.MustParse("SELECT * FROM item WHERE " + sql)
		return q.Where[0]
	}
	cases := []struct {
		pred sqlparser.Predicate
		val  catalog.Value
		want bool
	}{
		{mk("i_x = 5"), catalog.Int(5), true},
		{mk("i_x = 5"), catalog.Int(6), false},
		{mk("i_x <> 5"), catalog.Int(6), true},
		{mk("i_x < 5"), catalog.Int(4), true},
		{mk("i_x >= 5"), catalog.Int(5), true},
		{mk("i_x BETWEEN 2 AND 8"), catalog.Int(8), true},
		{mk("i_x BETWEEN 2 AND 8"), catalog.Int(9), false},
		{mk("i_x NOT BETWEEN 2 AND 8"), catalog.Int(9), true},
		{mk("i_x IN ('a','b')"), catalog.String("b"), true},
		{mk("i_x NOT IN ('a','b')"), catalog.String("c"), true},
		{mk("i_x LIKE 'Mus%'"), catalog.String("Music"), true},
		{mk("i_x LIKE 'Mus_c'"), catalog.String("Music"), true},
		{mk("i_x NOT LIKE 'Mus%'"), catalog.String("Books"), true},
		{mk("i_x IS NULL"), catalog.Null(), true},
		{mk("i_x IS NOT NULL"), catalog.Null(), false},
		{mk("i_x = 5"), catalog.Null(), false},
	}
	for i, c := range cases {
		if got := evalPredicate(&c.pred, c.val); got != c.want {
			t.Errorf("case %d (%s over %v): got %v, want %v", i, c.pred.String(), c.val, got, c.want)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	_, opt, ex := setup(t)
	q := sqlparser.MustParse(`SELECT i_item_desc FROM item WHERE i_category = 'Music'`)
	if _, err := ex.Execute(nil, q); err == nil {
		t.Errorf("nil plan should fail")
	}
	plan := opt.MustOptimize(q)
	other := sqlparser.MustParse(`SELECT ws_quantity FROM web_sales WHERE ws_quantity > 0`)
	if _, err := ex.Execute(plan, other); err == nil {
		t.Errorf("mismatched query/plan should fail")
	}
}

func TestSpilledHashJoinSlowerThanBloomFiltered(t *testing.T) {
	// The same HSJOIN with and without a bloom filter: the filtered variant
	// must not be slower (Figure 4's fix direction).
	_, opt, ex := setup(t)
	q := sqlparser.MustParse(`SELECT ss_quantity FROM store_sales, date_dim
		WHERE ss_sold_date_sk = d_date_sk AND d_year >= 1990`)
	spec := optimizer.Join(qgm.OpHSJOIN, optimizer.Leaf("STORE_SALES"), optimizer.Leaf("DATE_DIM"))
	plan, err := opt.BuildPlan(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	join := plan.Root.Joins()[0]
	join.BloomFilter = false
	if _, err := ex.Execute(plan, q); err != nil {
		t.Fatal(err)
	}
	slow := plan.ActualMillis
	join.BloomFilter = true
	if _, err := ex.Execute(plan, q); err != nil {
		t.Fatal(err)
	}
	fast := plan.ActualMillis
	if fast > slow {
		t.Errorf("bloom-filtered join slower: %v > %v", fast, slow)
	}
}

// sortRowsBy is a helper used in tests to check result equivalence
// independent of row order.
func sortRowsBy(rows []storage.Row) {
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if k >= len(rows[j]) {
				return false
			}
			if cmp := catalog.Compare(rows[i][k], rows[j][k]); cmp != 0 {
				return cmp < 0
			}
		}
		return len(rows[i]) < len(rows[j])
	})
}
