package executor

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
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
		var filtered []map[string]catalog.Value
		for _, row := range tbl.Rows {
			match := true
			for _, p := range work.Where {
				if !p.LocalTo(ref.Name()) {
					continue
				}
				if sp := compilePred(&p, 0); !sp.match(row[tbl.Def.ColumnIndex(p.Left.Column)]) {
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
	for _, p := range q.Where {
		if !p.IsJoin() {
			continue
		}
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
	if annotated < plan.Root.CountOps()/2 {
		t.Errorf("only %d of %d operators annotated with actuals", annotated, plan.Root.CountOps())
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
		sp := compilePred(&c.pred, 0)
		if got := sp.match(c.val); got != c.want {
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

// runPlan executes the spec's plan for the query on a fresh executor and
// returns the result and the annotated plan.
func runPlan(t *testing.T, opt *optimizer.Optimizer, q *sqlparser.Query, spec *optimizer.Spec) (*Result, *qgm.Plan) {
	t.Helper()
	plan, err := opt.BuildPlan(q, spec)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	res, err := New(testDB).Execute(plan, q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res, plan
}

// rowKeys flattens rows into comparable strings.
func rowKeys(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for _, v := range r {
			s += v.Key() + "|"
		}
		out[i] = s
	}
	return out
}

// assertSameExecution requires a run to be indistinguishable from the
// reference run: the same rows in the same order, bit-identical per-operator
// actuals, and identical aggregate stats including the summed ElapsedMillis.
func assertSameExecution(t *testing.T, ref, got *Result, refPlan, gotPlan *qgm.Plan, label string) {
	t.Helper()
	if !reflect.DeepEqual(ref.Columns, got.Columns) {
		t.Fatalf("%s: columns differ: %v vs %v", label, ref.Columns, got.Columns)
	}
	rKeys, gKeys := rowKeys(ref.Rows), rowKeys(got.Rows)
	if len(rKeys) != len(gKeys) {
		t.Fatalf("%s: row counts differ: reference=%d got=%d", label, len(rKeys), len(gKeys))
	}
	for i := range rKeys {
		if rKeys[i] != gKeys[i] {
			t.Fatalf("%s: row %d differs:\n  reference: %s\n  got:       %s", label, i, rKeys[i], gKeys[i])
		}
	}
	rOps, gOps := refPlan.Operators(), gotPlan.Operators()
	if len(rOps) != len(gOps) {
		t.Fatalf("%s: operator counts differ", label)
	}
	for i := range rOps {
		if rOps[i].Op != gOps[i].Op {
			t.Fatalf("%s: operator %d differs: %s vs %s", label, i, rOps[i].Op, gOps[i].Op)
		}
		if rOps[i].ActMillis != gOps[i].ActMillis {
			t.Errorf("%s: %s#%d ActMillis reference=%v got=%v",
				label, rOps[i].Op, rOps[i].ID, rOps[i].ActMillis, gOps[i].ActMillis)
		}
		if rOps[i].ActCardinality != gOps[i].ActCardinality {
			t.Errorf("%s: %s#%d ActCardinality reference=%v got=%v",
				label, rOps[i].Op, rOps[i].ID, rOps[i].ActCardinality, gOps[i].ActCardinality)
		}
	}
	if ref.Stats != got.Stats {
		t.Errorf("%s: aggregate stats differ:\n  reference: %+v\n  got:       %+v", label, ref.Stats, got.Stats)
	}
	if refPlan.ActualMillis != gotPlan.ActualMillis {
		t.Errorf("%s: plan ActualMillis reference=%v got=%v", label, refPlan.ActualMillis, gotPlan.ActualMillis)
	}
}

// TestConcurrentCursorsShareOneExecutor runs many concurrent executions of
// the same plan shape (each on its own Plan clone — plans carry per-run
// actuals) against a single executor; run under -race this is the
// thread-safety gate for the shared LIKE cache, the arena pools and the build
// path.
func TestConcurrentCursorsShareOneExecutor(t *testing.T) {
	_, opt, _ := setup(t)
	q := sqlparser.MustParse(`SELECT i_item_desc, ss_quantity FROM store_sales, item
		WHERE ss_item_sk = i_item_sk AND i_item_desc LIKE '%item%' ORDER BY i_item_desc`)
	spec := optimizer.Join(qgm.OpHSJOIN, optimizer.Leaf("STORE_SALES"), optimizer.Leaf("ITEM"))
	base, err := opt.BuildPlan(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := runPlan(t, opt, q, spec)

	ex := New(testDB)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan := base.Clone()
			res, err := ex.Execute(plan, q)
			if err != nil {
				errs <- fmt.Sprintf("Execute: %v", err)
				return
			}
			if len(res.Rows) != len(ref.Rows) {
				errs <- fmt.Sprintf("rows = %d, want %d", len(res.Rows), len(ref.Rows))
				return
			}
			if res.Stats.ElapsedMillis != ref.Stats.ElapsedMillis {
				errs <- fmt.Sprintf("elapsed = %v, want %v", res.Stats.ElapsedMillis, ref.Stats.ElapsedMillis)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestConcurrentExecutionsKeepSerialOrder pins that a plan's result and
// charges are a function of the plan and the data, never of what else is
// executing: eight concurrent executions on one Executor of a table scan
// under a hash join feeding RETURN — no SORT, no GRPBY, nothing above that
// could restore an order — must each be indistinguishable from the lone run:
// the same rows in the same order, every actual and all of RunStats.
func TestConcurrentExecutionsKeepSerialOrder(t *testing.T) {
	_, opt, _ := setup(t)
	q := sqlparser.MustParse(`SELECT ss_quantity, i_current_price FROM store_sales, item
		WHERE ss_item_sk = i_item_sk`)
	spec := optimizer.Join(qgm.OpHSJOIN, optimizer.LeafAccess("STORE_SALES", qgm.OpTBSCAN, ""), optimizer.Leaf("ITEM"))
	ref, refPlan := runPlan(t, opt, q, spec)
	ex := New(testDB)
	const goroutines = 8
	results, plans, errs := make([]*Result, goroutines), make([]*qgm.Plan, goroutines), make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range results {
		plans[g] = refPlan.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = ex.Execute(plans[g], q)
		}()
	}
	wg.Wait()
	for g, res := range results {
		if errs[g] != nil {
			t.Fatalf("Execute: %v", errs[g])
		}
		assertSameExecution(t, ref, res, refPlan, plans[g], fmt.Sprintf("goroutine %d", g))
	}
}

// TestLikeCacheBoundedUnderConcurrency hammers the process-wide LIKE pattern
// cache from many goroutines with more distinct patterns than its capacity:
// it must stay bounded, stay correct, and (under -race) stay safe.
func TestLikeCacheBoundedUnderConcurrency(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				pat := fmt.Sprintf("val%%%d_%d", g, i)
				re := likeCache.get(pat)
				if re == nil {
					t.Errorf("pattern %q failed to compile", pat)
					return
				}
				if !re.MatchString(fmt.Sprintf("valXYZ%d_%d", g, i)) {
					t.Errorf("pattern %q did not match its own expansion", pat)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	likeCache.mu.Lock()
	n := len(likeCache.m)
	likeCache.mu.Unlock()
	if n > likeCacheCap {
		t.Errorf("LIKE cache grew to %d entries, cap is %d", n, likeCacheCap)
	}
}
