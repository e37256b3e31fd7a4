package executor

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"galo/internal/catalog"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// runWorkers executes the query on a fresh plan with the given worker count
// (0 = the serial baseline) and returns the result plus the annotated plan.
func runWorkers(t *testing.T, opt *optimizer.Optimizer, q *sqlparser.Query, spec *optimizer.Spec, workers int) (*Result, *qgm.Plan) {
	t.Helper()
	var plan *qgm.Plan
	if spec == nil {
		plan = opt.MustOptimize(q)
	} else {
		var err error
		plan, err = opt.BuildPlan(q, spec)
		if err != nil {
			t.Fatalf("BuildPlan: %v", err)
		}
	}
	ex := New(testDB)
	ex.Workers = workers
	res, err := ex.Execute(plan, q)
	if err != nil {
		t.Fatalf("Execute(workers=%d): %v", workers, err)
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

// assertSameExecution requires the parallel run to be indistinguishable from
// the serial baseline: identical rows (exact order when the segment promises
// it, multiset otherwise), bit-identical per-operator actuals, and identical
// aggregate stats including the summed ElapsedMillis — the cost-parity
// invariant at any worker count.
func assertSameExecution(t *testing.T, ser, par *Result, serPlan, parPlan *qgm.Plan, exactOrder bool, label string) {
	t.Helper()
	if !reflect.DeepEqual(ser.Columns, par.Columns) {
		t.Fatalf("%s: columns differ: %v vs %v", label, ser.Columns, par.Columns)
	}
	sKeys, pKeys := rowKeys(ser.Rows), rowKeys(par.Rows)
	if !exactOrder {
		sorted := func(rows []storage.Row) []storage.Row {
			cp := append([]storage.Row{}, rows...)
			sortRowsBy(cp)
			return cp
		}
		sKeys, pKeys = rowKeys(sorted(ser.Rows)), rowKeys(sorted(par.Rows))
	}
	if len(sKeys) != len(pKeys) {
		t.Fatalf("%s: row counts differ: serial=%d parallel=%d", label, len(sKeys), len(pKeys))
	}
	for i := range sKeys {
		if sKeys[i] != pKeys[i] {
			t.Fatalf("%s: row %d differs:\n  serial:   %s\n  parallel: %s", label, i, sKeys[i], pKeys[i])
		}
	}
	sOps, pOps := serPlan.Operators(), parPlan.Operators()
	if len(sOps) != len(pOps) {
		t.Fatalf("%s: operator counts differ", label)
	}
	for i := range sOps {
		if sOps[i].Op != pOps[i].Op {
			t.Fatalf("%s: operator %d differs: %s vs %s", label, i, sOps[i].Op, pOps[i].Op)
		}
		if sOps[i].ActMillis != pOps[i].ActMillis {
			t.Errorf("%s: %s#%d ActMillis serial=%v parallel=%v",
				label, sOps[i].Op, sOps[i].ID, sOps[i].ActMillis, pOps[i].ActMillis)
		}
		if sOps[i].ActCardinality != pOps[i].ActCardinality {
			t.Errorf("%s: %s#%d ActCardinality serial=%v parallel=%v",
				label, sOps[i].Op, sOps[i].ID, sOps[i].ActCardinality, pOps[i].ActCardinality)
		}
	}
	if ser.Stats != par.Stats {
		t.Errorf("%s: aggregate stats differ:\n  serial:   %+v\n  parallel: %+v", label, ser.Stats, par.Stats)
	}
	if serPlan.ActualMillis != parPlan.ActualMillis {
		t.Errorf("%s: plan ActualMillis serial=%v parallel=%v", label, serPlan.ActualMillis, parPlan.ActualMillis)
	}
}

// TestParallelMatchesSerialAcrossWorkerCounts is the golden parity gate of
// the exchange operator: at workers ∈ {1, 4, 8} every per-operator charge and
// the aggregate stats must be bit-identical to the serial run, and the rows
// identical (exact order whenever the segment is order-preserving).
func TestParallelMatchesSerialAcrossWorkerCounts(t *testing.T) {
	_, opt, _ := setup(t)
	join := func(outer, inner string) *optimizer.Spec {
		return optimizer.Join(qgm.OpHSJOIN, optimizer.Leaf(outer), optimizer.Leaf(inner))
	}
	cases := []struct {
		name       string
		sql        string
		spec       *optimizer.Spec
		exactOrder bool
		exchange   bool // must actually engage the exchange at workers=4
	}{
		{"join-sort", `SELECT i_item_desc, ss_quantity FROM store_sales, item
			WHERE ss_item_sk = i_item_sk AND ss_quantity > 5 ORDER BY i_item_desc`,
			join("STORE_SALES", "ITEM"), true, true},
		{"threeway-sort", `SELECT i_item_desc, ss_quantity, d_year FROM store_sales, item, date_dim
			WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk ORDER BY i_item_desc`,
			optimizer.Join(qgm.OpHSJOIN,
				optimizer.Join(qgm.OpHSJOIN, optimizer.Leaf("STORE_SALES"), optimizer.Leaf("ITEM")),
				optimizer.Leaf("DATE_DIM")), true, true},
		{"join-groupby", `SELECT i_category FROM store_sales, item
			WHERE ss_item_sk = i_item_sk GROUP BY i_category`,
			join("STORE_SALES", "ITEM"), true, true},
		{"join-unordered", `SELECT ss_quantity, i_current_price FROM store_sales, item
			WHERE ss_item_sk = i_item_sk AND ss_quantity > 20`,
			join("STORE_SALES", "ITEM"), false, true},
		{"ixscan-join", `SELECT ss_quantity, i_item_desc FROM store_sales, item
			WHERE ss_item_sk = i_item_sk`,
			optimizer.Join(qgm.OpHSJOIN,
				optimizer.LeafAccess("STORE_SALES", qgm.OpIXSCAN, "SS_ITEM_IDX"),
				optimizer.Leaf("ITEM")), true, true},
		// Small outer (item: below exchangeMinRows) must fall back to serial
		// and still be identical.
		{"too-small-serial-fallback", `SELECT i_item_desc, ss_quantity FROM item, store_sales
			WHERE ss_item_sk = i_item_sk ORDER BY i_item_desc`,
			join("ITEM", "STORE_SALES"), true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := sqlparser.MustParse(tc.sql)
			ser, serPlan := runWorkers(t, opt, q, tc.spec, 0)
			for _, workers := range []int{1, 4, 8} {
				before := ExchangeSegmentCount()
				par, parPlan := runWorkers(t, opt, q, tc.spec, workers)
				engaged := ExchangeSegmentCount() > before
				if workers >= 4 && engaged != tc.exchange {
					t.Errorf("workers=%d: exchange engaged=%v, want %v", workers, engaged, tc.exchange)
				}
				assertSameExecution(t, ser, par, serPlan, parPlan, tc.exactOrder,
					fmt.Sprintf("workers=%d", workers))
			}
		})
	}
}

// TestParallelEarlyCloseCancelsWorkers pins cancellation: a high-multiplicity
// join (quantity ⋈ quantity fans each outer row out to dozens of matches)
// overflows the fan-in buffers so workers genuinely block mid-scan; closing
// the cursor after a few rows must stop every worker and charge only partial
// work.
func TestParallelEarlyCloseCancelsWorkers(t *testing.T) {
	_, opt, _ := setup(t)
	q := sqlparser.MustParse(`SELECT ss_net_profit FROM store_sales, catalog_sales
		WHERE ss_quantity = cs_quantity`)
	spec := optimizer.Join(qgm.OpHSJOIN, optimizer.Leaf("STORE_SALES"), optimizer.Leaf("CATALOG_SALES"))

	full, _ := runWorkers(t, opt, q, spec, 4)
	if full.Stats.Rows < 10000 {
		t.Fatalf("join not selective enough for the test: %d rows", full.Stats.Rows)
	}

	plan, err := opt.BuildPlan(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	ex := New(testDB)
	ex.Workers = 4
	cur, err := ex.Open(plan, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := cur.Next(); !ok {
			t.Fatalf("cursor exhausted after %d rows", i)
		}
	}
	cur.Close()
	if n := ExchangeWorkerCount(); n != 0 {
		t.Errorf("%d exchange workers still running after Close", n)
	}
	st := cur.Stats()
	if st.Rows != 3 {
		t.Errorf("partial Rows = %d, want 3", st.Rows)
	}
	if st.CPURows >= full.Stats.CPURows {
		t.Errorf("partial CPURows %d not below full-run %d — workers were not cancelled",
			st.CPURows, full.Stats.CPURows)
	}
	if st.ElapsedMillis >= full.Stats.ElapsedMillis {
		t.Errorf("partial elapsed %v not below full-run %v", st.ElapsedMillis, full.Stats.ElapsedMillis)
	}
}

// TestConcurrentCursorsShareOneExecutor runs many concurrent executions of
// the same plan shape (each on its own Plan clone — plans carry per-run
// actuals) against a single parallel executor; run under -race this is the
// thread-safety gate for the exchange, the shared LIKE cache and the build
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
	ref, refPlan := runWorkers(t, opt, q, spec, 0)

	ex := New(testDB)
	ex.Workers = 4
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
	_ = refPlan
}

// TestConcurrentExecutionsKeepSerialOrder pins that a plan's result and
// charges are a function of the plan and the data, never of what else is
// executing: eight concurrent executions on one Executor of a table scan big
// enough to be partitioned, under a hash join feeding RETURN — no SORT, no
// GRPBY, nothing above that could restore an order — must each be
// indistinguishable from the lone serial run. Serially that means the same
// rows in the same order; at 4 workers the segment's unordered fan-in promises
// the same rows as a multiset, and still every actual and all of RunStats.
func TestConcurrentExecutionsKeepSerialOrder(t *testing.T) {
	_, opt, _ := setup(t)
	q := sqlparser.MustParse(`SELECT ss_quantity, i_current_price FROM store_sales, item
		WHERE ss_item_sk = i_item_sk`)
	spec := optimizer.Join(qgm.OpHSJOIN, optimizer.LeafAccess("STORE_SALES", qgm.OpTBSCAN, ""), optimizer.Leaf("ITEM"))
	if n := len(testDB.Table("STORE_SALES").Rows); n < exchangeMinRows {
		t.Fatalf("STORE_SALES has %d rows: too few to partition", n)
	}
	ref, refPlan := runWorkers(t, opt, q, spec, 0)
	for _, workers := range []int{0, 4} {
		ex := New(testDB)
		ex.Workers = workers
		const goroutines = 8
		results, plans, errs := make([]*Result, goroutines), make([]*qgm.Plan, goroutines), make([]error, goroutines)
		segments := ExchangeSegmentCount()
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
		if engaged := ExchangeSegmentCount() > segments; engaged != (workers > 1) {
			t.Errorf("workers=%d: exchange engaged=%v", workers, engaged)
		}
		for g, res := range results {
			if errs[g] != nil {
				t.Fatalf("workers=%d: Execute: %v", workers, errs[g])
			}
			assertSameExecution(t, ref, res, refPlan, plans[g], workers <= 1, fmt.Sprintf("workers=%d, goroutine %d", workers, g))
		}
	}
}

// TestParallelHashBuildMatchesSerial pins the partitioned build: identical
// match chains (content and insertion order) to the serially filled index, on
// single-column and multi-column keys.
func TestParallelHashBuildMatchesSerial(t *testing.T) {
	const n = 8192 // ≥ parallelBuildMinRows
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			catalog.Int(int64(i % 97)),
			catalog.String(fmt.Sprintf("g%d", i%13)),
			catalog.Int(int64(i)),
		}
	}
	// Neither side has a table behind it, so keys are read through the rows.
	var probes []storage.Row
	for k := int64(-1); k < 100; k++ {
		for _, g := range []string{"g0", "g5", "nope"} {
			probes = append(probes, storage.Row{catalog.Int(k), catalog.String(g)})
		}
	}
	ids := rowIDs(n)
	lay := slotList{{ncols: 3, rows: rows}}
	probeLay := slotList{{ncols: 2, rows: probes}}
	cases := []struct {
		name string
		key  []column // the same columns on either side
	}{
		{"single-column", []column{{0, 0}}},
		{"multi-column", []column{{0, 0}, {0, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(workers int) (*hashBuild, int) {
				b := newHashBuild(new(arena), probeLay.refs(tc.key), lay.refs(tc.key), 1)
				for i := range rows {
					b.add(ids[i : i+1])
				}
				return b, b.index(workers)
			}
			matches := func(b *hashBuild, probe tuple) []tuple {
				var out []tuple
				for i, h := b.first(probe); i >= 0; i = b.after(i, h, probe) {
					out = append(out, b.rows.at(int(i)))
				}
				return out
			}
			serial, _ := build(1)
			parallel, parts := build(4)
			if parts != 4 {
				t.Fatalf("parallel build not partitioned: %d partitions", parts)
			}
			matched := 0
			for i, row := range probes {
				sm := matches(serial, ids[i:i+1])
				pm := matches(parallel, ids[i:i+1])
				if len(sm) != len(pm) {
					t.Fatalf("probe %v: serial %d matches, parallel %d", row, len(sm), len(pm))
				}
				for i := range sm {
					if !reflect.DeepEqual(sm[i], pm[i]) {
						t.Fatalf("probe %v: match %d differs (insertion order lost)", row, i)
					}
				}
				matched += len(sm)
			}
			if matched == 0 {
				t.Fatal("no probe matched anything: not a meaningful comparison")
			}
		})
	}
}

// TestSplitRangeContiguousCover pins the partitioning primitive: contiguous,
// in-order, complete, and never more parts than rows.
func TestSplitRangeContiguousCover(t *testing.T) {
	cases := []struct{ lo, hi, parts int }{
		{0, 10, 3}, {0, 10, 1}, {0, 10, 16}, {5, 5, 4}, {7, 2048, 8}, {0, 1, 8},
	}
	for _, c := range cases {
		parts := storage.SplitRange(c.lo, c.hi, c.parts)
		if len(parts) == 0 {
			t.Fatalf("SplitRange(%d,%d,%d) returned no parts", c.lo, c.hi, c.parts)
		}
		if parts[0][0] != c.lo || parts[len(parts)-1][1] != c.hi {
			t.Errorf("SplitRange(%d,%d,%d) does not cover the range: %v", c.lo, c.hi, c.parts, parts)
		}
		for i := 1; i < len(parts); i++ {
			if parts[i][0] != parts[i-1][1] {
				t.Errorf("SplitRange(%d,%d,%d) not contiguous: %v", c.lo, c.hi, c.parts, parts)
			}
		}
		if c.hi > c.lo && len(parts) > c.hi-c.lo {
			t.Errorf("SplitRange(%d,%d,%d): more parts than elements: %v", c.lo, c.hi, c.parts, parts)
		}
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
	if n := likeCache.size(); n > likeCacheCap {
		t.Errorf("LIKE cache grew to %d entries, cap is %d", n, likeCacheCap)
	}
}
