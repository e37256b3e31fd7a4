package executor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"galo/internal/catalog"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/randplan"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/tpcds"
)

// maxDifferentialWork bounds the rows a differential case may push through
// its operators (summed ActCardinality of the serial run): a random join order
// over two fact tables can fan out to 10^5 intermediate rows, and a handful
// of those would take longer than the other two thousand plans together.
const maxDifferentialWork = 20000

// differentialPlans is how many random plans TestDifferentialRandomPlans
// runs (race_test.go shortens it under the race detector; -short to 200).
var differentialPlans = 2000

// run is one execution's observable outcome: the rows, every operator's
// actuals in plan pre-order, and the aggregate stats.
type run struct {
	rows  []storage.Row
	ops   [][2]float64 // ActMillis, ActCardinality
	stats RunStats
}

func execute(t *testing.T, ex *Executor, plan *qgm.Plan, q *sqlparser.Query) run {
	t.Helper()
	res, err := ex.Execute(plan, q)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return run{rows: res.Rows, ops: actuals(plan), stats: res.Stats}
}

// actuals reads every operator's (ActMillis, ActCardinality) in plan pre-order.
func actuals(plan *qgm.Plan) (ops [][2]float64) {
	for _, op := range plan.Operators() {
		ops = append(ops, [2]float64{op.ActMillis, op.ActCardinality})
	}
	return ops
}

// drain collects what is left of an open cursor the way execute does.
func drain(cur *Cursor, plan *qgm.Plan, rows []storage.Row) run {
	for {
		row, ok := cur.Next()
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	cur.Close()
	return run{rows: rows, ops: actuals(plan), stats: cur.Stats()}
}

// diff describes the first difference between two executions of one plan on
// one engine configuration ("" when there is none): every operator's actuals
// and all of RunStats bit for bit, and the rows — cell for cell and in order,
// or as a multiset when the configuration promises no more than that.
func diff(want, got run, inOrder bool) string {
	if len(got.rows) != len(want.rows) {
		return fmt.Sprintf("%d rows, want %d", len(got.rows), len(want.rows))
	}
	for i, op := range got.ops {
		if op != want.ops[i] {
			return fmt.Sprintf("operator %d (ActMillis, ActCardinality) = %v, want %v", i, op, want.ops[i])
		}
	}
	if got.stats != want.stats {
		return fmt.Sprintf("aggregate stats %+v, want %+v", got.stats, want.stats)
	}
	var wSum, gSum uint64
	for i, row := range want.rows {
		wSum += rowHash(row)
		gSum += rowHash(got.rows[i])
		for j := 0; inOrder && j < len(row); j++ {
			if !sameCell(row[j], got.rows[i][j]) {
				return fmt.Sprintf("row %d col %d is %v, want %v", i, j, got.rows[i][j], row[j])
			}
		}
	}
	if wSum != gSum {
		return "a different row multiset"
	}
	return ""
}

// sameCell reports whether two result cells are the same stored value (every
// engine reads the same base rows, so representation equality is the test;
// NaN is itself).
func sameCell(a, b catalog.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && (a.F == b.F || (a.F != a.F && b.F != b.F))
}

// rowHash folds a row into one number, for order-free multiset comparison.
func rowHash(row storage.Row) uint64 {
	h := uint64(len(row))
	for _, v := range row {
		h = v.KeyHash(h + uint64(v.K))
	}
	return h
}

// TestDifferentialRandomPlans is the generated defence of the executor's
// invariants: seeded random plans (random join order, join methods and access
// paths from internal/randplan) over the 1–4-join shapes of tpcds.Queries(),
// a third of them with ORDER BY and a third with GROUP BY added. Each run must
// return exactly what testdata/differential.json froze for the plan — the
// rows in order, every operator's ActMillis and ActCardinality bit for bit,
// all of RunStats — and a plan the file does not know fails the suite (a
// changed generator needs -update). The reference that needs no second
// engine: every plan of one query text must return the same row multiset and
// ORDER BY key sequence as the first plan of it the suite met; most query
// texts recur under several plans.
//
// Every plan then runs again on the executor that just ran it — on the chunks
// the first run handed back to the arena pools — and a third time while a
// second cursor over the same plan sits half-drained, holding chunks of its
// own; the second cursor is drained afterwards. Each must be indistinguishable
// from the first run: a tuple read after its arena was released, or a chunk
// two executions both think they own, shows up as a wrong row or charge. An
// early Close after a random row is followed at once by a full run of the
// previous plan for the same reason. (CI repeats a prefix of the suite under
// GOGC=1, where a collection between almost every allocation keeps emptying
// the pools.)
//
// A tenth as many plans again run over keyFamilies: joins whose keys are not
// read from a key-word vector — string keys, two-column keys, and numeric
// columns with one string in the middle of the table — so the paths that
// still go through the rows are generated too, not hand-picked.
func TestDifferentialRandomPlans(t *testing.T) {
	db, opt, _ := setup(t)
	shapes := tpcdsShapes()
	plans := differentialPlans
	if testing.Short() {
		plans = 200
	}
	differentialSuite(t, "tpcds", db, opt, shapes, plans)
	db, opt, shapes = keyFamilies(t)
	differentialSuite(t, "key families", db, opt, shapes, plans/10)
}

// differentialSuite runs the given number of random plans over the query
// shapes through TestDifferentialRandomPlans's comparisons.
func differentialSuite(t *testing.T, name string, db *storage.Database, opt *optimizer.Optimizer, shapes []*sqlparser.Query, plans int) {
	ex := New(db)
	const seed = 20190122
	rng := rand.New(rand.NewSource(seed))
	gen := randplan.New(opt, seed)

	ordered, grouped := 0, 0
	pathsBefore := loadIndexPaths()
	// The first answer met for each query text, and how many plans were
	// checked against an earlier, different plan of their query.
	answers, crossPlan := map[string]answer{}, 0
	var prev struct {
		q    *sqlparser.Query
		plan *qgm.Plan
		ser  run
	}
	for n := 0; n < plans; {
		q, plan, orderKeys := randomCase(t, rng, gen, opt, shapes)
		if plan == nil {
			continue
		}
		ser := execute(t, ex, plan, q)
		if tooMuchWork(ser) {
			continue
		}
		n++
		if len(q.OrderBy) > 0 {
			ordered++
		}
		if len(q.GroupBy) > 0 {
			grouped++
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s plan #%d, %s\n%s\n%s", name, n, q.SQL(), qgm.Format(plan), fmt.Sprintf(format, args...))
		}
		key := planKey(name, q, plan)
		if _, d := frozenCheck(t, key, freeze(ser)); d != "" {
			fail("serial: %s", d)
		}
		// Every plan of one query text answers alike.
		a := answer{plan: key, rows: len(ser.rows), multiset: multiset(ser.rows), order: orderSequence(ser.rows, orderKeys)}
		if first, seen := answers[q.SQL()]; !seen {
			answers[q.SQL()] = a
		} else if first.plan != key {
			crossPlan++
			if a.rows != first.rows || a.multiset != first.multiset || a.order != first.order {
				fail("%d rows (multiset %016x, ORDER BY keys %016x); the earlier plan %s returned %d rows (%016x, %016x)",
					a.rows, a.multiset, a.order, first.plan, first.rows, first.multiset, first.order)
			}
		}

		// Recycled chunks: the same executor again, then once more beside a
		// half-drained second cursor that is finished last.
		if d := diff(ser, execute(t, ex, plan, q), true); d != "" {
			fail("second run on recycled chunks: %s", d)
		}
		otherPlan := plan.Clone()
		other, err := ex.Open(otherPlan, q)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		var head []storage.Row
		for i := 0; i < len(ser.rows)/2; i++ {
			row, ok := other.Next()
			if !ok {
				fail("second cursor exhausted after %d of %d rows", i, len(ser.rows))
			}
			head = append(head, row)
		}
		if d := diff(ser, execute(t, ex, plan, q), true); d != "" {
			fail("run beside a half-drained cursor: %s", d)
		}
		if d := diff(ser, drain(other, otherPlan, head), true); d != "" {
			fail("cursor drained after another execution finished: %s", d)
		}

		cur, err := ex.Open(plan, q)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for stop := rng.Intn(len(ser.rows) + 1); stop > 0; stop-- {
			if _, ok := cur.Next(); !ok {
				fail("cursor exhausted %d rows early", stop)
			}
		}
		cur.Close()
		// What the cut-short execution released is reused at once, by a
		// different plan.
		if prev.plan != nil {
			if d := diff(prev.ser, execute(t, ex, prev.plan, prev.q), true); d != "" {
				fail("the previous plan, run right after this one's early Close: %s", d)
			}
		}
		prev.q, prev.plan, prev.ser = q, plan, ser
	}
	paths := loadIndexPaths().sub(pathsBefore)
	t.Logf("%s, %d plans: %d ordered, %d grouped, %d checked against another plan of their query; "+
		"%d join executions answered from an index, %d of them switched to a build; %d inners counted from an index",
		name, plans, ordered, grouped, crossPlan, paths.answered, paths.switched, paths.counted)
	if ordered < plans/5 || grouped < plans/5 || crossPlan < plans/10 {
		t.Errorf("%s: the suite lost coverage: %d of %d plans ordered, %d grouped, %d checked against another plan",
			name, plans, ordered, grouped, crossPlan)
	}
	if f := indexFloor[name]; float64(paths.answered) < f.answered*float64(plans) || float64(paths.switched) < f.switched*float64(plans) ||
		float64(paths.counted) < f.counted*float64(plans) {
		t.Errorf("%s: the suite lost coverage: %d join executions over %d plans answered from an index, %d switched to a build, %d inners counted; the floors are %+v per plan",
			name, paths.answered, plans, paths.switched, paths.counted, f)
	}
}

// indexFloor is, per suite, how many join executions per plan must have been
// answered from an index, how many of them switched to a build, and how many
// counted their inner from an index: a sixth or so of what the whole suite
// counts (tpcds 3.82, 2.22 and 2.26, key families 0.60, 0.39 and 0.60, every
// execution of a plan counted).
var indexFloor = map[string]struct{ answered, switched, counted float64 }{
	"tpcds": {0.6, 0.33, 0.35}, "key families": {0.08, 0.05, 0.08},
}

// answer is what every plan of one query text must return alike.
type answer struct {
	plan            string // planKey of the plan that answered first
	rows            int
	multiset, order uint64
}

// multiset folds the rows into one number regardless of their order.
func multiset(rows []storage.Row) (sum uint64) {
	for _, row := range rows {
		sum += rowHash(row)
	}
	return sum
}

// orderSequence hashes the first k cells of every row, in order: the ORDER BY
// key sequence when the query orders by its first k projected columns.
func orderSequence(rows []storage.Row, k int) uint64 {
	keys := make([]storage.Row, len(rows))
	for i, row := range rows {
		keys[i] = row[:k]
	}
	return rowsHash(keys)
}

// tpcdsShapes is the 1–4-join queries of tpcds.Queries() with a projection.
func tpcdsShapes() (shapes []*sqlparser.Query) {
	for _, q := range tpcds.Queries() {
		if joins := len(q.From) - 1; joins >= 1 && joins <= 4 && !q.Star && len(q.Select) > 0 {
			shapes = append(shapes, q)
		}
	}
	return shapes
}

// randomCase draws the suite's next case: one of the shapes, a third of the
// time with an ORDER BY (orderKeys of the projected columns) and a third with
// a GROUP BY added, and a random plan for it — nil when the random combination
// is invalid and the caller should draw again.
func randomCase(t *testing.T, rng *rand.Rand, gen *randplan.Generator, opt *optimizer.Optimizer, shapes []*sqlparser.Query) (q *sqlparser.Query, plan *qgm.Plan, orderKeys int) {
	t.Helper()
	q = shapes[rng.Intn(len(shapes))].Clone()
	switch rng.Intn(3) {
	case 1: // ORDER BY one or two of the projected columns
		orderKeys = 1 + rng.Intn(min(2, len(q.Select)))
		rng.Shuffle(len(q.Select), func(i, j int) { q.Select[i], q.Select[j] = q.Select[j], q.Select[i] })
		q.OrderBy = append([]sqlparser.ColumnRef{}, q.Select[:orderKeys]...)
	case 2: // GROUP BY a projected column, projecting only the group key
		q.Select = []sqlparser.ColumnRef{q.Select[rng.Intn(len(q.Select))]}
		q.GroupBy = append([]sqlparser.ColumnRef{}, q.Select...)
	}
	spec, err := gen.RandomSpec(q)
	if err != nil {
		t.Fatalf("RandomSpec: %v", err)
	}
	plan, err = opt.BuildPlan(q, spec)
	if err != nil {
		return q, nil, 0
	}
	return q, plan, orderKeys
}

// tooMuchWork applies maxDifferentialWork to a serial run.
func tooMuchWork(ser run) bool {
	work := 0.0
	for _, op := range ser.ops {
		work += op[1]
	}
	return work > maxDifferentialWork
}

// keyFamilies is a database, and join shapes over it, whose join keys the
// executor cannot read from a key-word vector alone: a fact table FT and
// dimensions DT and ET, sharing a
// string code (x_code), a two-column key (x_a, x_b), a numeric key (x_num) and
// a numeric column holding one string in the middle of the table (x_mix: no
// vector, and a build over it stops being exact mid-drain). Every key column
// holds NULLs, keys that match several rows and keys that match none.
func keyFamilies(t *testing.T) (*storage.Database, *optimizer.Optimizer, []*sqlparser.Query) {
	t.Helper()
	schema := catalog.NewSchema("KEYS")
	sizes := map[string]int{"F": 2400, "D": 64, "E": 32}
	for _, p := range []string{"F", "D", "E"} {
		table := catalog.NewTable(p+"T",
			catalog.Column{Name: p + "_id", Type: catalog.KindInt},
			catalog.Column{Name: p + "_code", Type: catalog.KindString},
			catalog.Column{Name: p + "_a", Type: catalog.KindInt},
			catalog.Column{Name: p + "_b", Type: catalog.KindInt},
			catalog.Column{Name: p + "_num", Type: catalog.KindInt},
			catalog.Column{Name: p + "_mix", Type: catalog.KindInt},
			catalog.Column{Name: p + "_val", Type: catalog.KindInt},
		)
		for _, col := range []string{"_code", "_num"} {
			if err := table.AddIndex(catalog.Index{Name: p + col + "_IDX", Columns: []string{p + col}, ClusterRatio: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		schema.AddTable(table)
	}
	db := storage.NewDatabase(catalog.New(schema))
	rng := rand.New(rand.NewSource(53))
	for _, p := range []string{"F", "D", "E"} {
		n := sizes[p]
		for i := 0; i < n; i++ {
			// A dimension cycles through seven eighths as many keys as it has rows
			// (so a few match twice); the fact table draws from 70, more than either.
			k := int64(i % (n - n/8))
			if p == "F" {
				k = int64(rng.Intn(70))
			}
			row := storage.Row{
				catalog.Int(int64(i)), catalog.String(fmt.Sprintf("c%02d", k)),
				catalog.Int(k % 8), catalog.Int(k / 8), catalog.Int(k), catalog.Int(k), catalog.Int(int64(rng.Intn(1000))),
			}
			if i == n/2 {
				row[5] = catalog.String(fmt.Sprint(k))
			}
			if c := 1 + rng.Intn(40); c <= 5 {
				row[c] = catalog.Null()
			}
			if err := db.Insert(p+"T", row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := storage.AnalyzeAll(db, storage.AnalyzeOptions{Histograms: true}); err != nil {
		t.Fatal(err)
	}
	var shapes []*sqlparser.Query
	for _, sql := range []string{
		`SELECT f_id, d_val, f_code FROM ft, dt WHERE f_code = d_code`,
		`SELECT f_val, d_id, e_id FROM ft, dt, et WHERE f_code = d_code AND d_code = e_code AND f_val < 600`,
		`SELECT f_id, d_val FROM ft, dt WHERE f_a = d_a AND f_b = d_b`,
		`SELECT f_id, d_id, f_val FROM ft, dt WHERE f_code = d_code AND f_a = d_a AND f_val > 300`,
		`SELECT d_id, e_val, e_a FROM dt, et, ft WHERE d_a = e_a AND d_b = e_b AND f_a = d_a AND f_b = d_b AND f_val < 400`,
		`SELECT f_id, d_val FROM ft, dt WHERE f_mix = d_num`,
		`SELECT f_val, d_id FROM ft, dt WHERE f_num = d_mix`,
		`SELECT f_id, d_id, f_val FROM ft, dt WHERE f_mix = d_mix AND f_val < 800`,
		`SELECT f_id, d_val, e_id FROM ft, dt, et WHERE f_mix = d_mix AND d_num = e_mix`,
	} {
		shapes = append(shapes, sqlparser.MustParse(sql))
	}
	return db, optimizer.New(db.Catalog, optimizer.DefaultOptions()), shapes
}

// TestJoinKeyEqualityMatchesMaterialize joins two tables whose key columns
// hold every awkward value — ±0, NaN, NULL, and 3 as an integer, a float, a
// date and a string — on one and on two key columns, with every join method,
// and requires the chained index to pair exactly as many rows as brute force
// over catalog.KeyEqual counts, and exactly the rows frozen while the
// materializing engine's Key()-string map paired the same.
func TestJoinKeyEqualityMatchesMaterialize(t *testing.T) {
	db, opt := keyTables(t, awkwardKeys, awkwardKeys)

	cases := []struct {
		name string
		sql  string
		cols int
	}{
		{"one-column", `SELECT l_id, r_id FROM lt, rt WHERE l_k1 = r_k1`, 1},
		{"two-column", `SELECT l_id, r_id FROM lt, rt WHERE l_k1 = r_k1 AND l_k2 = r_k2`, 2},
	}
	for _, tc := range cases {
		want := 0
		for _, l := range db.Table("LT").Rows {
			for _, r := range db.Table("RT").Rows {
				if catalog.KeyEqual(l[0], r[0]) && (tc.cols == 1 || catalog.KeyEqual(l[1], r[1])) {
					want++
				}
			}
		}
		for _, method := range []qgm.OpType{qgm.OpHSJOIN, qgm.OpMSJOIN, qgm.OpNLJOIN} {
			t.Run(tc.name+"/"+string(method), func(t *testing.T) {
				q := sqlparser.MustParse(tc.sql)
				spec := optimizer.Join(method, optimizer.Leaf("LT"), optimizer.Leaf("RT"))
				stream, _, _ := assertFrozen(t, db, opt, q, spec)
				if stream.Rows != want {
					t.Errorf("join produced %d rows, brute force over KeyEqual says %d", stream.Rows, want)
				}
			})
		}
	}
}

// awkwardKeys holds every value join-key equality has a special rule for.
var awkwardKeys = []catalog.Value{
	catalog.Float(0), catalog.Float(math.Copysign(0, -1)), catalog.Float(math.NaN()), catalog.Null(),
	catalog.Int(3), catalog.Float(3), catalog.DateFromDays(3), catalog.String("3"),
}

// keyTables builds tables LT(l_k1, l_k2, l_id) and RT(r_k1, r_k2, r_id), each
// holding every pair of its side's keys. Each column named in indexed ("k1",
// "k2") gets a single-column index on both sides, L_K1_IDX and R_K1_IDX.
func keyTables(t *testing.T, left, right []catalog.Value, indexed ...string) (*storage.Database, *optimizer.Optimizer) {
	t.Helper()
	schema := catalog.NewSchema("K")
	for _, side := range []string{"L", "R"} {
		table := catalog.NewTable(side+"T",
			catalog.Column{Name: side + "_k1", Type: catalog.KindFloat},
			catalog.Column{Name: side + "_k2", Type: catalog.KindFloat},
			catalog.Column{Name: side + "_id", Type: catalog.KindInt},
		)
		for _, col := range indexed {
			if err := table.AddIndex(catalog.Index{Name: side + "_" + col + "_IDX", Columns: []string{side + "_" + col}}); err != nil {
				t.Fatal(err)
			}
		}
		schema.AddTable(table)
	}
	db := storage.NewDatabase(catalog.New(schema))
	id := int64(0)
	for i, keys := range [][]catalog.Value{left, right} {
		side := []string{"LT", "RT"}[i]
		for _, k1 := range keys {
			for _, k2 := range keys {
				id++
				if err := db.Insert(side, storage.Row{k1, k2, catalog.Int(id)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := storage.AnalyzeAll(db, storage.AnalyzeOptions{Histograms: true}); err != nil {
		t.Fatal(err)
	}
	return db, optimizer.New(db.Catalog, optimizer.DefaultOptions())
}

// TestExactIndexAndItsFallback pins how the build index addresses a key, and
// that it pairs the same rows every way. It is exact for a single key column
// holding no string: a numeric build probed by numbers, and the same build
// probed by a column that also holds a string (which equals nothing in it); a
// build column with one string among its numbers must fall back to hash +
// KeyEqual. An exact key of integers is addressed densely (denseRange): a build
// around zero with −0 and a NULL, and one up to 2^53−1, probed by 2.5, −0,
// ±Inf, NaN, NULL, 2^53, 2^53+1 and a key past either end of the span; and a
// build spanning exactly its bound, whose twin one integer wider stays hashed.
// Each against brute force over catalog.KeyEqual and its frozen answer, and
// denseAddressed must show how the build and the counted root's pairs tally
// were addressed.
func TestExactIndexAndItsFallback(t *testing.T) {
	const two53 = int64(1) << 53
	numeric := append([]catalog.Value{
		catalog.Int(two53), catalog.Int(two53 + 1), catalog.Float(float64(two53)),
		catalog.Float(math.Inf(1)), catalog.Float(math.Inf(-1)), {K: catalog.KindBool, I: 1}, catalog.Int(1),
	}, awkwardKeys[:len(awkwardKeys)-1]...)
	negZero := catalog.Float(math.Copysign(0, -1))
	edges := []catalog.Value{catalog.Float(2.5), negZero, catalog.Float(math.Inf(1)), catalog.Float(math.Inf(-1)),
		catalog.Float(math.NaN()), catalog.Null(), catalog.Int(two53), catalog.Int(two53 + 1)}
	ints := func(keys ...int64) []catalog.Value {
		vs := make([]catalog.Value, len(keys))
		for i, k := range keys {
			vs[i] = catalog.Int(k)
		}
		return vs
	}
	cases := []struct {
		name                string
		left, right         []catalog.Value
		exact, dense, tally bool // the build index exact, dense; the pairs tally dense
	}{
		{"numeric build, numeric probes", numeric, numeric, true, false, false},
		{"numeric build, a string among the probes", awkwardKeys, numeric, true, false, false},
		{"one string in the build column", numeric, awkwardKeys, false, false, false},
		{"dense build around zero", append(ints(-3, -2, 1, 2, 3), edges...),
			[]catalog.Value{catalog.Int(-2), negZero, catalog.Null(), catalog.Int(1), catalog.DateFromDays(2), catalog.Float(-1)},
			true, true, true},
		{"dense build up to 2^53-1", append(ints(two53-4, two53-1), edges...),
			[]catalog.Value{catalog.Int(two53 - 3), catalog.Float(float64(two53 - 2)), catalog.Null(), catalog.Int(two53 - 1)},
			true, true, true},
		// Four keys: 16 build rows, 32 buckets, a dense span of at most 64.
		{"build spanning the dense bound", ints(-1, 0, 32, 63, 64), ints(0, 1, 2, 63), true, true, true},
		{"build one past the dense bound", ints(-1, 0, 32, 63, 64, 65), ints(0, 1, 2, 64), true, false, true},
	}
	for _, tc := range cases {
		db, opt := keyTables(t, tc.left, tc.right)
		want := 0
		for _, l := range db.Table("LT").Rows {
			for _, r := range db.Table("RT").Rows {
				if catalog.KeyEqual(l[0], r[0]) {
					want++
				}
			}
		}
		for _, method := range []qgm.OpType{qgm.OpHSJOIN, qgm.OpMSJOIN, qgm.OpNLJOIN} {
			t.Run(tc.name+"/"+string(method), func(t *testing.T) {
				q := sqlparser.MustParse(`SELECT l_id, r_id FROM lt, rt WHERE l_k1 = r_k1`)
				builds, tallies := denseAddressed.builds.Load(), denseAddressed.tallies.Load()
				stream, _, _ := assertFrozen(t, db, opt, q, optimizer.Join(method, optimizer.Leaf("LT"), optimizer.Leaf("RT")))
				if stream.Rows != want {
					t.Errorf("join produced %d rows, brute force over KeyEqual says %d", stream.Rows, want)
				}
				builds, tallies = denseAddressed.builds.Load()-builds, denseAddressed.tallies.Load()-tallies
				if (builds > 0) != tc.dense || (tallies > 0) != tc.tally {
					t.Errorf("%d builds and %d pairs tallies addressed densely; want a dense build %v, a dense tally %v",
						builds, tallies, tc.dense, tc.tally)
				}
			})
		}
		// The same build side, indexed directly: which index did it get?
		mem := new(arena)
		lay := slotList{{ncols: 3, rows: db.Table("RT").Rows, table: db.Table("RT")}}
		ids := rowIDs(len(db.Table("RT").Rows))
		for ncols, exact := range map[int]bool{1: tc.exact, 2: false} {
			key := lay.refs([]column{{0, 0}, {0, 1}}[:ncols])
			b := newHashBuild(mem, key, key, 1)
			if vector := b.buildWords != nil; vector != (ncols == 1 && tc.exact) {
				t.Errorf("%s, %d key column(s): key-word vector present = %v", tc.name, ncols, vector)
			}
			for i := range db.Table("RT").Rows {
				b.add(ids[i : i+1])
			}
			if b.exact != exact {
				t.Errorf("%s, %d key column(s): exact index = %v, want %v", tc.name, ncols, b.exact, exact)
			}
			if b.index(); b.dense != (exact && tc.dense) {
				t.Errorf("%s, %d key column(s): dense index = %v, want %v", tc.name, ncols, b.dense, exact && tc.dense)
			}
		}
		mem.release()
	}
}

// TestEarlyOutBoundBeyondTwo53 holds the MSJOIN early-out bound to
// catalog.Compare where key words stop telling values apart: 2^53 and 2^53+1
// share a word (and tie under Compare, so whichever is drained first stays the
// bound), yet a string probe is compared with the bound's string form and
// tells them apart. With the build column in either insertion order — the
// bound kept by word and ordinal, its value read once — the count of outer
// rows within the bound, read back from the MSJOIN's charge, must be brute
// force's over the bound Compare keeps, and everything must be the frozen
// answer. Numeric-only probes are counted by their words.
func TestEarlyOutBoundBeyondTwo53(t *testing.T) {
	const two53 = int64(1) << 53
	lo, hi := catalog.Int(two53), catalog.Int(two53+1)
	probes := map[string][]catalog.Value{
		"string probes": {catalog.Int(1), lo, catalog.String("9007199254740993"), catalog.String("9007199254740992"),
			catalog.Float(float64(two53) + 2), catalog.Null()},
		"numeric probes": {catalog.Int(1), lo, hi, catalog.Float(float64(two53) + 2), catalog.Float(math.NaN()), catalog.Null()},
	}
	counts := map[string][]int{}
	for name, left := range probes {
		for _, right := range [][]catalog.Value{{catalog.Int(5), lo, hi}, {catalog.Int(5), hi, lo}} {
			bound := right[1] // the first drained of the two that tie
			t.Run(fmt.Sprintf("%s/bound %d", name, bound.AsInt()), func(t *testing.T) {
				db, opt := keyTables(t, left, right)
				if vector := db.Table("LT").KeyWords(0) != nil; vector != (name == "numeric probes") {
					t.Fatalf("%s: probe column has a key-word vector = %v", name, vector)
				}
				q := sqlparser.MustParse(`SELECT l_id, r_id FROM lt, rt WHERE l_k1 = r_k1`)
				spec := optimizer.Join(qgm.OpMSJOIN, optimizer.Leaf("LT"), optimizer.Leaf("RT"))
				assertFrozen(t, db, opt, q, spec)

				plan, err := opt.BuildPlan(q, spec)
				if err != nil {
					t.Fatal(err)
				}
				res, err := New(db).Execute(plan, q)
				if err != nil {
					t.Fatal(err)
				}
				within := 0
				for _, l := range db.Table("LT").Rows {
					if catalog.Compare(l[0], bound) <= 0 {
						within++
					}
				}
				counts[name] = append(counts[name], within)
				outer, inner := float64(len(db.Table("LT").Rows)), float64(len(db.Table("RT").Rows))
				cost := db.Catalog.Config.RunCost()
				want := cost.MergeJoin(math.Min(float64(within)+1, outer), inner, float64(len(res.Rows)))
				for _, op := range plan.Operators() {
					if op.Op == qgm.OpMSJOIN && op.ActMillis != want {
						t.Errorf("%s, bound %v: MSJOIN charged %v, %d outer rows within the bound charge %v", name, bound, op.ActMillis, within, want)
					}
				}
			})
		}
	}
	if c := counts["string probes"]; len(c) == 2 && c[0] == c[1] {
		t.Errorf("string probes count %d rows within either bound: the case does not tell 2^53 from 2^53+1", c[0])
	}
}
