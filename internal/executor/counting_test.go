package executor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"galo/internal/catalog"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/randplan"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/tpcds"
)

// TestRunCountsWhatExecuteEmits holds the counting root (countRows) to the
// drain it stands in for, over the seeded random plans of
// TestDifferentialRandomPlans — both suites, the same sequence:
//
//   - Prepared.Run books what Prepared.Execute books: all of RunStats and
//     every operator's ActMillis (as bits) and ActCardinality;
//   - RunBounded at budgets of 0 and ¼, ½ and ¾ of the plan's unbounded
//     ElapsedMillis books what a run opened under that budget and drained
//     through its root's Next books (drainedRun), Aborted included.
//
// The hand-picked cases of assertFrozen are checked the same way
// (checkCounting). A path silently not taken proves nothing, so the suite
// fails when fewer runs than a floor took the counting root (countingFloor).
func TestRunCountsWhatExecuteEmits(t *testing.T) {
	plans := differentialPlans
	if testing.Short() {
		plans = 200
	}
	db, opt, _ := setup(t)
	countingSuite(t, "tpcds", db, opt, tpcdsShapes(), plans)
	db, opt, shapes := keyFamilies(t)
	countingSuite(t, "key families", db, opt, shapes, plans/10)
}

// countingFloor is, per suite, how many runs per plan must have taken the
// counting root, how many joins per plan those runs must have walked (walk),
// and how many build indexes and pairs tallies per plan the suite's runs must
// have addressed densely (denseAddressed): a fifth or so of what the whole
// tpcds suite does (1.31 of its 5 runs of a plan count their root, walking
// 0.37 joins; 7.7 builds and 0.21 tallies are dense). The key families join on
// keys read through the rows — a string, two columns, a column holding one
// string — which never count, so theirs is a ceiling of none for the counted
// paths; the numeric column some of them probe with such a key is built
// densely (1.3 per plan).
var countingFloor = map[string]struct{ roots, walks, builds, tallies float64 }{
	"tpcds": {0.25, 0.06, 1.5, 0.04}, "key families": {builds: 0.25},
}

// countingSuite draws the plans differentialSuite draws, consuming the
// generator alike, and checks each as TestRunCountsWhatExecuteEmits says.
func countingSuite(t *testing.T, name string, db *storage.Database, opt *optimizer.Optimizer, shapes []*sqlparser.Query, plans int) {
	const seed = 20190122
	rng := rand.New(rand.NewSource(seed))
	gen := randplan.New(opt, seed)
	ex := New(db)
	prepared := map[string]*Prepared{}
	counted, walked := rootsCounted.Load(), drainsWalked.Load()
	builds, tallies := denseAddressed.builds.Load(), denseAddressed.tallies.Load()
	for n := 0; n < plans; {
		q, plan, _ := randomCase(t, rng, gen, opt, shapes)
		if plan == nil {
			continue
		}
		p := prepared[q.SQL()]
		if p == nil {
			var err error
			if p, err = ex.Prepare(q); err != nil {
				t.Fatalf("Prepare: %v", err)
			}
			prepared[q.SQL()] = p
		}
		res, err := p.Execute(plan)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		want := run{ops: actuals(plan), stats: res.Stats}
		if tooMuchWork(want) {
			continue
		}
		n++
		rng.Intn(res.Stats.Rows + 1) // the differential suite's early Close
		if d := checkCounting(p, plan, want); d != "" {
			t.Fatalf("%s plan #%d, %s\n%s\n%s", name, n, q.SQL(), qgm.Format(plan), d)
		}
	}
	got, gotWalked := rootsCounted.Load()-counted, drainsWalked.Load()-walked
	builds, tallies = denseAddressed.builds.Load()-builds, denseAddressed.tallies.Load()-tallies
	t.Logf("%s, %d plans: %d runs counted their root, walking %d joins; %d builds and %d tallies addressed densely",
		name, plans, got, gotWalked, builds, tallies)
	switch f := countingFloor[name]; {
	case f.roots == 0 && got+gotWalked+tallies > 0:
		t.Errorf("%s: %d runs counted a root whose key is read through the rows, walking %d joins and tallying %d densely",
			name, got, gotWalked, tallies)
	case float64(got) < f.roots*float64(plans):
		t.Errorf("%s: the suite lost coverage: %d runs over %d plans counted their root; the floor is %v per plan", name, got, plans, f.roots)
	case float64(gotWalked) < f.walks*float64(plans):
		t.Errorf("%s: the suite lost coverage: %d joins over %d plans were walked; the floor is %v per plan", name, gotWalked, plans, f.walks)
	case float64(builds) < f.builds*float64(plans) || float64(tallies) < f.tallies*float64(plans):
		t.Errorf("%s: the suite lost coverage: %d builds and %d tallies over %d plans were addressed densely; the floor is %v and %v per plan",
			name, builds, tallies, plans, f.builds, f.tallies)
	}
}

// TestRunWalksFig8Plans holds one hand-picked plan of each shape a counting
// run walks to what Execute books (checkCounting), over the wide-range Figure
// 8 query, and pins how many joins its Run walks and which index paths it
// takes:
//
//   - the original plan: the NLJOIN root counts, walking the early-out MSJOIN
//     below it, whose matches are runs of SS_SOLD_DATE_IDX;
//   - GALO's rewrite: the root HSJOIN walks the HSJOIN below it, whose bare
//     FETCH outer probes index runs of the STORE_SALES table scan;
//   - STORE_SALES scanned into DATE_DIM: the inner HSJOIN answers two probes
//     from D_DATE_SK, switches to a build, and walks its bare TBSCAN outer
//     into that build.
func TestRunWalksFig8Plans(t *testing.T) {
	db, opt, ex := setup(t)
	fig8 := tpcds.Fig8WideQuery(db)
	p, err := ex.Prepare(fig8)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	original, rewritten, outerScan := fig8Specs()
	cases := []struct {
		name   string
		spec   *optimizer.Spec
		walked int64
		paths  indexPaths
	}{
		{"original-index-run", original, 1, indexPaths{1, 0, 1}},
		{"rewritten", rewritten, 1, indexPaths{1, 0, 1}},
		{"tbscan-outer-into-build", outerScan, 1, indexPaths{1, 1, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := opt.BuildPlan(fig8, tc.spec)
			if err != nil {
				t.Fatalf("BuildPlan: %v", err)
			}
			res, err := p.Execute(plan)
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			want := run{ops: actuals(plan), stats: res.Stats}
			roots, walked, paths := rootsCounted.Load(), drainsWalked.Load(), loadIndexPaths()
			if _, err := p.Run(plan); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if n := rootsCounted.Load() - roots; n != 1 {
				t.Errorf("Run counted %d roots, want 1", n)
			}
			if n := drainsWalked.Load() - walked; n != tc.walked {
				t.Errorf("Run walked %d joins, want %d", n, tc.walked)
			}
			assertIndexPaths(t, tc.paths, loadIndexPaths().sub(paths))
			if d := checkCounting(p, plan, want); d != "" {
				t.Errorf("%s\n%s", qgm.Format(plan), d)
			}
		})
	}
}

// fig8Specs returns the plans of TestRunWalksFig8Plans, as specs of the
// wide-range Figure 8 query: the plan the stale statistics pick (an NLJOIN
// over an early-out MSJOIN), GALO's rewrite (hash joins over a table scan),
// and STORE_SALES scanned into DATE_DIM below the join with ITEM.
func fig8Specs() (original, rewritten, outerScan *optimizer.Spec) {
	hash := func(outer, inner *optimizer.Spec) *optimizer.Spec { return optimizer.Join(qgm.OpHSJOIN, outer, inner) }
	items := optimizer.LeafAccess("ITEM", qgm.OpFETCH, "I_CATEGORY_IDX")
	sales := optimizer.LeafAccess("STORE_SALES", qgm.OpTBSCAN, "")
	dates := optimizer.LeafAccess("DATE_DIM", qgm.OpIXSCAN, "D_DATE_SK")
	original = optimizer.Join(qgm.OpNLJOIN,
		optimizer.Join(qgm.OpMSJOIN, dates, optimizer.LeafAccess("STORE_SALES", qgm.OpFETCH, "SS_SOLD_DATE_IDX")),
		optimizer.LeafAccess("ITEM", qgm.OpFETCH, "I_ITEM_SK_IDX"))
	return original, hash(hash(items, sales), dates), hash(hash(sales, dates), items)
}

// checkCounting describes the first way the runs of the plan through p differ
// from what they must book ("" when none does): Run books want, what Execute
// booked, and RunBounded at budgets of 0, ¼, ½ and ¾ of want's ElapsedMillis
// books what drainedRun does under the same budget.
func checkCounting(p *Prepared, plan *qgm.Plan, want run) string {
	stats, err := p.Run(plan)
	if err != nil {
		return fmt.Sprintf("Run: %v", err)
	}
	if d := sameBits(want, run{ops: actuals(plan), stats: stats}); d != "" {
		return "Run against Execute: " + d
	}
	for _, f := range []float64{0, 0.25, 0.5, 0.75} {
		budget := f * want.stats.ElapsedMillis
		stats, err := drainedRun(p, plan, budget)
		if err != nil {
			return fmt.Sprintf("drainedRun: %v", err)
		}
		drained := run{ops: actuals(plan), stats: stats}
		if stats, err = p.RunBounded(plan, budget); err != nil {
			return fmt.Sprintf("RunBounded: %v", err)
		}
		if d := sameBits(drained, run{ops: actuals(plan), stats: stats}); d != "" {
			return fmt.Sprintf("RunBounded at %v of %v against the drain: %s", budget, want.stats.ElapsedMillis, d)
		}
	}
	return ""
}

// drainedRun is RunBounded as it was before the counting root: the plan
// opened under the budget and its root drained through Next.
func drainedRun(p *Prepared, plan *qgm.Plan, budgetMillis float64) (RunStats, error) {
	cur, err := p.open(plan, budgetMillis)
	if err != nil {
		return RunStats{}, err
	}
	for _, ok := cur.root.Next(); ok; _, ok = cur.root.Next() {
		cur.rows++
	}
	cur.finish()
	return cur.Stats(), nil
}

// sameBits compares two runs' RunStats and every operator's ActMillis, as
// bits, and ActCardinality.
func sameBits(want, got run) string {
	if want.stats != got.stats || math.Float64bits(want.stats.ElapsedMillis) != math.Float64bits(got.stats.ElapsedMillis) {
		return fmt.Sprintf("stats %+v, want %+v", got.stats, want.stats)
	}
	for i, op := range got.ops {
		if math.Float64bits(op[0]) != math.Float64bits(want.ops[i][0]) || op[1] != want.ops[i][1] {
			return fmt.Sprintf("operator %d (ActMillis, ActCardinality) = %v, want %v", i, op, want.ops[i])
		}
	}
	return ""
}

// FuzzPairs holds buildIndex.pairs, the count of a counted root join, to a
// nested loop over the pairs of equal non-NULL words, on both of its tallies:
// integers of a narrow span, tallied by their offset from the least, and every
// other key set, tallied in the hashed table. The seeds take both.
func FuzzPairs(f *testing.F) {
	raw := func(v float64) []byte { return binary.LittleEndian.AppendUint64([]byte{0xf0}, math.Float64bits(v)) }
	f.Add([]byte{0x60, 0x61, 0x61, 0x62, 0xc0}, []byte{0x61, 0x62, 0x5f, 0xc2, 0xc3}) // dense, NULL and ±0
	f.Add([]byte{0xc1, 0xc2, 0xc4, 0xc5, 0x60}, []byte{0xc1, 0xc3, 0xc4, 0xc5, 0xca}) // NaN, ±Inf, 2.5
	f.Add([]byte{0xc6, 0xc7, 0xc8, 0xc9}, []byte{0xc7, 0xc8, 0xc9, 0xc6, 0xc6})       // 2^53−2 … 2^53+1
	f.Add([]byte{0xcb, 0x00, 0xc7}, []byte{0xcb, 0xc7, 0x00})                         // ±(2^53−1): too wide
	f.Add([]byte{0xcc, 0xcd, 0xef, 0x60}, []byte{0xcd, 0xef, 0xef, 0x10})             // sparse
	f.Add(append(raw(2.5), raw(-3)...), append(raw(-3), 0x5d, 0xf0))                  // any float
	f.Add([]byte{0xc0, 0xc0}, []byte{0xc0})                                           // NULL alone
	f.Add([]byte{}, []byte{0x60})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		left, right := pairsWords(a), pairsWords(b)
		want := 0
		for _, l := range left {
			for _, r := range right {
				if l == r && l != nullKeyWord {
					want++
				}
			}
		}
		// heads as a previous user may leave them: the tally must clear them.
		x := &buildIndex{words: slices.Concat(left, right), heads: []int32{7, 7, 7, 7}}
		if got := x.pairs(len(left)); got != want {
			t.Errorf("pairs of %x and %x = %d, a nested loop counts %d", left, right, got, want)
		}
	})
}

// pairsWords decodes key words from bytes, as catalog.Value.KeyWord gives
// them: a byte below 0xc0 is an integer of −96 to 95; 0xc0 to 0xcb are NULL,
// NaN, −0, +0, +Inf, −Inf, 2^53−2, 2^53−1, 2^53, 2^53+1, 2.5 and −(2^53−1);
// 0xcc to 0xef are multiples of 100 003; and a byte above is followed by a
// float's eight bytes (a short tail is dropped).
func pairsWords(data []byte) []uint64 {
	const two53 = int64(1) << 53
	awkward := []catalog.Value{catalog.Null(), catalog.Float(math.NaN()), catalog.Float(math.Copysign(0, -1)), catalog.Float(0),
		catalog.Float(math.Inf(1)), catalog.Float(math.Inf(-1)), catalog.Int(two53 - 2), catalog.Int(two53 - 1),
		catalog.Int(two53), catalog.Int(two53 + 1), catalog.Float(2.5), catalog.Int(1 - two53)}
	var words []uint64
	for len(data) > 0 {
		var v catalog.Value
		switch c := data[0]; {
		case c < 0xc0:
			v = catalog.Int(int64(c) - 0x60)
		case c < 0xcc:
			v = awkward[c-0xc0]
		case c < 0xf0:
			v = catalog.Int(int64(c-0xcc) * 100003)
		case len(data) > 8:
			v = catalog.Float(math.Float64frombits(binary.LittleEndian.Uint64(data[1:])))
			data = data[8:]
		default:
			return words
		}
		data = data[1:]
		w, _ := v.KeyWord()
		words = append(words, w)
	}
	return words
}
