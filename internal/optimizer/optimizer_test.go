package optimizer_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"galo/internal/catalog"
	"galo/internal/guideline"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/tpcds"
)

var testDB *storage.Database

func db(t *testing.T) *storage.Database {
	t.Helper()
	if testDB == nil {
		var err error
		testDB, err = tpcds.Generate(tpcds.GenOptions{Seed: 11, Scale: 0.15, Hazards: true})
		if err != nil {
			t.Fatalf("generate tpcds: %v", err)
		}
	}
	return testDB
}

func newOpt(t *testing.T) *optimizer.Optimizer {
	return optimizer.New(db(t).Catalog, optimizer.DefaultOptions())
}

func TestOptimizeFigure3Query(t *testing.T) {
	o := newOpt(t)
	plan, report, err := o.Optimize(tpcds.Fig3Query())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v\n%s", err, qgm.Format(plan))
	}
	if plan.NumJoins() != 2 {
		t.Errorf("NumJoins = %d, want 2", plan.NumJoins())
	}
	if plan.TotalCost <= 0 {
		t.Errorf("TotalCost = %v", plan.TotalCost)
	}
	inst := plan.TableInstances()
	if inst["Q1"] != "WEB_SALES" || inst["Q2"] != "ITEM" || inst["Q3"] != "DATE_DIM" {
		t.Errorf("instances = %v (should follow FROM order)", inst)
	}
	if !report.UsedDP && report.PlansConsidered == 0 {
		t.Errorf("report looks empty: %+v", report)
	}
	for _, op := range plan.Operators() {
		if op.EstCardinality < 1 {
			t.Errorf("operator %s has cardinality %v", op, op.EstCardinality)
		}
	}
}

func TestOptimizeEntireWorkload(t *testing.T) {
	o := newOpt(t)
	for _, q := range tpcds.Queries() {
		plan, _, err := o.Optimize(q)
		if err != nil {
			t.Fatalf("Optimize(%s): %v", q.Name, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("plan for %s invalid: %v", q.Name, err)
		}
		if len(plan.TableInstances()) != len(q.From) {
			t.Errorf("%s: plan covers %d instances, query has %d references",
				q.Name, len(plan.TableInstances()), len(q.From))
		}
	}
}

func TestOptimizeSingleTable(t *testing.T) {
	o := newOpt(t)
	plan, _, err := o.Optimize(sqlparser.MustParse(`SELECT i_item_desc FROM item WHERE i_category = 'Music'`))
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if plan.NumJoins() != 0 {
		t.Errorf("single table plan has joins")
	}
	if len(plan.Root.Scans()) != 1 {
		t.Errorf("expected one scan")
	}
}

func TestOptimizeErrors(t *testing.T) {
	o := newOpt(t)
	if _, _, err := o.Optimize(nil); err == nil {
		t.Errorf("nil query should fail")
	}
	if _, _, err := o.Optimize(sqlparser.MustParse("SELECT x FROM nonexistent")); err == nil {
		t.Errorf("unknown table should fail")
	}
}

func TestStaleStatsDistortEstimates(t *testing.T) {
	o := newOpt(t)
	plan := o.MustOptimize(sqlparser.MustParse(`SELECT cs_quantity FROM catalog_sales WHERE cs_quantity > 0`))
	scan := plan.Root.Scans()[0]
	actualRows := float64(db(t).RowCount(tpcds.CatalogSales))
	if scan.EstCardinality > actualRows*0.5 {
		t.Errorf("stale stats should make the optimizer underestimate: est=%v actual=%v",
			scan.EstCardinality, actualRows)
	}
}

func TestGroupByOrderByOperators(t *testing.T) {
	o := newOpt(t)
	plan := o.MustOptimize(sqlparser.MustParse(
		`SELECT i_category, i_class FROM item WHERE i_current_price > 10 GROUP BY i_category, i_class ORDER BY i_category`))
	var sawGrpby, sawSort bool
	plan.Root.Walk(func(n *qgm.Node) {
		if n.Op == qgm.OpGRPBY {
			sawGrpby = true
		}
		if n.Op == qgm.OpSORT {
			sawSort = true
		}
	})
	if !sawGrpby || !sawSort {
		t.Errorf("GRPBY/SORT missing: grpby=%v sort=%v\n%s", sawGrpby, sawSort, qgm.Format(plan))
	}
}

func TestGuidelineForcesJoinMethodAndOrder(t *testing.T) {
	o := newOpt(t)
	q := sqlparser.MustParse(`SELECT i_item_desc FROM web_sales, item
		WHERE ws_item_sk = i_item_sk AND i_category = 'Jewelry'`)
	base := o.MustOptimize(q)

	// Force an HSJOIN with ITEM (Q2) as the outer and WEB_SALES (Q1) as the
	// inner, both via table scans.
	doc := &guideline.Document{Guidelines: []*guideline.Element{{
		Op: guideline.ElemHSJOIN,
		Children: []*guideline.Element{
			{Op: guideline.ElemTBSCAN, TabID: "Q2"},
			{Op: guideline.ElemTBSCAN, TabID: "Q1"},
		},
	}}}
	constrained := optimizer.New(db(t).Catalog, optimizer.Options{JoinEnumDPLimit: 10, EnableBloomFilters: true, Guidelines: doc})
	plan, report, err := constrained.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize with guideline: %v", err)
	}
	if len(report.GuidelinesApplied) != 1 || len(report.GuidelinesIgnored) != 0 {
		t.Fatalf("guideline outcome = %+v", report)
	}
	join := plan.Root.Joins()[0]
	if join.Op != qgm.OpHSJOIN {
		t.Errorf("join method = %s, want HSJOIN", join.Op)
	}
	if join.Outer.TableInstance != "Q2" || join.Inner.TableInstance != "Q1" {
		t.Errorf("join order not honoured: outer=%s inner=%s", join.Outer.TableInstance, join.Inner.TableInstance)
	}
	for _, s := range plan.Root.Scans() {
		if s.Op != qgm.OpTBSCAN {
			t.Errorf("guideline access method not honoured for %s: %s", s.TableInstance, s.Op)
		}
	}
	_ = base
}

func TestGuidelineReferencingMissingInstanceIsIgnored(t *testing.T) {
	q := sqlparser.MustParse(`SELECT i_item_desc FROM web_sales, item WHERE ws_item_sk = i_item_sk`)
	doc := &guideline.Document{Guidelines: []*guideline.Element{{
		Op: guideline.ElemNLJOIN,
		Children: []*guideline.Element{
			{Op: guideline.ElemTBSCAN, TabID: "Q7"},
			{Op: guideline.ElemTBSCAN, TabID: "Q8"},
		},
	}}}
	o := optimizer.New(db(t).Catalog, optimizer.Options{JoinEnumDPLimit: 10, Guidelines: doc})
	plan, report, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	if len(report.GuidelinesIgnored) != 1 || len(report.GuidelinesApplied) != 0 {
		t.Errorf("guideline outcome = %+v, want ignored", report)
	}
}

func TestConflictingGuidelineIsDropped(t *testing.T) {
	// Two guidelines over the same pair with different methods: only one can
	// be honoured; planning must still succeed.
	q := sqlparser.MustParse(`SELECT i_item_desc FROM web_sales, item WHERE ws_item_sk = i_item_sk`)
	mk := func(op string, outerID, innerID string) *guideline.Element {
		return &guideline.Element{Op: op, Children: []*guideline.Element{
			{Op: guideline.ElemTBSCAN, TabID: outerID},
			{Op: guideline.ElemTBSCAN, TabID: innerID},
		}}
	}
	doc := &guideline.Document{Guidelines: []*guideline.Element{
		mk(guideline.ElemHSJOIN, "Q1", "Q2"),
		mk(guideline.ElemMSJOIN, "Q2", "Q1"),
	}}
	o := optimizer.New(db(t).Catalog, optimizer.Options{JoinEnumDPLimit: 10, Guidelines: doc})
	plan, report, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	if len(report.GuidelinesApplied) != 1 || len(report.GuidelinesIgnored) != 1 {
		t.Errorf("guideline outcome = %+v, want one applied and one dropped", report)
	}
}

func TestGuidelineOnLargeQueryUsesGreedyPath(t *testing.T) {
	// A wide query exceeds the DP limit; guidelines should still be honoured.
	q := tpcds.WideQuery(14)
	doc := &guideline.Document{Guidelines: []*guideline.Element{{
		Op: guideline.ElemHSJOIN,
		Children: []*guideline.Element{
			{Op: guideline.ElemTBSCAN, TabID: "Q2"}, // F1 fact table
			{Op: guideline.ElemTBSCAN, TabID: "Q1"}, // I0 item
		},
	}}}
	o := optimizer.New(db(t).Catalog, optimizer.Options{JoinEnumDPLimit: 8, EnableBloomFilters: true, Guidelines: doc})
	plan, report, err := o.Optimize(q)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	if len(report.GuidelinesApplied) != 1 {
		t.Errorf("wide-query guideline not applied: %+v", report)
	}
}

func TestBuildPlanFromSpec(t *testing.T) {
	o := newOpt(t)
	q := sqlparser.MustParse(`SELECT i_item_desc FROM web_sales, item, date_dim
		WHERE ws_item_sk = i_item_sk AND ws_sold_date_sk = d_date_sk AND i_category = 'Books'`)
	spec := optimizer.Join(qgm.OpHSJOIN,
		optimizer.Join(qgm.OpHSJOIN, optimizer.Leaf("WEB_SALES"), optimizer.Leaf("ITEM")),
		optimizer.LeafAccess("DATE_DIM", qgm.OpIXSCAN, "D_DATE_SK"))
	plan, err := o.BuildPlan(q, spec)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	if plan.NumJoins() != 2 {
		t.Errorf("NumJoins = %d", plan.NumJoins())
	}
	if !strings.Contains(plan.Signature(), "HSJOIN") {
		t.Errorf("signature = %s", plan.Signature())
	}
	var dateScan *qgm.Node
	plan.Root.Walk(func(n *qgm.Node) {
		if n.Table == "DATE_DIM" {
			dateScan = n
		}
	})
	if dateScan == nil || !dateScan.Op.IsScan() || dateScan.Index == "" {
		t.Errorf("date_dim access should use an index: %+v", dateScan)
	}
}

func TestBuildPlanSpecValidation(t *testing.T) {
	o := newOpt(t)
	q := sqlparser.MustParse(`SELECT i_item_desc FROM web_sales, item WHERE ws_item_sk = i_item_sk`)
	// Missing table.
	if _, err := o.BuildPlan(q, optimizer.Leaf("WEB_SALES")); err == nil {
		t.Errorf("spec missing a reference should fail")
	}
	// Duplicate table.
	dup := optimizer.Join(qgm.OpHSJOIN, optimizer.Leaf("WEB_SALES"), optimizer.Leaf("WEB_SALES"))
	if _, err := o.BuildPlan(q, dup); err == nil {
		t.Errorf("spec with duplicate reference should fail")
	}
	// NLJOIN with a join (multi-table) inner is invalid.
	q3 := sqlparser.MustParse(`SELECT i_item_desc FROM web_sales, item, date_dim
		WHERE ws_item_sk = i_item_sk AND ws_sold_date_sk = d_date_sk`)
	bad := optimizer.Join(qgm.OpNLJOIN, optimizer.Leaf("DATE_DIM"), optimizer.Join(qgm.OpHSJOIN, optimizer.Leaf("WEB_SALES"), optimizer.Leaf("ITEM")))
	if _, err := o.BuildPlan(q3, bad); err == nil {
		t.Errorf("NLJOIN over a multi-table inner should be rejected")
	}
	if _, err := o.BuildPlan(q, nil); err == nil {
		t.Errorf("nil spec should fail")
	}
	// Unknown index in access spec.
	badIdx := optimizer.Join(qgm.OpHSJOIN, optimizer.Leaf("WEB_SALES"), optimizer.LeafAccess("ITEM", qgm.OpIXSCAN, "NO_SUCH_IDX"))
	if _, err := o.BuildPlan(q, badIdx); err == nil {
		t.Errorf("unknown index should fail")
	}
}

func TestRewriteInfersTransitivePredicates(t *testing.T) {
	o := newOpt(t)
	q := sqlparser.MustParse(`SELECT d_year FROM store_sales, date_dim
		WHERE ss_sold_date_sk = d_date_sk AND d_date_sk = 100`)
	work := q.Clone()
	if err := sqlparser.Resolve(work, o.Cat.Schema); err != nil {
		t.Fatal(err)
	}
	notes := optimizer.Rewrite(o, work)
	found := false
	for _, p := range work.Where {
		if p.Left.Column == "SS_SOLD_DATE_SK" && p.Kind == sqlparser.PredCompare {
			found = true
		}
	}
	if !found {
		t.Errorf("transitive predicate not inferred; predicates = %v", work.Where)
	}
	if len(notes) == 0 {
		t.Errorf("rewrite notes empty")
	}
	// Duplicate elimination.
	q2 := sqlparser.MustParse(`SELECT d_year FROM date_dim WHERE d_year > 1990 AND d_year > 1990`)
	work2 := q2.Clone()
	if err := sqlparser.Resolve(work2, o.Cat.Schema); err != nil {
		t.Fatal(err)
	}
	optimizer.Rewrite(o, work2)
	if len(work2.Where) != 1 {
		t.Errorf("duplicate predicate not removed: %v", work2.Where)
	}
}

// TestInterestingOrdersSortByName: interesting-order ids ascend as the
// "Qi.COL" names sort, which from Q10 on is not the FROM order (Q10 sorts
// before Q2), and ordOf finds every one of them.
func TestInterestingOrdersSortByName(t *testing.T) {
	o := newOpt(t)
	from, where := []string{"store_sales s1"}, []string{}
	for i := 2; i <= 12; i++ {
		from = append(from, fmt.Sprintf("store_sales s%d", i))
		where = append(where, fmt.Sprintf("s%d.ss_item_sk = s%d.ss_customer_sk", i-1, i))
	}
	p, err := o.Prepare(sqlparser.MustParse("SELECT s1.ss_quantity FROM " + strings.Join(from, ", ") +
		" WHERE " + strings.Join(where, " AND ") + " ORDER BY s12.ss_quantity"))
	if err != nil {
		t.Fatal(err)
	}
	names, ids := optimizer.InterestingOrders(p)
	for i, id := range ids {
		if id != int32(i+1) {
			t.Errorf("%s has id %d, want %d", names[i], id, i+1)
		}
	}
	if len(names) != 2*11+1 || !sort.StringsAreSorted(names) {
		t.Errorf("interesting orders %q: want 23, sorted by name", names)
	}
}

func TestSelectivityEstimates(t *testing.T) {
	o := newOpt(t)
	ts := o.Cat.Stats(tpcds.Item)
	eq := o.PredicateSelectivity(ts, sqlparser.Predicate{
		Kind: sqlparser.PredCompare, Op: "=",
		Left:  sqlparser.ColumnRef{Table: "ITEM", Column: "I_CATEGORY"},
		Value: mustVal("Music"),
	})
	if eq <= 0 || eq > 0.5 {
		t.Errorf("equality selectivity = %v", eq)
	}
	rng := o.PredicateSelectivity(ts, sqlparser.Predicate{
		Kind: sqlparser.PredCompare, Op: ">",
		Left:  sqlparser.ColumnRef{Table: "ITEM", Column: "I_CURRENT_PRICE"},
		Value: mustFloat(150),
	})
	if rng <= 0 || rng >= 1 {
		t.Errorf("range selectivity = %v", rng)
	}
	in := o.PredicateSelectivity(ts, sqlparser.Predicate{
		Kind:   sqlparser.PredIn,
		Left:   sqlparser.ColumnRef{Table: "ITEM", Column: "I_CATEGORY"},
		Values: []catalog.Value{mustVal("Music"), mustVal("Books")},
	})
	if in <= eq || in > 1 {
		t.Errorf("IN selectivity = %v should exceed single equality %v", in, eq)
	}
	// Unknown stats fall back to defaults.
	def := o.PredicateSelectivity(nil, sqlparser.Predicate{Kind: sqlparser.PredCompare, Op: "=",
		Left: sqlparser.ColumnRef{Column: "X"}, Value: mustVal("y")})
	if def != optimizer.DefaultEqSel {
		t.Errorf("default selectivity = %v", def)
	}
	// Combined local selectivity multiplies and clamps.
	sel := o.LocalSelectivity(tpcds.Item, []*sqlparser.Predicate{
		{Kind: sqlparser.PredCompare, Op: "=", Left: sqlparser.ColumnRef{Table: "ITEM", Column: "I_CATEGORY"}, Value: mustVal("Music")},
		{Kind: sqlparser.PredCompare, Op: "=", Left: sqlparser.ColumnRef{Table: "ITEM", Column: "I_CLASS"}, Value: mustVal("Music-class-1")},
	})
	if sel <= 0 || sel > eq {
		t.Errorf("combined selectivity = %v (single = %v)", sel, eq)
	}
}

func mustVal(s string) catalog.Value    { return catalog.String(s) }
func mustFloat(f float64) catalog.Value { return catalog.Float(f) }

// TestPlanCandHoldsNoPointers keeps the candidate slab invisible to the
// collector: a string, slice or pointer field in planCand would make every
// chunk a scanned allocation and every push a write barrier.
func TestPlanCandHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(optimizer.PlanCand{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Int32, reflect.Uint64, reflect.Float64:
		default:
			t.Errorf("planCand.%s is a %s", f.Name, f.Type)
		}
	}
	if typ.Size() != 72 {
		t.Errorf("planCand is %d bytes; the slab sizing and DESIGN.md say 72", typ.Size())
	}
}
