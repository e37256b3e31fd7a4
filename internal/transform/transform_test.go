package transform

import (
	"strings"
	"testing"

	"galo/internal/qgm"
	"galo/internal/rdf"
	"galo/internal/sparql"
)

// figure4aFragment builds the problem fragment of the paper's Figure 4a.
func figure4aFragment() *qgm.Node {
	q1 := &qgm.Node{Op: qgm.OpFETCH, Table: "CUSTOMER_ADDRESS", TableInstance: "Q1", Index: "CA_IDX", EstCardinality: 7.5}
	q2 := &qgm.Node{Op: qgm.OpFETCH, Table: "CATALOG_SALES", TableInstance: "Q2", Index: "CS_IDX", EstCardinality: 0.089}
	q3 := &qgm.Node{Op: qgm.OpFETCH, Table: "DATE_DIM", TableInstance: "Q3", Index: "D_IDX", EstCardinality: 0.99}
	q4 := &qgm.Node{Op: qgm.OpFETCH, Table: "CATALOG_SALES", TableInstance: "Q4", Index: "CS_IDX2", EstCardinality: 19.7}
	j4 := &qgm.Node{Op: qgm.OpNLJOIN, Outer: q4, Inner: q3, EstCardinality: 19.6}
	j3 := &qgm.Node{Op: qgm.OpNLJOIN, Outer: j4, Inner: q2, EstCardinality: 1.75}
	j2 := &qgm.Node{Op: qgm.OpNLJOIN, Outer: j3, Inner: q1, EstCardinality: 13.14}
	plan := qgm.NewPlan(j2)
	return plan.Root.Outer
}

func TestCanonicalLabelsAndAbstract(t *testing.T) {
	frag := figure4aFragment()
	labels := CanonicalLabels(frag)
	if len(labels) != 4 {
		t.Fatalf("labels = %v", labels)
	}
	if labels["Q1"] != "TABLE_1" || labels["Q4"] != "TABLE_4" {
		t.Errorf("labels not assigned in sorted instance order: %v", labels)
	}
	abstract := Abstract(frag, labels)
	abstract.Walk(func(n *qgm.Node) {
		if n.Op.IsScan() {
			if !strings.HasPrefix(n.Table, "TABLE_") || !strings.HasPrefix(n.TableInstance, "TABLE_") {
				t.Errorf("scan not abstracted: %+v", n)
			}
			if strings.Contains(n.Index, "CS_") || strings.Contains(n.Index, "CA_") {
				t.Errorf("index name leaked into abstraction: %q", n.Index)
			}
		}
		if len(n.Predicates) != 0 {
			t.Errorf("predicates should be cleared")
		}
	})
	// The original fragment is untouched.
	if frag.Scans()[0].Table == "TABLE_1" {
		t.Errorf("Abstract mutated its input")
	}
	// Abstraction is shape-preserving.
	if abstract.ShapeSignature() != frag.ShapeSignature() {
		t.Errorf("abstraction changed the shape: %s vs %s", abstract.ShapeSignature(), frag.ShapeSignature())
	}
}

func TestFragmentMatchQueryParsesAndDescribesFragment(t *testing.T) {
	frag := figure4aFragment()
	text, info, err := FragmentMatchQuery(frag)
	if err != nil {
		t.Fatalf("FragmentMatchQuery: %v", err)
	}
	q, err := sparql.Parse(text)
	if err != nil {
		t.Fatalf("generated query does not parse: %v\n%s", err, text)
	}
	// One hasPopType pattern per operator.
	popTypeCount := 0
	for _, p := range q.Patterns {
		if strings.HasSuffix(p.Path[0].Pred.Value, PropPopType) {
			popTypeCount++
		}
	}
	if popTypeCount != frag.CountOps() {
		t.Errorf("hasPopType patterns = %d, want %d", popTypeCount, frag.CountOps())
	}
	// Bounds filters: two per operator.
	if len(q.Filters) < frag.CountOps()*2 {
		t.Errorf("filters = %d, want at least %d", len(q.Filters), frag.CountOps()*2)
	}
	// Template/guideline/improvement are selected.
	joined := strings.Join(q.Select, " ")
	for _, v := range []string{info.TemplateVar, info.GuidelineVar, info.ImprovementVar} {
		if !strings.Contains(joined, v) {
			t.Errorf("SELECT misses %q: %v", v, q.Select)
		}
	}
	// Every scan instance has a canonical-table variable.
	if len(info.CanonicalVarByInstance) != 4 {
		t.Errorf("CanonicalVarByInstance = %v", info.CanonicalVarByInstance)
	}
	// Table names never appear in the generated query (canonical abstraction).
	if strings.Contains(text, "CATALOG_SALES") || strings.Contains(text, "DATE_DIM") {
		t.Errorf("concrete table names leaked into the matching query:\n%s", text)
	}
	if _, _, err := FragmentMatchQuery(nil); err == nil {
		t.Errorf("nil fragment should fail")
	}
}

func TestVarForNaming(t *testing.T) {
	varFor := func(n *qgm.Node) string { return (&probeNode{inst: instanceOf(n), id: n.ID}).varName() }
	scan := &qgm.Node{Op: qgm.OpIXSCAN, TableInstance: "Q3", ID: 9}
	if got := varFor(scan); got != "pop_Q3" {
		t.Errorf("variable of the scan = %q", got)
	}
	join := &qgm.Node{Op: qgm.OpHSJOIN, ID: 2}
	if got := varFor(join); got != "pop_2" {
		t.Errorf("variable of the join = %q", got)
	}
}

func TestMatchQueryAgainstHandBuiltTemplateGraph(t *testing.T) {
	// Store a minimal single-join template graph and check the generated
	// query for a structurally identical fragment matches it, while a
	// fragment with a different join method does not.
	store := rdf.NewStore()
	tmpl := TemplateIRI("t1")
	add := func(s rdf.Term, p string, o rdf.Term) { store.Add(rdf.Triple{S: s, P: Prop(p), O: o}) }
	join := KBPopIRI("t1", 2)
	outer := KBPopIRI("t1", 3)
	inner := KBPopIRI("t1", 4)
	add(join, PropPopType, rdf.NewLiteral(string(qgm.OpMSJOIN)))
	add(join, PropLowerCardinality, rdf.NewNumericLiteral(1))
	add(join, PropHigherCardinality, rdf.NewNumericLiteral(1e9))
	add(join, PropInTemplate, tmpl)
	add(join, PropOuterInput, outer)
	add(join, PropInnerInput, inner)
	for i, popTerm := range []rdf.Term{outer, inner} {
		add(popTerm, PropPopType, rdf.NewLiteral(string(qgm.OpIXSCAN)))
		add(popTerm, PropLowerCardinality, rdf.NewNumericLiteral(1))
		add(popTerm, PropHigherCardinality, rdf.NewNumericLiteral(1e9))
		add(popTerm, PropCanonicalTable, rdf.NewLiteral([]string{"TABLE_1", "TABLE_2"}[i]))
		add(popTerm, PropInTemplate, tmpl)
	}
	add(tmpl, PropGuideline, rdf.NewLiteral("<OPTGUIDELINES/>"))
	add(tmpl, PropImprovement, rdf.NewNumericLiteral(0.5))

	frag := &qgm.Node{Op: qgm.OpMSJOIN, EstCardinality: 100,
		Outer: &qgm.Node{Op: qgm.OpIXSCAN, Table: "OPEN_IN", TableInstance: "Q1", Index: "X", EstCardinality: 10},
		Inner: &qgm.Node{Op: qgm.OpIXSCAN, Table: "ENTRY_IDX", TableInstance: "Q2", Index: "Y", EstCardinality: 10},
	}
	qgm.NewPlan(frag.Clone()) // not used, just keeps IDs assigned on a copy
	frag.ID, frag.Outer.ID, frag.Inner.ID = 2, 3, 4

	text, info, err := FragmentMatchQuery(frag)
	if err != nil {
		t.Fatal(err)
	}
	sols, err := sparql.Execute(sparql.MustParse(text), store.Snapshot())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(sols) == 0 {
		t.Fatalf("structurally identical fragment did not match\n%s", text)
	}
	if got := sols[0][info.TemplateVar].Value; !strings.HasSuffix(got, "/t1") {
		t.Errorf("template binding = %q", got)
	}
	// Canonical table labels come back for TABID rebinding.
	if sols[0][info.CanonicalVarByInstance["Q1"]].Value != "TABLE_1" {
		t.Errorf("canonical binding = %v", sols[0])
	}

	// A hash-join fragment must not match the merge-join template.
	frag.Op = qgm.OpHSJOIN
	text2, _, _ := FragmentMatchQuery(frag)
	sols2, err := sparql.Execute(sparql.MustParse(text2), store.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(sols2) != 0 {
		t.Errorf("different join method should not match")
	}
	// A fragment whose cardinality is outside the bounds must not match.
	frag.Op = qgm.OpMSJOIN
	frag.EstCardinality = 1e12
	text3, _, _ := FragmentMatchQuery(frag)
	sols3, _ := sparql.Execute(sparql.MustParse(text3), store.Snapshot())
	if len(sols3) != 0 {
		t.Errorf("out-of-bounds cardinality should not match")
	}
}
