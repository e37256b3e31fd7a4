package guideline

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"galo/internal/qgm"
)

// figure5Document reproduces the guideline of the paper's Figure 5.
func figure5Document() *Document {
	return &Document{Guidelines: []*Element{{
		Op: ElemHSJOIN,
		Children: []*Element{
			{Op: ElemHSJOIN, Children: []*Element{
				{Op: ElemTBSCAN, TabID: "Q2"},
				{Op: ElemHSJOIN, Children: []*Element{
					{Op: ElemTBSCAN, TabID: "Q4"},
					{Op: ElemTBSCAN, TabID: "Q1"},
				}},
			}},
			{Op: ElemIXSCAN, TabID: "Q3", Index: "D_DATE_SK"},
		},
	}}}
}

func TestFigure5XMLRoundtrip(t *testing.T) {
	doc := figure5Document()
	if err := doc.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	xmlText, err := doc.XML()
	if err != nil {
		t.Fatalf("XML: %v", err)
	}
	for _, want := range []string{"<OPTGUIDELINES>", "<HSJOIN>", `TABID="Q2"`, `TABID="Q4"`, `TABID="Q1"`,
		`<IXSCAN TABID="Q3"`, `INDEX="&#34;D_DATE_SK&#34;"`} {
		if !strings.Contains(xmlText, want) {
			t.Errorf("XML missing %q:\n%s", want, xmlText)
		}
	}
	parsed, err := Parse(xmlText)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(parsed.Guidelines) != 1 {
		t.Fatalf("parsed %d guidelines", len(parsed.Guidelines))
	}
	root := parsed.Guidelines[0]
	if root.Op != ElemHSJOIN || len(root.Children) != 2 {
		t.Fatalf("parsed root = %+v", root)
	}
	if root.Children[1].Op != ElemIXSCAN || root.Children[1].Index != "D_DATE_SK" || root.Children[1].TabID != "Q3" {
		t.Errorf("inner access = %+v", root.Children[1])
	}
	ids := tabIDs(parsed.Guidelines[0])
	if len(ids) != 4 || ids[0] != "Q1" || ids[3] != "Q4" {
		t.Errorf("table instances = %v", ids)
	}
}

func TestParsePaperLiteralXML(t *testing.T) {
	// The exact document from Figure 5 of the paper.
	text := `<OPTGUIDELINES>
	  <HSJOIN>
	    <HSJOIN>
	      <TBSCAN TABID='Q2'/>
	      <HSJOIN>
	        <TBSCAN TABID='Q4'/>
	        <TBSCAN TABID='Q1'/>
	      </HSJOIN>
	    </HSJOIN>
	    <IXSCAN TABID='Q3' INDEX='"D_DATE_SK"'/>
	  </HSJOIN>
	</OPTGUIDELINES>`
	doc, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	g := doc.Guidelines[0]
	if g.Op != ElemHSJOIN {
		t.Errorf("root = %s", g.Op)
	}
	// Outer child is the nested HSJOIN, inner is the IXSCAN on Q3.
	if g.Children[0].Op != ElemHSJOIN || g.Children[1].TabID != "Q3" {
		t.Errorf("child order not preserved: %+v", g.Children)
	}
	if g.Children[1].Index != "D_DATE_SK" {
		t.Errorf("index quotes not stripped: %q", g.Children[1].Index)
	}
}

func TestValidateRejectsMalformedGuidelines(t *testing.T) {
	cases := []*Element{
		{Op: ElemHSJOIN, Children: []*Element{{Op: ElemTBSCAN, TabID: "Q1"}}}, // join with 1 child
		{Op: ElemTBSCAN}, // access without TABID/TABLE
		{Op: ElemTBSCAN, TabID: "Q1", Children: []*Element{{Op: ElemTBSCAN, TabID: "Q2"}}}, // access with child
		{Op: "MYSTERY", TabID: "Q1"}, // unknown op
		{Op: ElemNLJOIN, Children: []*Element{{Op: ElemTBSCAN, TabID: "Q1"}, {Op: "BAD"}, {Op: "X"}}}, // 3 children
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d should fail validation: %+v", i, g)
		}
	}
	if err := (&Document{Guidelines: []*Element{cases[0]}}).Validate(); err == nil {
		t.Errorf("document validation should propagate element errors")
	}
}

func TestParseErrors(t *testing.T) {
	for _, text := range []string{
		"",
		"<NOTGUIDELINES/>",
		"<OPTGUIDELINES><HSJOIN><TBSCAN TABID='Q1'/></HSJOIN></OPTGUIDELINES>", // invalid arity
		"<OPTGUIDELINES><HSJOIN>",
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		}
	}
}

func TestFromPlanFigure4b(t *testing.T) {
	// Build the plan of Figure 4b and check the generated guideline matches
	// Figure 5's structure.
	q1 := &qgm.Node{Op: qgm.OpTBSCAN, Table: "CUSTOMER_ADDRESS", TableInstance: "Q1"}
	q2 := &qgm.Node{Op: qgm.OpTBSCAN, Table: "CATALOG_SALES", TableInstance: "Q2"}
	q4 := &qgm.Node{Op: qgm.OpTBSCAN, Table: "CATALOG_SALES", TableInstance: "Q4"}
	q3 := &qgm.Node{Op: qgm.OpFETCH, Table: "DATE_DIM", TableInstance: "Q3", Index: "D_DATE_SK"}
	j5 := &qgm.Node{Op: qgm.OpHSJOIN, Outer: q4, Inner: q1}
	j3 := &qgm.Node{Op: qgm.OpHSJOIN, Outer: q2, Inner: j5}
	j2 := &qgm.Node{Op: qgm.OpHSJOIN, Outer: j3, Inner: q3}
	plan := qgm.NewPlan(j2)

	doc, err := FromPlan(plan)
	if err != nil {
		t.Fatalf("FromPlan: %v", err)
	}
	xmlText, err := doc.XML()
	if err != nil {
		t.Fatalf("XML: %v", err)
	}
	wantOrder := []string{`TABID="Q2"`, `TABID="Q4"`, `TABID="Q1"`, `TABID="Q3"`}
	lastIdx := -1
	for _, w := range wantOrder {
		idx := strings.Index(xmlText, w)
		if idx < 0 {
			t.Fatalf("generated guideline missing %q:\n%s", w, xmlText)
		}
		if idx < lastIdx {
			t.Errorf("guideline child order wrong, %q appears too early:\n%s", w, xmlText)
		}
		lastIdx = idx
	}
	if !strings.Contains(xmlText, "<IXSCAN") {
		t.Errorf("FETCH should map to IXSCAN access element:\n%s", xmlText)
	}
}

func TestFromPlanSkipsTransparentOperators(t *testing.T) {
	// SORT between join and scan should not appear in the guideline.
	scan := &qgm.Node{Op: qgm.OpIXSCAN, Table: "ENTRY_IDX", TableInstance: "Q2", Index: "E_IDX"}
	sort := &qgm.Node{Op: qgm.OpSORT, Outer: scan}
	other := &qgm.Node{Op: qgm.OpIXSCAN, Table: "OPEN_IN", TableInstance: "Q1", Index: "O_IDX"}
	join := &qgm.Node{Op: qgm.OpMSJOIN, Outer: other, Inner: sort}
	doc, err := FromPlan(qgm.NewPlan(join))
	if err != nil {
		t.Fatalf("FromPlan: %v", err)
	}
	g := doc.Guidelines[0]
	if g.Op != ElemMSJOIN || g.Children[1].Op != ElemIXSCAN {
		t.Errorf("transparent SORT not skipped: %+v", g)
	}
	if _, err := FromPlan(nil); err == nil {
		t.Errorf("FromPlan(nil) should fail")
	}
	if _, err := FromPlanNode(nil); err == nil {
		t.Errorf("FromPlanNode(nil) should fail")
	}
}

func TestMergeDeduplicates(t *testing.T) {
	a := figure5Document()
	b := figure5Document()
	c := &Document{Guidelines: []*Element{{Op: ElemNLJOIN, Children: []*Element{
		{Op: ElemTBSCAN, TabID: "Q1"}, {Op: ElemTBSCAN, TabID: "Q2"},
	}}}}
	merged := Merge(a, b, c, nil)
	if len(merged.Guidelines) != 2 {
		t.Errorf("Merge produced %d guidelines, want 2", len(merged.Guidelines))
	}
	var empty *Document
	if !empty.Empty() || !(&Document{}).Empty() {
		t.Errorf("Empty() misreports")
	}
	if merged.Empty() {
		t.Errorf("merged document should not be empty")
	}
	if ids := tabIDs(merged.Guidelines...); len(ids) != 4 {
		t.Errorf("merged table instances = %v", ids)
	}
}

// tabIDs returns the sorted, de-duplicated table instances the elements'
// subtrees reference.
func tabIDs(elems ...*Element) []string {
	seen := map[string]bool{}
	for _, e := range elems {
		e.walk(func(x *Element) {
			if x.TabID != "" {
				seen[strings.ToUpper(x.TabID)] = true
			}
		})
	}
	return slices.Sorted(maps.Keys(seen))
}
