package qgm

import (
	"strings"
	"testing"
)

// figure1aPlan builds the plan of the paper's Figure 1a: an MSJOIN between
// OPEN_IN (Q1) via IXSCAN and ENTRY_IDX (Q2) via IXSCAN read through a sort.
func figure1aPlan() *Plan {
	openIn := &Node{Op: OpIXSCAN, Table: "OPEN_IN", TableInstance: "Q1", Index: "OPEN_IN_IDX", EstCardinality: 1.1832e7}
	entryIdx := &Node{Op: OpIXSCAN, Table: "ENTRY_IDX", TableInstance: "Q2", Index: "ENTRY_IDX_IDX", EstCardinality: 1.22525e7}
	sorted := &Node{Op: OpSORT, Outer: entryIdx, EstCardinality: 1.22525e7}
	join := &Node{Op: OpMSJOIN, Outer: openIn, Inner: sorted, EstCardinality: 2.94925e6, EstCost: 207647}
	return NewPlan(join)
}

// figure1bPlan builds the GALO rewrite of Figure 1b: HSJOIN with swapped
// inputs and no sort.
func figure1bPlan() *Plan {
	openIn := &Node{Op: OpIXSCAN, Table: "OPEN_IN", TableInstance: "Q1", Index: "OPEN_IN_IDX", EstCardinality: 1.1832e7}
	entryIdx := &Node{Op: OpIXSCAN, Table: "ENTRY_IDX", TableInstance: "Q2", Index: "ENTRY_IDX_IDX", EstCardinality: 1.22525e7}
	join := &Node{Op: OpHSJOIN, Outer: entryIdx, Inner: openIn, EstCardinality: 2.94925e6, EstCost: 90210}
	return NewPlan(join)
}

func TestNewPlanAddsReturnAndIDs(t *testing.T) {
	p := figure1aPlan()
	if p.Root.Op != OpRETURN {
		t.Fatalf("root = %s", p.Root.Op)
	}
	if p.Root.ID != 1 {
		t.Errorf("RETURN should be operator 1, got %d", p.Root.ID)
	}
	ids := map[int]bool{}
	for _, op := range p.Operators() {
		if ids[op.ID] {
			t.Errorf("duplicate ID %d", op.ID)
		}
		ids[op.ID] = true
	}
	if len(ids) != p.Root.CountOps() {
		t.Errorf("ID count mismatch")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPlanAccessors(t *testing.T) {
	p := figure1aPlan()
	if p.NumJoins() != 1 {
		t.Errorf("NumJoins = %d", p.NumJoins())
	}
	if p.Root.CountOps() != 5 {
		t.Errorf("CountOps = %d", p.Root.CountOps())
	}
	inst := p.TableInstances()
	if inst["Q1"] != "OPEN_IN" || inst["Q2"] != "ENTRY_IDX" {
		t.Errorf("TableInstances = %v", inst)
	}
	join := p.Root.Joins()[0]
	if len(join.Tables()) != 2 {
		t.Errorf("join Tables = %v", join.Tables())
	}
	scans := p.Root.Scans()
	if len(scans) != 2 {
		t.Errorf("Scans = %d", len(scans))
	}
}

func TestSignatureDistinguishesPlans(t *testing.T) {
	a, b := figure1aPlan(), figure1bPlan()
	if a.Signature() == b.Signature() {
		t.Errorf("different plans share signature %q", a.Signature())
	}
	if a.Signature() != figure1aPlan().Signature() {
		t.Errorf("signature not deterministic")
	}
	// Shape signature abstracts instances but keeps operators.
	join := a.Root.Joins()[0]
	if !strings.Contains(join.ShapeSignature(), "MSJOIN") {
		t.Errorf("ShapeSignature = %q", join.ShapeSignature())
	}
	if strings.Contains(join.ShapeSignature(), "Q1") {
		t.Errorf("ShapeSignature should not mention table instances")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := figure1aPlan()
	c := p.Clone()
	c.Root.Joins()[0].Op = OpNLJOIN
	c.Root.Scans()[0].Table = "CHANGED"
	if p.Root.Joins()[0].Op != OpMSJOIN {
		t.Errorf("clone mutation leaked into original (join)")
	}
	for _, s := range p.Root.Scans() {
		if s.Table == "CHANGED" {
			t.Errorf("clone mutation leaked into original (scan)")
		}
	}
}

func TestValidateCatchesBrokenPlans(t *testing.T) {
	// Join with one child.
	bad := NewPlan(&Node{Op: OpHSJOIN, Outer: &Node{Op: OpTBSCAN, Table: "T", TableInstance: "Q1"}})
	if err := bad.Validate(); err == nil {
		t.Errorf("join with one input should fail validation")
	}
	// Scan with a child.
	bad2 := NewPlan(&Node{Op: OpTBSCAN, Table: "T", TableInstance: "Q1",
		Outer: &Node{Op: OpTBSCAN, Table: "U", TableInstance: "Q2"}})
	if err := bad2.Validate(); err == nil {
		t.Errorf("scan with a child should fail validation")
	}
	// IXSCAN without index name.
	bad3 := NewPlan(&Node{Op: OpIXSCAN, Table: "T", TableInstance: "Q1"})
	if err := bad3.Validate(); err == nil {
		t.Errorf("IXSCAN without index should fail validation")
	}
	// Scan without instance.
	bad4 := NewPlan(&Node{Op: OpTBSCAN, Table: "T"})
	if err := bad4.Validate(); err == nil {
		t.Errorf("scan without table instance should fail validation")
	}
	var empty Plan
	if err := empty.Validate(); err == nil {
		t.Errorf("empty plan should fail validation")
	}
}

func threeJoinPlan() *Plan {
	s1 := &Node{Op: OpTBSCAN, Table: "CATALOG_SALES", TableInstance: "Q2", EstCardinality: 1.441e6}
	s2 := &Node{Op: OpTBSCAN, Table: "CUSTOMER_ADDRESS", TableInstance: "Q1", EstCardinality: 50000}
	s3 := &Node{Op: OpTBSCAN, Table: "CATALOG_SALES", TableInstance: "Q4", EstCardinality: 1.441e6}
	s4 := &Node{Op: OpIXSCAN, Table: "DATE_DIM", TableInstance: "Q3", Index: "D_DATE_SK", EstCardinality: 73049}
	j5 := &Node{Op: OpHSJOIN, Outer: s3, Inner: s2, EstCardinality: 128500}
	j3 := &Node{Op: OpHSJOIN, Outer: s1, Inner: j5, EstCardinality: 964783}
	j2 := &Node{Op: OpHSJOIN, Outer: j3, Inner: s4, EstCardinality: 13.1688, EstCost: 5000}
	return NewPlan(j2)
}

func TestEnumerateSubPlans(t *testing.T) {
	p := threeJoinPlan()
	subs := p.EnumerateSubPlans(4)
	if len(subs) != 3 {
		t.Fatalf("EnumerateSubPlans(4) returned %d fragments, want 3", len(subs))
	}
	// Bottom-up: the single-join fragment comes first.
	if subs[0].Joins != 1 {
		t.Errorf("first fragment has %d joins, want 1", subs[0].Joins)
	}
	if subs[len(subs)-1].Joins != 3 {
		t.Errorf("last fragment has %d joins, want 3", subs[len(subs)-1].Joins)
	}
	// Threshold caps fragment size.
	subs2 := p.EnumerateSubPlans(2)
	for _, s := range subs2 {
		if s.Joins > 2 {
			t.Errorf("fragment exceeds threshold: %d joins", s.Joins)
		}
	}
	if len(subs2) != 2 {
		t.Errorf("EnumerateSubPlans(2) returned %d fragments, want 2", len(subs2))
	}
	if got := p.EnumerateSubPlans(0); len(got) != 0 {
		t.Errorf("threshold 0 should return no fragments, got %d", len(got))
	}
}

func TestFormatShowsPaperStructure(t *testing.T) {
	p := figure1aPlan()
	p.QueryName = "CLIENT.Q08"
	text := Format(p)
	for _, want := range []string{"MSJOIN", "TB-SORT", "IXSCAN", "OPEN_IN [Q1]", "ENTRY_IDX [Q2]", "Total Cost", "CLIENT.Q08", "2.94925e+06"} {
		if !strings.Contains(text, want) {
			t.Errorf("Format output missing %q:\n%s", want, text)
		}
	}
	if Format(nil) != "<empty plan>\n" {
		t.Errorf("Format(nil) = %q", Format(nil))
	}
}

func TestOpTypeHelpers(t *testing.T) {
	if !OpHSJOIN.IsJoin() || OpTBSCAN.IsJoin() {
		t.Errorf("IsJoin misclassifies")
	}
	if !OpFETCH.IsScan() || OpHSJOIN.IsScan() {
		t.Errorf("IsScan misclassifies")
	}
	if len(JoinMethods()) != 3 {
		t.Errorf("JoinMethods = %v", JoinMethods())
	}
	n := &Node{Op: OpSORT}
	if n.OpLabel() != "TB-SORT" {
		t.Errorf("OpLabel(SORT) = %q", n.OpLabel())
	}
	s := &Node{Op: OpTBSCAN, Table: "ITEM", TableInstance: "Q3", ID: 7}
	if got := s.String(); !strings.Contains(got, "ITEM[Q3]") || !strings.Contains(got, "TBSCAN(7)") {
		t.Errorf("String() = %q", got)
	}
}
