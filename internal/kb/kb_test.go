package kb

import (
	"strings"
	"testing"

	"galo/internal/qgm"
	"galo/internal/transform"
)

func sampleProblem() *qgm.Node {
	outer := &qgm.Node{Op: qgm.OpTBSCAN, Table: "TABLE_1", TableInstance: "TABLE_1", EstCardinality: 1000}
	inner := &qgm.Node{Op: qgm.OpIXSCAN, Table: "TABLE_2", TableInstance: "TABLE_2", Index: "INDEX_2", EstCardinality: 50}
	join := &qgm.Node{Op: qgm.OpMSJOIN, Outer: outer, Inner: inner, EstCardinality: 800}
	plan := qgm.NewPlan(join)
	return plan.Root.Outer
}

func sampleTemplate() *Template {
	p := sampleProblem()
	return &Template{
		Problem:        p,
		Bounds:         map[int]Range{p.ID: {Lo: 100, Hi: 5000}},
		GuidelineXML:   "<OPTGUIDELINES><HSJOIN><TBSCAN TABID='TABLE_2'/><TBSCAN TABID='TABLE_1'/></HSJOIN></OPTGUIDELINES>",
		Improvement:    0.4,
		SourceQuery:    "TPCDS.FIG8",
		SourceWorkload: "tpcds",
	}
}

func TestAddAndLookup(t *testing.T) {
	k := New()
	added, err := k.Add(sampleTemplate())
	if err != nil || !added {
		t.Fatalf("Add = %v, %v", added, err)
	}
	if k.Size() != 1 {
		t.Errorf("Size = %d", k.Size())
	}
	tmpl := k.Templates()[0]
	if tmpl.ID == "" {
		t.Errorf("template not assigned an ID")
	}
	if tmpl.Joins != 1 {
		t.Errorf("Joins = %d", tmpl.Joins)
	}
	if k.FindBySignature(tmpl.Signature()) != tmpl {
		t.Errorf("FindBySignature failed")
	}
	if k.FindBySignature("nope") != nil {
		t.Errorf("FindBySignature(nope) should be nil")
	}
	// RDF triples were written.
	if k.Store().Len() == 0 {
		t.Errorf("no triples written")
	}
	guidelineProp := transform.Prop(transform.PropGuideline)
	if len(k.Store().Match(nil, &guidelineProp, nil)) != 1 {
		t.Errorf("template guideline triple missing")
	}
}

func TestAddValidation(t *testing.T) {
	k := New()
	if _, err := k.Add(nil); err == nil {
		t.Errorf("nil template should fail")
	}
	if _, err := k.Add(&Template{Problem: sampleProblem()}); err == nil {
		t.Errorf("template without guideline should fail")
	}
	if _, err := k.Add(&Template{GuidelineXML: "<OPTGUIDELINES/>"}); err == nil {
		t.Errorf("template without problem should fail")
	}
}

func TestDuplicateSignatureMergesBounds(t *testing.T) {
	k := New()
	first := sampleTemplate()
	if _, err := k.Add(first); err != nil {
		t.Fatal(err)
	}
	second := sampleTemplate()
	rootID := second.Problem.ID
	second.Bounds[rootID] = Range{Lo: 10, Hi: 20000}
	second.Improvement = 0.7
	added, err := k.Add(second)
	if err != nil {
		t.Fatal(err)
	}
	if added {
		t.Errorf("duplicate signature should merge, not add")
	}
	if k.Size() != 1 {
		t.Errorf("Size = %d after merge", k.Size())
	}
	merged := k.Templates()[0]
	if merged.Bounds[rootID].Lo != 10 || merged.Bounds[rootID].Hi != 20000 {
		t.Errorf("bounds not widened: %+v", merged.Bounds[rootID])
	}
	if merged.Improvement != 0.7 {
		t.Errorf("improvement not upgraded: %v", merged.Improvement)
	}
}

func TestNTriplesRoundtripReconstructsTemplates(t *testing.T) {
	k := New()
	if _, err := k.Add(sampleTemplate()); err != nil {
		t.Fatal(err)
	}
	text := k.NTriples()
	if !strings.Contains(text, "TABLE_1") || !strings.Contains(text, "hasGuideline") {
		t.Fatalf("serialized KB missing expected content:\n%s", text)
	}
	restored := New()
	if err := restored.LoadNTriples(text); err != nil {
		t.Fatalf("LoadNTriples: %v", err)
	}
	if restored.Size() != 1 {
		t.Fatalf("restored Size = %d", restored.Size())
	}
	orig := k.Templates()[0]
	got := restored.Templates()[0]
	if got.Signature() != orig.Signature() {
		t.Errorf("signature changed across roundtrip: %q vs %q", got.Signature(), orig.Signature())
	}
	if got.Improvement != orig.Improvement || got.GuidelineXML != orig.GuidelineXML {
		t.Errorf("metadata changed across roundtrip")
	}
	if got.Problem.CountJoins() != 1 || len(got.Problem.Scans()) != 2 {
		t.Errorf("problem fragment not reconstructed: %s", got.Problem.Signature())
	}
	if got.Bounds[got.Problem.ID].Hi != 5000 {
		t.Errorf("bounds not reconstructed: %+v", got.Bounds)
	}
}

func TestMergeAcrossKnowledgeBases(t *testing.T) {
	a := New()
	if _, err := a.Add(sampleTemplate()); err != nil {
		t.Fatal(err)
	}
	b := New()
	other := sampleTemplate()
	other.Problem.Op = qgm.OpHSJOIN // different signature
	if _, err := b.Add(other); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.Size() != 2 {
		t.Errorf("merged Size = %d, want 2", a.Size())
	}
	// Merging the same KB again does not duplicate.
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Size() != 2 {
		t.Errorf("re-merge duplicated templates: %d", a.Size())
	}
}

func TestRangeHelpers(t *testing.T) {
	r := Range{Lo: 10, Hi: 20}
	if !r.Contains(10) || !r.Contains(20) || r.Contains(9) || r.Contains(21) {
		t.Errorf("Contains misbehaves")
	}
	r = r.Widen(5)
	r = r.Widen(30)
	if r.Lo != 5 || r.Hi != 30 {
		t.Errorf("Widen = %+v", r)
	}
	if db := defaultBounds(100); db.Lo >= 100 || db.Hi <= 100 {
		t.Errorf("defaultBounds should bracket the value: %+v", db)
	}
}
