package kb

import (
	"fmt"
	"testing"

	"galo/internal/qgm"
)

// shapedTemplate builds a template whose problem shape varies with the given
// join and scan operators, so tests can mint templates that route to
// different shards.
func shapedTemplate(joinOp, outerOp qgm.OpType, card float64) *Template {
	outer := &qgm.Node{Op: outerOp, Table: "TABLE_1", TableInstance: "TABLE_1", EstCardinality: card}
	if outerOp == qgm.OpIXSCAN {
		outer.Index = "INDEX_1"
	}
	inner := &qgm.Node{Op: qgm.OpIXSCAN, Table: "TABLE_2", TableInstance: "TABLE_2", Index: "INDEX_2", EstCardinality: 50}
	join := &qgm.Node{Op: joinOp, Outer: outer, Inner: inner, EstCardinality: card}
	p := qgm.NewPlan(join).Root.Outer
	return &Template{
		Problem:        p,
		Bounds:         map[int]Range{p.ID: {Lo: card / 4, Hi: card * 4}},
		GuidelineXML:   "<OPTGUIDELINES><HSJOIN><TBSCAN TABID='TABLE_2'/><TBSCAN TABID='TABLE_1'/></HSJOIN></OPTGUIDELINES>",
		Improvement:    0.3,
		SourceQuery:    fmt.Sprintf("TPCDS.%s_%s", joinOp, outerOp),
		SourceWorkload: "tpcds",
	}
}

func allShapedTemplates() []*Template {
	var ts []*Template
	for _, j := range []qgm.OpType{qgm.OpMSJOIN, qgm.OpHSJOIN, qgm.OpNLJOIN} {
		for _, s := range []qgm.OpType{qgm.OpTBSCAN, qgm.OpIXSCAN} {
			ts = append(ts, shapedTemplate(j, s, 1000))
		}
	}
	return ts
}

func TestRouteShapeNMatchesKBRouting(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		k := NewSharded(n)
		for _, tmpl := range allShapedTemplates() {
			if _, err := k.Add(tmpl); err != nil {
				t.Fatal(err)
			}
			shape := tmpl.Problem.ShapeSignature()
			if got, want := RouteShapeN(shape, tmpl.Joins, n), k.ShardOf(tmpl); got != want {
				t.Errorf("n=%d shape %q: RouteShapeN = %d, ShardOf = %d", n, shape, got, want)
			}
		}
	}
}

func TestRouteShapeNStripsBloomFilterSuffix(t *testing.T) {
	base := "HSJOIN(TBSCAN,IXSCAN)"
	withBF := "HSJOIN(TBSCAN+BF,IXSCAN)"
	for _, n := range []int{2, 3, 8} {
		if a, b := RouteShapeN(base, 1, n), RouteShapeN(withBF, 1, n); a != b {
			t.Errorf("n=%d: +BF variant routed to %d, base to %d", n, b, a)
		}
	}
	// Degenerate shapes fall back to the join band, never panic.
	if got := RouteShapeN("", 3, 4); got < 0 || got >= 4 {
		t.Errorf("empty shape routed out of range: %d", got)
	}
	if got := RouteShapeN("_", 0, 4); got < 0 || got >= 4 {
		t.Errorf("underscore shape routed out of range: %d", got)
	}
	if got := RouteShapeN("anything", 5, 1); got != 0 {
		t.Errorf("single shard must always route to 0, got %d", got)
	}
}

func TestNTriplesForShapeAndRemoveShapeRoundTrip(t *testing.T) {
	k := NewSharded(2)
	ts := allShapedTemplates()
	for _, tmpl := range ts {
		if _, err := k.Add(tmpl); err != nil {
			t.Fatal(err)
		}
	}
	shape := NormalizeShape(ts[0].Problem.ShapeSignature())
	ofShape := func() int {
		n := 0
		for _, tmpl := range k.Templates() {
			if NormalizeShape(tmpl.Problem.ShapeSignature()) == shape {
				n++
			}
		}
		return n
	}
	matching := ofShape()
	if matching == 0 {
		t.Fatalf("no templates for shape %q", shape)
	}

	nt := k.NTriplesForShape(shape)
	if nt == "" {
		t.Fatalf("NTriplesForShape(%q) empty with %d matching templates", shape, matching)
	}
	dst := New()
	if err := dst.LoadNTriples(nt); err != nil {
		t.Fatalf("load slice: %v", err)
	}
	if dst.Size() != matching {
		t.Fatalf("slice loaded %d templates, want %d", dst.Size(), matching)
	}
	for _, tmpl := range dst.Templates() {
		if got := NormalizeShape(tmpl.Problem.ShapeSignature()); got != shape {
			t.Errorf("slice leaked template of shape %q", got)
		}
	}

	before, beforeTriples := k.Size(), k.Triples()
	if removed := k.RemoveShape(shape); removed != matching {
		t.Fatalf("RemoveShape = %d, want %d", removed, matching)
	}
	if k.Size() != before-matching {
		t.Errorf("Size after remove = %d, want %d", k.Size(), before-matching)
	}
	if k.Triples() >= beforeTriples {
		t.Errorf("triples did not shrink: %d -> %d", beforeTriples, k.Triples())
	}
	if got := k.NTriplesForShape(shape); got != "" {
		t.Errorf("shape still renders triples after removal")
	}
	if ofShape() != 0 {
		t.Errorf("shape still lists templates after removal")
	}
	if k.RemoveShape(shape) != 0 {
		t.Errorf("second RemoveShape removed something")
	}
	// The other shapes are untouched and still findable.
	for _, tmpl := range ts {
		if NormalizeShape(tmpl.Problem.ShapeSignature()) == shape {
			continue
		}
		if k.FindBySignature(tmpl.Signature()) == nil {
			t.Errorf("unrelated template %s lost", tmpl.SourceQuery)
		}
	}
}

func TestShardSlicePartitionsTheDump(t *testing.T) {
	full := New()
	ts := allShapedTemplates()
	for _, tmpl := range ts {
		if _, err := full.Add(tmpl); err != nil {
			t.Fatal(err)
		}
	}
	dump := full.NTriples()
	const shards = 3
	total := 0
	for i := 0; i < shards; i++ {
		slice, err := ShardSlice(dump, i, shards)
		if err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
		part := New()
		if err := part.LoadNTriples(slice); err != nil {
			t.Fatalf("load slice %d: %v", i, err)
		}
		total += part.Size()
		for _, tmpl := range part.Templates() {
			if got := RouteShapeN(tmpl.Problem.ShapeSignature(), tmpl.Joins, shards); got != i {
				t.Errorf("slice %d holds template routed to %d (%s)", i, got, tmpl.SourceQuery)
			}
		}
	}
	if total != full.Size() {
		t.Errorf("slices hold %d templates, full KB %d", total, full.Size())
	}
	if _, err := ShardSlice(dump, 3, 3); err == nil {
		t.Errorf("out-of-range shard index accepted")
	}
	if _, err := ShardSlice("not ntriples at all \x00", 0, 2); err == nil {
		t.Errorf("malformed dump accepted")
	}
}
