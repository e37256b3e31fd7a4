package kb

import (
	"fmt"
	"strings"
	"testing"

	"galo/internal/qgm"
	"galo/internal/rdf"
	"galo/internal/transform"
)

// chainProblem builds a left-deep join chain of the given length whose op
// types vary with variant, producing distinct shape signatures for routing
// tests. Table instances carry the variant so signatures stay unique.
func chainProblem(joins, variant int) *qgm.Node {
	ops := []qgm.OpType{qgm.OpHSJOIN, qgm.OpNLJOIN, qgm.OpMSJOIN}
	cur := &qgm.Node{Op: qgm.OpTBSCAN, Table: fmt.Sprintf("V%d_T0", variant), TableInstance: fmt.Sprintf("V%d_T0", variant), EstCardinality: 1000}
	for j := 0; j < joins; j++ {
		inner := &qgm.Node{Op: qgm.OpIXSCAN, Table: fmt.Sprintf("V%d_T%d", variant, j+1), TableInstance: fmt.Sprintf("V%d_T%d", variant, j+1), Index: "IX", EstCardinality: 100}
		cur = &qgm.Node{Op: ops[(variant+j)%len(ops)], Outer: cur, Inner: inner, EstCardinality: 500}
	}
	plan := qgm.NewPlan(cur)
	return plan.Root.Outer
}

func chainTemplate(joins, variant int) *Template {
	p := chainProblem(joins, variant)
	bounds := map[int]Range{}
	p.Walk(func(n *qgm.Node) { bounds[n.ID] = Range{Lo: n.EstCardinality / 10, Hi: n.EstCardinality * 10} })
	guideline := "<OPTGUIDELINES><HSJOIN>"
	for i := 0; i <= joins; i++ {
		guideline += fmt.Sprintf("<TBSCAN TABID='TABLE_%d'/>", i+1)
	}
	guideline += "</HSJOIN></OPTGUIDELINES>"
	return &Template{
		Problem:      p,
		Bounds:       bounds,
		GuidelineXML: guideline,
		Improvement:  0.25,
		Structural:   true,
	}
}

// TestShardedAddRoutesToExactlyOneShard pins the partition invariant: a
// template's triples land in the shard its shape routes to and nowhere
// else, and the publication bumps only that shard's epoch.
func TestShardedAddRoutesToExactlyOneShard(t *testing.T) {
	k := NewSharded(4)
	if k.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", k.Shards())
	}
	guidelineProp := transform.Prop(transform.PropGuideline)
	for variant := 0; variant < 8; variant++ {
		tmpl := chainTemplate(1+variant%4, variant)
		want := k.ShardOf(tmpl)
		before := k.Epochs()
		if _, err := k.Add(tmpl); err != nil {
			t.Fatal(err)
		}
		after := k.Epochs()
		holders := 0
		for i := 0; i < 4; i++ {
			iri := transform.TemplateIRI(tmpl.ID)
			if len(k.ShardStore(i).Match(&iri, &guidelineProp, nil)) > 0 {
				holders++
				if i != want {
					t.Errorf("variant %d: triples in shard %d, routed to %d", variant, i, want)
				}
			}
			bumped := after[i] != before[i]
			if bumped != (i == want) {
				t.Errorf("variant %d: shard %d epoch %d -> %d (owning shard %d)", variant, i, before[i], after[i], want)
			}
		}
		if holders != 1 {
			t.Errorf("variant %d: template present in %d shards, want exactly 1", variant, holders)
		}
	}
	sizes := k.ShardSizes()
	total := 0
	for _, n := range sizes {
		total += n
	}
	if total != k.Size() {
		t.Errorf("ShardSizes sum = %d, Size = %d", total, k.Size())
	}
}

// TestShardedRoundTripAcrossShardCounts pins that serialization is
// shard-agnostic: a dump from a 4-shard KB loads into 1- and 2-shard KBs
// with the same templates, and re-dumps identically.
func TestShardedRoundTripAcrossShardCounts(t *testing.T) {
	src := NewSharded(4)
	for variant := 0; variant < 6; variant++ {
		if _, err := src.Add(chainTemplate(1+variant%3, variant)); err != nil {
			t.Fatal(err)
		}
	}
	dump := src.NTriples()
	for _, shards := range []int{1, 2, 4} {
		dst := NewSharded(shards)
		if err := dst.LoadNTriples(dump); err != nil {
			t.Fatalf("LoadNTriples into %d shards: %v", shards, err)
		}
		if dst.Size() != src.Size() {
			t.Errorf("%d shards: Size = %d, want %d", shards, dst.Size(), src.Size())
		}
		for _, tmpl := range src.Templates() {
			got := dst.FindBySignature(tmpl.Signature())
			if got == nil {
				t.Errorf("%d shards: signature %q lost in round trip", shards, tmpl.Signature())
				continue
			}
			if got.GuidelineXML != tmpl.GuidelineXML || got.Improvement != tmpl.Improvement {
				t.Errorf("%d shards: template %s diverged in round trip", shards, tmpl.ID)
			}
		}
		if redump := dst.NTriples(); redump != dump {
			t.Errorf("%d shards: re-dump differs from source dump", shards)
		}
	}
}

// TestRouteShapeDeterministicAndBounded pins the routing function: stable
// for equal inputs, in range, and falling back to join-count bands when no
// shape is available.
func TestRouteShapeDeterministicAndBounded(t *testing.T) {
	k := NewSharded(4)
	for variant := 0; variant < 10; variant++ {
		shape := chainProblem(1+variant%4, variant).ShapeSignature()
		a := k.RouteShape(shape, 2)
		b := k.RouteShape(shape, 2)
		if a != b {
			t.Errorf("RouteShape not deterministic for %q: %d vs %d", shape, a, b)
		}
		if a < 0 || a >= 4 {
			t.Errorf("RouteShape(%q) = %d out of range", shape, a)
		}
	}
	// Fallback: no shape routes by join band, still in range.
	for joins := 0; joins < 10; joins++ {
		s := k.RouteShape("", joins)
		if s < 0 || s >= 4 {
			t.Errorf("fallback RouteShape(joins=%d) = %d out of range", joins, s)
		}
	}
	if k.RouteShape("", 0) == k.RouteShape("", 4) {
		t.Error("join bands 0-1 and 4-5 should route differently on 4 shards")
	}
	// Single shard always routes to 0.
	single := New()
	if single.RouteShape("anything", 3) != 0 {
		t.Error("single-shard KB must route everything to shard 0")
	}
}

// TestLoadNTriplesIsAdditiveAndKeepsRawTriples pins the /data load
// contract: loads merge instead of replacing, and triples that are not part
// of any template survive the template reconstruction (in shard 0).
func TestLoadNTriplesIsAdditiveAndKeepsRawTriples(t *testing.T) {
	k := NewSharded(2)
	if _, err := k.Add(chainTemplate(1, 0)); err != nil {
		t.Fatal(err)
	}
	triplesBefore := k.Triples()
	if err := k.LoadNTriples("<http://x/a> <http://x/b> \"c\" .\n"); err != nil {
		t.Fatal(err)
	}
	if k.Triples() != triplesBefore+1 {
		t.Fatalf("raw triple dropped: %d triples, want %d", k.Triples(), triplesBefore+1)
	}
	if k.Size() != 1 {
		t.Fatalf("Size = %d after raw load, want the pre-existing 1", k.Size())
	}
	dump := k.NTriples()
	other := NewSharded(4)
	if _, err := other.Add(chainTemplate(2, 5)); err != nil {
		t.Fatal(err)
	}
	if err := other.LoadNTriples(dump); err != nil {
		t.Fatal(err)
	}
	if other.Size() != 2 {
		t.Errorf("additive load: Size = %d, want 2", other.Size())
	}
	if got := other.NTriples(); !strings.Contains(got, "<http://x/a>") {
		t.Error("raw triple lost across dump/load round trip")
	}
}

// TestRouteShapeIgnoresBloomFilterFlag pins a losslessness requirement: the
// probe SPARQL does not constrain the bloom-filter flag, so a template
// learned without one must live in the shard a bloom-filtered fragment of
// the same operator tree probes — "+BF" must not influence routing.
func TestRouteShapeIgnoresBloomFilterFlag(t *testing.T) {
	k := NewSharded(4)
	for variant := 0; variant < 8; variant++ {
		plain := chainProblem(2, variant)
		filtered := chainProblem(2, variant)
		filtered.Inner.BloomFilter = true
		if plain.ShapeSignature() == filtered.ShapeSignature() {
			t.Fatal("fixture broken: shapes should differ by +BF")
		}
		a := k.RouteShape(plain.ShapeSignature(), 2)
		b := k.RouteShape(filtered.ShapeSignature(), 2)
		if a != b {
			t.Errorf("variant %d: BF fragment routes to shard %d, plain template to %d", variant, b, a)
		}
	}
}

// TestShardedMergePreservesPerShardPublication pins that merging widens the
// existing template in place (same shard) rather than duplicating it
// elsewhere.
func TestShardedMergePreservesPerShardPublication(t *testing.T) {
	k := NewSharded(4)
	first := chainTemplate(2, 1)
	if _, err := k.Add(first); err != nil {
		t.Fatal(err)
	}
	owner := k.ShardOf(first)
	before := k.Epochs()
	again := chainTemplate(2, 1)
	again.Bounds[first.Problem.ID] = Range{Lo: 1, Hi: 1e6}
	again.Improvement = 0.9
	created, err := k.Add(again)
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("same-signature Add should merge, not create")
	}
	after := k.Epochs()
	for i := range after {
		bumped := after[i] != before[i]
		if bumped != (i == owner) {
			t.Errorf("merge publication: shard %d epoch %d -> %d (owner %d)", i, before[i], after[i], owner)
		}
	}
	if k.Size() != 1 {
		t.Errorf("Size after merge = %d, want 1", k.Size())
	}
}

// TestLoadNTriplesSeparatesTemplatesFromStrays loads a dump that mixes the
// triples of several templates with triples no template accounts for: the
// templates are routed to their shards exactly as a dump without strays
// would be, and every stray — one of them hanging off a template's own IRI,
// one given twice — lands in shard 0, once.
func TestLoadNTriplesSeparatesTemplatesFromStrays(t *testing.T) {
	source := NewSharded(4)
	for variant := 0; variant < 12; variant++ {
		if _, err := source.Add(chainTemplate(1+variant%3, variant)); err != nil {
			t.Fatal(err)
		}
	}
	clean := source.NTriples()
	tmplIRI := transform.TemplateIRI(source.Templates()[0].ID)
	strays := []rdf.Triple{
		{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/b"), O: rdf.NewLiteral("c")},
		{S: rdf.NewIRI("http://x/a"), P: rdf.NewIRI("http://x/b"), O: rdf.NewLiteral("1.0")},
		{S: tmplIRI, P: rdf.NewIRI("http://x/note"), O: rdf.NewLiteral("kept beside the template")},
	}
	dump := clean
	for _, tr := range strays {
		dump += tr.String() + "\n"
	}
	dump += strays[0].String() + "\n"

	want, loaded := NewSharded(4), NewSharded(4)
	if err := want.LoadNTriples(clean); err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadNTriples(dump); err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != 12 {
		t.Fatalf("Size = %d, want 12", loaded.Size())
	}
	for shard := 1; shard < 4; shard++ {
		if got, ref := loaded.ShardStore(shard).NTriples(), want.ShardStore(shard).NTriples(); got != ref {
			t.Errorf("shard %d differs from the same load without strays", shard)
		}
	}
	if got, ref := loaded.ShardStore(0).Len(), want.ShardStore(0).Len()+len(strays); got != ref {
		t.Errorf("shard 0 holds %d triples, want its templates' %d plus %d strays", got, ref-len(strays), len(strays))
	}
	for _, tr := range strays {
		tr := tr
		if n := len(loaded.ShardStore(0).Match(&tr.S, &tr.P, &tr.O)); n != 1 {
			t.Errorf("stray %v: %d copies in shard 0, want 1", tr, n)
		}
	}
	// The dump of the load is the input's triple set, and loading it again
	// changes nothing.
	again := NewSharded(2)
	if err := again.LoadNTriples(loaded.NTriples()); err != nil {
		t.Fatal(err)
	}
	if again.Triples() != loaded.Triples() || again.Size() != 12 {
		t.Errorf("reload: %d triples / %d templates, want %d / 12", again.Triples(), again.Size(), loaded.Triples())
	}
}
