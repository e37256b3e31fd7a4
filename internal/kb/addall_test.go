package kb

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"galo/internal/qgm"
	"galo/internal/rdf"
)

// countPublications installs a commit hook on every shard of k that counts
// the epochs the shard publishes.
func countPublications(k *KB) []int {
	counts := make([]int, k.Shards())
	for i := range counts {
		k.ShardStore(i).SetCommitHook(func(_, _ []rdf.Triple, _ uint64) { counts[i]++ })
	}
	return counts
}

// drawBatch draws a batch over the published templates: fresh templates,
// repeats of an earlier draw of the batch and of a published template with
// other bounds, improvement and structural flag, and a template named with a
// published template's ID. Drawn twice from equal seeds, the batches are
// equal and share nothing.
func drawBatch(rng *rand.Rand, published []*Template, n int) []*Template {
	var batch []*Template
	for len(batch) < n {
		t := syntheticTemplate(rng, 1000+len(batch))
		switch r := rng.Intn(6); {
		case r == 0 && len(batch) > 0:
			t.Problem = batch[rng.Intn(len(batch))].Problem.Clone()
		case r == 1 && len(published) > 0:
			t.Problem = published[rng.Intn(len(published))].Problem.Clone()
		case r == 2 && len(published) > 0:
			t.ID = published[rng.Intn(len(published))].ID
		}
		t.Structural = rng.Intn(3) > 0
		t.GuidelineXML = fmt.Sprintf("<OPTGUIDELINES><HSJOIN><TBSCAN TABID='TABLE_%d'/></HSJOIN></OPTGUIDELINES>", rng.Intn(3))
		t.Bounds = map[int]Range{}
		t.Problem.Walk(func(x *qgm.Node) {
			if rng.Intn(2) == 0 {
				lo := float64(rng.Intn(1000))
				t.Bounds[x.ID] = Range{Lo: lo, Hi: lo + float64(rng.Intn(1000))}
			}
		})
		batch = append(batch, t)
	}
	return batch
}

// TestAddAllEqualsSequentialAdd holds AddAll to Add: random batches — with
// signatures repeated inside the batch, merges into published templates and
// a taken ID — must leave the same templates and byte-identical dumps as
// adding the batch one template at a time, while publishing exactly one
// epoch on each shard that owns a template of the batch and none elsewhere.
// Merge, which goes through AddAll, is pinned the same way.
func TestAddAllEqualsSequentialAdd(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for round := range 12 {
			t.Run(fmt.Sprintf("shards=%d/round=%d", shards, round), func(t *testing.T) {
				seq, all := NewSharded(shards), NewSharded(shards)
				grow(t, seq, rand.New(rand.NewSource(int64(round))), 16)
				grow(t, all, rand.New(rand.NewSource(int64(round))), 16)
				size := 1 + rand.New(rand.NewSource(int64(round))).Intn(40)
				seqBatch := drawBatch(rand.New(rand.NewSource(int64(100+round))), seq.Templates(), size)
				allBatch := drawBatch(rand.New(rand.NewSource(int64(100+round))), all.Templates(), size)

				created := 0
				for _, tmpl := range seqBatch {
					ok, err := seq.Add(tmpl)
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						created++
					}
				}
				publications := countPublications(all)
				got, err := all.AddAll(allBatch)
				if err != nil {
					t.Fatal(err)
				}
				if got != created {
					t.Errorf("AddAll created %d templates, Add one by one %d", got, created)
				}
				sameTemplates(t, seq.Templates(), all.Templates())
				if seq.NTriples() != all.NTriples() {
					t.Error("NTriples differs from adding one by one")
				}
				for i := range shards {
					if seq.ShardStore(i).NTriples() != all.ShardStore(i).NTriples() {
						t.Errorf("shard %d dump differs from adding one by one", i)
					}
				}
				owners := map[int]bool{}
				for _, tmpl := range allBatch {
					owners[all.ShardOf(tmpl)] = true
				}
				for i, n := range publications {
					if want := map[bool]int{true: 1}[owners[i]]; n != want {
						t.Errorf("shard %d published %d epochs, want %d (owners %v)", i, n, want, owners)
					}
				}
			})
		}
	}

	t.Run("LoadNTriples", func(t *testing.T) {
		// Two dumps sharing problem signatures under other IDs: loading both
		// must equal adding their templates one by one in ID order.
		a, b := New(), New()
		grow(t, a, rand.New(rand.NewSource(1)), 12)
		grow(t, b, rand.New(rand.NewSource(2)), 4)
		for i, tmpl := range a.Templates()[:6] {
			again := syntheticTemplate(rand.New(rand.NewSource(int64(i))), 500+i)
			again.Problem = tmpl.Problem.Clone()
			if _, err := b.Add(again); err != nil {
				t.Fatal(err)
			}
		}
		var refs []*Template
		for _, doc := range []string{a.NTriples(), b.NTriples()} {
			ref := New()
			if err := ref.LoadNTriples(doc); err != nil {
				t.Fatal(err)
			}
			refs = append(refs, ref.Templates()...)
		}
		slices.SortStableFunc(refs, func(x, y *Template) int { return strings.Compare(x.ID, y.ID) })
		want := NewSharded(4)
		for _, tmpl := range refs {
			if _, err := want.Add(tmpl); err != nil {
				t.Fatal(err)
			}
		}
		loaded := NewSharded(4)
		publications := countPublications(loaded)
		if err := loaded.LoadNTriples(a.NTriples() + b.NTriples()); err != nil {
			t.Fatal(err)
		}
		if loaded.Size() != 16 {
			t.Fatalf("loaded %d templates, want 16", loaded.Size())
		}
		sameTemplates(t, want.Templates(), loaded.Templates())
		if want.NTriples() != loaded.NTriples() {
			t.Error("the load's dump differs from adding its templates one by one")
		}
		for i, n := range publications {
			if n > 1 {
				t.Errorf("the load published %d epochs on shard %d", n, i)
			}
		}
	})

	t.Run("Merge", func(t *testing.T) {
		src, dst := NewSharded(4), NewSharded(4)
		grow(t, src, rand.New(rand.NewSource(3)), 24)
		grow(t, dst, rand.New(rand.NewSource(4)), 8)
		owners := map[int]bool{}
		for _, tmpl := range src.Templates() {
			owners[src.ShardOf(tmpl)] = true
		}
		for pass := range 2 { // the second pass merges every template into its copy
			publications := countPublications(dst)
			if err := dst.Merge(src); err != nil {
				t.Fatal(err)
			}
			for i, n := range publications {
				if want := map[bool]int{true: 1}[owners[i]]; n != want {
					t.Errorf("pass %d: Merge published %d epochs on shard %d, want %d", pass, n, i, want)
				}
			}
		}
		if dst.Size() != 32 {
			t.Errorf("Size after merging twice = %d, want 32", dst.Size())
		}
	})
}

// sameTemplates compares two template lists, sorted by ID, field by field.
func sameTemplates(t *testing.T, want, got []*Template) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d templates, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || g.Signature() != w.Signature() || !maps.Equal(g.Bounds, w.Bounds) ||
			g.GuidelineXML != w.GuidelineXML || g.Improvement != w.Improvement || g.Structural != w.Structural {
			t.Errorf("template %d: got %+v, want %+v", i, *g, *w)
		}
	}
}
