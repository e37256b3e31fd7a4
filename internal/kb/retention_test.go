package kb

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// TestLoadNTriplesKeepsNoDocument: a knowledge base loaded from N-Triples
// keeps neither the document nor the scratch store it was reconstructed
// from. The document repeats one small knowledge base's dump, so its size is
// far beyond what the templates it holds need.
func TestLoadNTriplesKeepsNoDocument(t *testing.T) {
	source := New()
	grow(t, source, rand.New(rand.NewSource(5)), 8)
	dump := source.NTriples()
	k := New()
	var size int
	load := func() {
		doc := strings.Repeat(dump, 128)
		size = len(doc)
		if err := k.LoadNTriples(doc); err != nil {
			t.Fatal(err)
		}
	}
	before := liveHeap()
	load()
	retained := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(k)
	runtime.KeepAlive(dump)
	if k.Size() != source.Size() {
		t.Fatalf("loaded %d templates, the dump holds %d", k.Size(), source.Size())
	}
	t.Logf("a %d-byte document of %d templates leaves %d bytes on the heap", size, k.Size(), retained)
	if retained > int64(size/10) {
		t.Errorf("the knowledge base keeps %d bytes after loading a %d-byte document, ceiling is a tenth of it", retained, size)
	}
}
