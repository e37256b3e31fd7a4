package rdf

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// wideDocument renders subjects × predicates × objects distinct triples over
// terms padded to width bytes: a document some 3·triples/terms times the size
// of its vocabulary.
func wideDocument(subjects, predicates, objects, width int) string {
	term := func(kind string, i int) string {
		name := fmt.Sprintf("http://x/%s/%d/", kind, i)
		return "<" + name + strings.Repeat("x", width-len(name)) + ">"
	}
	var b strings.Builder
	for s := range subjects {
		for p := range predicates {
			for o := range objects {
				fmt.Fprintf(&b, "%s %s %s .\n", term("s", s), term("p", p), term("o", o))
			}
		}
	}
	return b.String()
}

// liveHeap returns the bytes of heap objects still reachable after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLoadedStoreKeepsNoDocument: the terms a store interns from a parsed
// document are copies, so the document is garbage once loaded. A term kept
// as a substring of it would keep all of it.
func TestLoadedStoreKeepsNoDocument(t *testing.T) {
	s := NewStore()
	var size int
	load := func() {
		doc := wideDocument(16, 2, 32, 1024)
		size = len(doc)
		if err := s.LoadNTriples(doc); err != nil {
			t.Fatal(err)
		}
	}
	before := liveHeap()
	load()
	retained := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(s)
	t.Logf("a %d-byte document of %d triples leaves %d bytes on the heap", size, s.Len(), retained)
	if retained > int64(size/10) {
		t.Errorf("the store keeps %d bytes after loading a %d-byte document, ceiling is a tenth of it", retained, size)
	}
}
