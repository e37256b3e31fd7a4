package wal

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"galo/internal/rdf"
)

// TestRecoveredStoreKeepsNoSnapshot: the stores Recover returns keep
// neither the snapshot file's bytes nor the N-Triples payload parsed out of
// them. The snapshot holds 1024 triples over 50 terms of a kilobyte each, so
// it is some sixty times the size of its vocabulary.
func TestRecoveredStoreKeepsNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	size := writeWideSnapshot(t, opts)
	before := liveHeap()
	rec := recoverDir(t, opts)
	retained := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(rec)
	if rec.Stats.SnapshotsLoaded != 1 || rec.Stores[0].Len() != 1024 {
		t.Fatalf("recovered %d snapshots and %d triples, want 1 and 1024", rec.Stats.SnapshotsLoaded, rec.Stores[0].Len())
	}
	t.Logf("a %d-byte snapshot leaves %d bytes on the heap", size, retained)
	if retained > int64(size/10) {
		t.Errorf("recovery keeps %d bytes of a %d-byte snapshot, ceiling is a tenth of it", retained, size)
	}
}

// writeWideSnapshot starts durability over one store of 1024 triples, which
// writes its snapshot, and closes it again; it returns the payload's size.
func writeWideSnapshot(t *testing.T, opts Options) int {
	term := func(kind string, i int) rdf.Term {
		name := fmt.Sprintf("http://x/%s/%d/", kind, i)
		return rdf.NewIRI(name + strings.Repeat("x", 1024-len(name)))
	}
	store := rdf.NewStore()
	var ts []rdf.Triple
	for s := range 16 {
		for p := range 2 {
			for o := range 32 {
				ts = append(ts, rdf.Triple{S: term("s", s), P: term("p", p), O: term("o", o)})
			}
		}
	}
	store.AddAll(ts)
	m, err := Start(opts, []*rdf.Store{store}, true, nil)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return len(store.NTriples())
}

// liveHeap returns the bytes of heap objects still reachable after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
