package optimizer

import (
	"testing"

	"galo/internal/sqlparser"
	"galo/internal/workload/tpcds"
)

// RaceDetector is set by race_test.go. Under the race detector sync.Pool drops
// a quarter of what is Put, on purpose, so allocations per call measure the
// detector.
var RaceDetector bool

// TestArenaRetentionIsBounded plans TPCDS.Q91 (8 joins) and the same query
// with a tenth table — which holds more candidates at once than an arena may
// keep — and then takes arenas out of the pool until it hands out a fresh one:
// none may come back with more than maxKeptChunks chunks or maxKeptTable table
// entries, and (the pool permitting) one does come back with chunks to reuse.
func TestArenaRetentionIsBounded(t *testing.T) {
	o := New(db(t).Catalog, DefaultOptions())
	q91 := tpcds.Queries()[90]
	wide := sqlparser.MustParse(q91.SQL() + ` AND F1.SS_STORE_SK = S1.S_STORE_SK`)
	wide.From = append(wide.From, sqlparser.TableRef{Table: "STORE", Alias: "S1"})

	p, err := o.Prepare(wide)
	if err != nil {
		t.Fatal(err)
	}
	pc := o.newPlanCtx(p)
	if _, _, usedDP, err := pc.enumerateWith(constraintSet{}); err != nil || !usedDP {
		t.Fatalf("10-table query: usedDP %v, %v", usedDP, err)
	}
	if peak := len(pc.slab); peak <= maxKeptChunks {
		t.Fatalf("10-table query peaks at %d chunks, no more than the %d an arena keeps: the test needs a wider one", peak, maxKeptChunks)
	}
	pc.release()
	for _, q := range []*sqlparser.Query{q91, wide} {
		if _, _, err := o.Optimize(q); err != nil {
			t.Fatal(err)
		}
	}

	kept := 0
	for i := 0; i < 64; i++ {
		a := arenaPool.Get().(*planArena)
		if len(a.slab) > maxKeptChunks || cap(a.table.slots) > maxKeptTable {
			t.Errorf("pooled arena holds %d chunks and %d table entries; the caps are %d and %d",
				len(a.slab), cap(a.table.slots), maxKeptChunks, maxKeptTable)
		}
		if len(a.slab) == 0 {
			break
		}
		kept++
	}
	if kept == 0 && !RaceDetector {
		t.Error("the pool handed back no arena with chunks: nothing is recycled")
	}
}
