package optimizer_test

import (
	"testing"

	"galo/internal/optimizer"
	"galo/internal/sqlparser"
	"galo/internal/workload/tpcds"
)

// TestArenaRetentionIsBounded plans TPCDS.Q91 (8 joins) and the same query
// with a tenth table — which, searched without the greedy bound, holds more
// candidates at once than an arena may keep — and then takes arenas out of the
// pool until it hands out a fresh one: none may come back with more than
// maxKeptChunks chunks or maxKeptTable table entries, and (the pool permitting)
// one does come back with chunks to reuse.
func TestArenaRetentionIsBounded(t *testing.T) {
	o := optimizer.New(db(t).Catalog, optimizer.DefaultOptions())
	q91 := tpcds.Queries()[90]
	wide := sqlparser.MustParse(q91.SQL() + ` AND F1.SS_STORE_SK = S1.S_STORE_SK`)
	wide.From = append(wide.From, sqlparser.TableRef{Table: "STORE", Alias: "S1"})

	p, err := o.Prepare(wide)
	if err != nil {
		t.Fatal(err)
	}
	peak, err := optimizer.UnboundedPeakChunks(o, p)
	if err != nil {
		t.Fatalf("10-table query: %v", err)
	}
	if peak <= optimizer.MaxKeptChunks {
		t.Fatalf("10-table query peaks at %d chunks, no more than the %d an arena keeps: the test needs a wider one", peak, optimizer.MaxKeptChunks)
	}
	for _, q := range []*sqlparser.Query{q91, wide} {
		if _, _, err := o.Optimize(q); err != nil {
			t.Fatal(err)
		}
	}

	kept := 0
	for i := 0; i < 64; i++ {
		chunks, entries := optimizer.PooledArena()
		if chunks > optimizer.MaxKeptChunks || entries > optimizer.MaxKeptTable {
			t.Errorf("pooled arena holds %d chunks and %d table entries; the caps are %d and %d",
				chunks, entries, optimizer.MaxKeptChunks, optimizer.MaxKeptTable)
		}
		if chunks == 0 {
			break
		}
		kept++
	}
	if kept == 0 && !optimizer.RaceDetector {
		t.Error("the pool handed back no arena with chunks: nothing is recycled")
	}
}
