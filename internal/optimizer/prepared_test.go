package optimizer_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"galo/internal/optimizer"
)

// TestPreparedMatchesOptimize plans every golden-suite query the four ways
// TestGoldenPlans does — plain, guided, greedy, greedy and guided — first by
// four independent Optimize calls, then by OptimizePrepared on a Prepared the
// four optimizers share: in that order, in the reverse order on a second
// Prepared, and from 8 goroutines at once on a third. Every plan and report
// must equal the independent call's byte for byte, its rewrite notes included.
// Each caller also appends to the notes it read from the report it was given,
// which under -race (and in the serial check) is what finds two reports, or
// two reads of one, sharing one backing array: every report must still read
// the independent call's notes afterwards.
func TestPreparedMatchesOptimize(t *testing.T) {
	queries, withNotes := 0, 0
	for _, c := range goldenCorpora(t) {
		gr := rand.New(rand.NewSource(int64(len(c.name)) + 7))
		for _, q := range c.queries {
			doc := randomGuidelines(gr, c.db.Catalog, q)
			var opts [4]*optimizer.Optimizer
			var want, wantNotes [4]string
			for i := range opts {
				o := optimizer.DefaultOptions()
				if i&1 != 0 {
					o.Guidelines = doc
				}
				if i&2 != 0 {
					o.JoinEnumDPLimit = 3
				}
				opts[i] = optimizer.New(c.db.Catalog, o)
				p, r, err := opts[i].Optimize(q)
				want[i] = renderEntry(q.Name, preparedSQL(opts[i], q), p, r, err)
				if r != nil {
					wantNotes[i] = fmt.Sprintf("%q", r.RewriteNotes())
				}
			}
			name := c.name + "/" + q.Name
			prepare := func() *optimizer.Prepared {
				prepared, err := opts[0].Prepare(q)
				if err != nil {
					if got := renderEntry(q.Name, "", nil, nil, err); got != want[0] {
						t.Errorf("%s: Prepare fails differently from Optimize\n got: %s\nwant: %s", name, got, want[0])
					}
					return nil
				}
				return prepared
			}
			// plan checks mode i over the shared Prepared; how names the caller,
			// and is appended to the notes it read.
			plan := func(prepared *optimizer.Prepared, i int, how string) (*optimizer.Report, []string) {
				p, r, err := opts[i].OptimizePrepared(prepared)
				if got := renderEntry(q.Name, prepared.SQL(), p, r, err); got != want[i] {
					t.Errorf("%s, mode %d, %s: differs from an independent Optimize\n got: %s\nwant: %s", name, i, how, got, want[i])
				}
				if r == nil {
					return nil, nil
				}
				notes := r.RewriteNotes()
				if got := fmt.Sprintf("%q", notes); got != wantNotes[i] {
					t.Errorf("%s, mode %d, %s: rewrite notes differ from an independent Optimize's\n got: %s\nwant: %s", name, i, how, got, wantNotes[i])
				}
				return r, append(notes, how)
			}
			forwards, backwards, shared := prepare(), prepare(), prepare()
			if forwards == nil {
				continue
			}
			queries++
			var reports []*optimizer.Report
			var appended [][]string
			for i := range opts {
				r, notes := plan(forwards, i, fmt.Sprint("forwards ", i))
				reports, appended = append(reports, r), append(appended, notes)
				plan(backwards, len(opts)-1-i, "backwards")
			}
			for i, r := range reports {
				if r == nil {
					continue
				}
				if len(appended[i]) > 1 {
					withNotes++
				}
				if last := appended[i][len(appended[i])-1]; last != fmt.Sprint("forwards ", i) {
					t.Errorf("%s: the note appended to the notes of report %d reads %q: reports share a backing array", name, i, last)
				}
				if got := fmt.Sprintf("%q", r.RewriteNotes()); got != wantNotes[i] {
					t.Errorf("%s: report %d reads %s after its notes were appended to, want %s: a read shares the report's backing array", name, i, got, wantNotes[i])
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := range opts {
						plan(shared, (i+g)%len(opts), "concurrently")
					}
				}(g)
			}
			wg.Wait()
		}
	}
	if queries < 300 || withNotes == 0 {
		t.Errorf("%d queries prepared, %d reports with rewrite notes: the suite no longer covers what it is for", queries, withNotes)
	}
}
