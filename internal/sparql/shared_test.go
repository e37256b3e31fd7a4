package sparql

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"galo/internal/rdf"
)

// TestPreparedSharedAcrossGoroutines runs one Prepared from 8 goroutines, each
// with parameters of its own, on snapshots pinned on either side of
// publications a writer makes meanwhile; every result must deep-equal a
// serial Execute of the query with those constants at that snapshot. Each
// goroutine cycles through bands that hit, bands that miss and bands wide
// enough to be cut at the LIMIT, and alternates between the epoch pinned
// before the writer started and a fresh one, whose late values fall inside
// the hit bands. So scratch one Run leaked into the next — the Prepared's
// pool hands a finished Run's evaluator to the next — would change an
// answer. A Prepared's fields are never written by a Run and every Run keeps
// its state to itself: -race sees any write that is shared.
func TestPreparedSharedAcrossGoroutines(t *testing.T) {
	const goroutines, rounds, limit = 8, 40, 6
	// late is how many publications the second half of the rounds waits
	// for: by then every hit band holds late values.
	const late = 400
	store := bandStore(40)
	text := func(lo, hi int) string {
		return fmt.Sprintf(`PREFIX p: <http://p/>
SELECT ?pop ?lo WHERE {
 ?pop p:hasPopType "HSJOIN" .
 ?pop p:hasLowerCardinality ?lo .
 FILTER ( ?lo <= %d ) .
 FILTER ( ?lo >= %d ) .
} LIMIT %d`, hi, lo, limit)
	}
	shared, err := Prepare(MustParse(text(0, 0)))
	if err != nil {
		t.Fatal(err)
	}

	type run struct {
		snap   *rdf.Snapshot
		lo, hi int
		sols   []Solution
	}
	runs := make([][]run, goroutines)
	base := store.Snapshot()
	lateIn := make(chan struct{}) // closed after the late-th publication
	done := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			pop := rdf.NewIRI(fmt.Sprintf("http://x/late%03d", i))
			store.AddAll([]rdf.Triple{
				{S: pop, P: rdf.NewIRI("http://p/hasLowerCardinality"), O: rdf.NewNumericLiteral(float64(i % 400))},
				{S: pop, P: rdf.NewIRI("http://p/hasPopType"), O: rdf.NewLiteral("HSJOIN")},
			})
			if i%3 == 0 {
				store.Remove(&pop, nil, nil)
			}
			if i+1 == late {
				close(lateIn)
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for r := 0; r < rounds; r++ {
				if r == rounds/2 {
					<-lateIn
				}
				lo := (g*37 + r*11) % 300
				var hi int
				switch (g + r) % 3 {
				case 0: // a band holding one to six stored values
					hi = lo + 10*(1+r%5)
				case 1: // a band no value lies in
					lo, hi = 1000+lo, 1010+lo
				case 2: // a band holding more stored values than the LIMIT
					hi = lo + 10*limit*(2+r%3)
				}
				snap := base
				if r%2 == 1 {
					snap = store.Snapshot()
				}
				// The parameters in the order Prepare numbered the constants:
				// the upper bound's filter comes first.
				sols, err := shared.Run(snap, []float64{float64(hi), float64(lo)})
				if err != nil {
					t.Error(err)
					return
				}
				runs[g] = append(runs[g], run{snap, lo, hi, sols})
				runtime.Gosched() // let the writer publish between two pins
			}
		}()
	}
	readers.Wait()
	close(done)
	writer.Wait()

	versions := map[uint64]bool{}
	var empty, cut, within, moved int
	for g := range runs {
		for _, r := range runs[g] {
			q := MustParse(text(r.lo, r.hi))
			want, err := Execute(q, r.snap)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.sols, want) {
				t.Fatalf("goroutine %d, [%d, %d] at version %d:\ngot  %v\nwant %v", g, r.lo, r.hi, r.snap.Version(), r.sols, want)
			}
			switch len(want) {
			case 0:
				empty++
			case limit:
				cut++
			default:
				within++
			}
			if atBase, err := Execute(q, base); err != nil {
				t.Fatal(err)
			} else if !reflect.DeepEqual(want, atBase) {
				moved++
			}
			versions[r.snap.Version()] = true
		}
	}
	if empty == 0 || cut == 0 || within == 0 {
		t.Fatalf("%d empty runs, %d cut at the LIMIT and %d between: each kind must occur", empty, cut, within)
	}
	if moved == 0 {
		t.Fatalf("no run's answer differs from its answer at the first epoch: a Run reading another's snapshot would go unseen")
	}
	t.Logf("%d runs over %d epochs, %d answering otherwise than at the first", goroutines*rounds, len(versions), moved)
}
