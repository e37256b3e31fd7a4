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
// serial Execute of the query with those constants at that snapshot. A
// Prepared is immutable and every Run keeps its state to itself: -race sees
// any write that is shared.
func TestPreparedSharedAcrossGoroutines(t *testing.T) {
	store := bandStore(40)
	text := func(lo, hi int) string {
		return fmt.Sprintf(`PREFIX p: <http://p/>
SELECT ?pop ?lo WHERE {
 ?pop p:hasPopType "HSJOIN" .
 ?pop p:hasLowerCardinality ?lo .
 FILTER ( ?lo <= %d ) .
 FILTER ( ?lo >= %d ) .
} LIMIT 6`, hi, lo)
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
	const goroutines, rounds = 8, 40
	runs := make([][]run, goroutines)
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
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for r := 0; r < rounds; r++ {
				lo := (g*37 + r*11) % 300
				hi := lo + 10*(1+r%5)
				snap := store.Snapshot()
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
	for g := range runs {
		for _, r := range runs[g] {
			want, err := Execute(MustParse(text(r.lo, r.hi)), r.snap)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.sols, want) {
				t.Fatalf("goroutine %d, [%d, %d] at version %d:\ngot  %v\nwant %v", g, r.lo, r.hi, r.snap.Version(), r.sols, want)
			}
			versions[r.snap.Version()] = true
		}
	}
	if len(versions) < 2 {
		t.Fatalf("every run pinned one epoch: nothing was published beside them")
	}
	t.Logf("%d runs over %d epochs", goroutines*rounds, len(versions))
}
