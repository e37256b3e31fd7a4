package matching

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"galo/internal/fuseki"
	"galo/internal/kb"
	"galo/internal/qgm"
	"galo/internal/rdf"
	"galo/internal/sparql"
	"galo/internal/sqlparser"
	"galo/internal/transform"
	"galo/internal/workload/tpcds"
)

// TestConcurrentReoptimize drives one shared engine from concurrent
// Reoptimize calls — exercising the probe worker pool and the routinization
// cache under contention — while another goroutine mutates the knowledge
// base store, exercising version-based cache invalidation. Run with -race.
func TestConcurrentReoptimize(t *testing.T) {
	db, knowledge := fixture(t)
	eng := newEngine(db, knowledge)
	queries := []*sqlparser.Query{tpcds.Fig8Query(), tpcds.Fig7Query(), tpcds.Fig4Query(), tpcds.Fig3Query()}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				q := queries[(g+round)%len(queries)]
				res, err := eng.Reoptimize(q)
				if err != nil {
					t.Errorf("Reoptimize(%s): %v", q.Name, err)
					return
				}
				if res.OriginalPlan == nil {
					t.Errorf("Reoptimize(%s): missing original plan", q.Name)
				}
			}
		}(g)
	}
	// Concurrent knowledge base churn: bumps the store version so cached
	// probe results must be re-validated while matchers are running.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			knowledge.Store().Add(rdf.Triple{
				S: rdf.NewIRI("http://galo/kb/churn/subject"),
				P: rdf.NewIRI("http://galo/kb/churn/tick"),
				O: rdf.NewNumericLiteral(float64(i)),
			})
		}
	}()
	wg.Wait()
}

// oneJoinFragment is the fragment the probe tests below send: every
// matchingTemplate matches it.
func oneJoinFragment() *qgm.Node {
	outer := &qgm.Node{Op: qgm.OpTBSCAN, Table: "T_X", TableInstance: "Q1", EstCardinality: 40000}
	inner := &qgm.Node{Op: qgm.OpIXSCAN, Table: "T_Y", TableInstance: "Q2", Index: "IX_Y", EstCardinality: 900}
	join := &qgm.Node{Op: qgm.OpHSJOIN, Outer: outer, Inner: inner, EstCardinality: 120000}
	return qgm.NewPlan(join).Root.Outer
}

// matchingTemplate is template i of a family that all match oneJoinFragment;
// distinct table names keep their signatures apart, so the knowledge base
// stores each one.
func matchingTemplate(i int) *kb.Template {
	outer := &qgm.Node{Op: qgm.OpTBSCAN, Table: fmt.Sprintf("A%d", i), TableInstance: fmt.Sprintf("A%d", i), EstCardinality: 40000}
	inner := &qgm.Node{Op: qgm.OpIXSCAN, Table: fmt.Sprintf("B%d", i), TableInstance: fmt.Sprintf("B%d", i), Index: "IX", EstCardinality: 900}
	join := &qgm.Node{Op: qgm.OpHSJOIN, Outer: outer, Inner: inner, EstCardinality: 120000}
	problem := qgm.NewPlan(join).Root.Outer
	bounds := map[int]kb.Range{}
	problem.Walk(func(x *qgm.Node) { bounds[x.ID] = kb.Range{Lo: x.EstCardinality / 10, Hi: x.EstCardinality * 10} })
	return &kb.Template{
		Problem:      problem,
		Bounds:       bounds,
		GuidelineXML: "<OPTGUIDELINES><HSJOIN><TBSCAN TABID='TABLE_1'/><TBSCAN TABID='TABLE_2'/></HSJOIN></OPTGUIDELINES>",
		Improvement:  0.2,
		Structural:   true,
	}
}

func mustAdd(t *testing.T, knowledge *kb.KB, tmpl *kb.Template) {
	t.Helper()
	if _, err := knowledge.Add(tmpl); err != nil {
		t.Fatal(err)
	}
}

// probeOnce sends oneJoinFragment's probe the way a plan does: pin the
// shard, look the probe up, evaluate on a miss.
func probeOnce(eng *Engine) (sols []sparql.Solution, cached bool, err error) {
	p, err := transform.NewProbe(oneJoinFragment())
	if err != nil {
		return nil, false, err
	}
	conn := eng.planShards()[0]
	if sols, hit := eng.cached(0, conn, p); hit {
		return sols, true, nil
	}
	sols, err = eng.evaluate(0, conn, p)
	return sols, false, err
}

// TestProbeCacheServesFreshResultsAfterKBChange pins the invalidation
// contract: a cached probe result must not survive a knowledge base update —
// through an endpoint that is sent text and tagged conservatively, and
// through one that pins an epoch and is handed the prepared query.
func TestProbeCacheServesFreshResultsAfterKBChange(t *testing.T) {
	for _, path := range []struct {
		name     string
		endpoint func(*rdf.Store) Endpoint
	}{
		{"text", func(st *rdf.Store) Endpoint { return versionedStore{st} }},
		{"prepared", func(st *rdf.Store) Endpoint { return fuseki.LocalEndpoint{Store: st} }},
	} {
		t.Run(path.name, func(t *testing.T) {
			knowledge := kb.New()
			eng := New(nil, path.endpoint(knowledge.Store()), DefaultOptions())
			if eng.cache == nil {
				t.Fatal("cache not enabled for a versioned endpoint")
			}
			mustAdd(t, knowledge, matchingTemplate(0))
			sols, cached, err := probeOnce(eng)
			if err != nil || cached || len(sols) != 1 {
				t.Fatalf("first probe: sols=%d cached=%v err=%v", len(sols), cached, err)
			}
			sols, cached, err = probeOnce(eng)
			if err != nil || !cached || len(sols) != 1 {
				t.Fatalf("repeat probe should hit the cache: sols=%d cached=%v err=%v", len(sols), cached, err)
			}
			mustAdd(t, knowledge, matchingTemplate(1))
			sols, cached, err = probeOnce(eng)
			if err != nil || cached || len(sols) != 2 {
				t.Fatalf("probe after KB change must re-evaluate: sols=%d cached=%v err=%v", len(sols), cached, err)
			}
		})
	}
}

// versionedStore adapts a bare store into a VersionedEndpoint, proving the
// cache works against any conforming endpoint, not just the fuseki ones. It
// cannot pin an epoch, so it is sent the probe's text.
type versionedStore struct{ store *rdf.Store }

func (v versionedStore) Select(queryText string) ([]sparql.Solution, error) {
	q, err := sparql.Parse(queryText)
	if err != nil {
		return nil, err
	}
	return sparql.Execute(q, v.store.Snapshot())
}

func (v versionedStore) KBVersion() (uint64, bool) { return v.store.Version(), true }

// TestProbeCacheLRUEviction pins the cache's capacity and recency behavior.
// Eviction is per shard, so the test drives three keys that hash to the same
// shard of a cache whose shards hold two entries each.
func TestProbeCacheLRUEviction(t *testing.T) {
	c := newProbeCache(2 * probeCacheShards) // two entries per shard
	var keys []probeKey
	want := c.shard(probeKey{probe: "seed"})
	for i := 0; len(keys) < 3; i++ {
		k := probeKey{probe: fmt.Sprintf("key-%d", i)}
		if c.shard(k) == want {
			keys = append(keys, k)
		}
	}
	a, b, cc := keys[0], keys[1], keys[2]
	c.put(a, 1, nil)
	c.put(b, 1, nil)
	if _, hit := c.get(a, 1); !hit {
		t.Fatal("a should be cached")
	}
	c.put(cc, 1, nil) // evicts b (least recently used in the shard)
	if _, hit := c.get(b, 1); hit {
		t.Error("b should have been evicted")
	}
	if _, hit := c.get(a, 1); !hit {
		t.Error("a should have survived (recently used)")
	}
	if _, hit := c.get(cc, 1); !hit {
		t.Error("c should be cached")
	}
	if c.size() != 2 {
		t.Errorf("size = %d, want 2", c.size())
	}
	// A lookup from a newer epoch evicts the entry it supersedes.
	if _, hit := c.get(a, 2); hit {
		t.Error("stale version should miss")
	}
	if c.size() != 1 {
		t.Errorf("size after stale eviction = %d, want 1", c.size())
	}
}

// TestProbeCacheOlderEpochLeavesNewerEntry interleaves a plan pinned on
// epoch 5 with one pinned on epoch 6 — what every publication does to the
// plans in flight around it: the older plan misses, and neither its lookup
// nor its late put may cost the newer plan the entry it cached.
func TestProbeCacheOlderEpochLeavesNewerEntry(t *testing.T) {
	c := newProbeCache(64)
	key := probeKey{shard: 1, probe: "fragment"}
	v5 := []sparql.Solution{{"template": rdf.NewIRI("v5")}}
	v6 := []sparql.Solution{{"template": rdf.NewIRI("v6")}}

	c.put(key, 6, v6)
	if _, hit := c.get(key, 5); hit {
		t.Fatal("a plan pinned on epoch 5 was served epoch 6's solutions")
	}
	if got, hit := c.get(key, 6); !hit || got[0]["template"] != v6[0]["template"] {
		t.Fatalf("epoch 5's lookup evicted epoch 6's entry: hit=%v sols=%v", hit, got)
	}
	c.put(key, 5, v5)
	if got, hit := c.get(key, 6); !hit || got[0]["template"] != v6[0]["template"] {
		t.Fatalf("epoch 5's put replaced epoch 6's entry: hit=%v sols=%v", hit, got)
	}
	if _, hit := c.get(key, 5); hit {
		t.Fatal("epoch 5's put was stored over a newer entry")
	}
	// Forward is unchanged: epoch 7 supersedes epoch 6.
	c.put(key, 7, nil)
	if _, hit := c.get(key, 6); hit {
		t.Fatal("epoch 6 was served after epoch 7 replaced it")
	}
	if _, hit := c.get(key, 7); !hit {
		t.Fatal("epoch 7's entry is gone")
	}
}

// TestSingleflightDedupesIdenticalProbes issues the same probe from many
// goroutines against a slow endpoint and checks that concurrent callers
// joined one evaluation instead of each paying their own — on the text path
// and on the prepared one. The endpoint is released only once every caller
// but the leader has joined its flight: one released earlier would let a late
// caller find the cache filled instead.
func TestSingleflightDedupesIdenticalProbes(t *testing.T) {
	knowledge := kb.New()
	mustAdd(t, knowledge, matchingTemplate(0))
	for _, path := range []struct {
		name     string
		endpoint func(release chan struct{}) Endpoint
	}{
		{"text", func(release chan struct{}) Endpoint {
			return slowEndpoint{versionedStore{knowledge.Store()}, release}
		}},
		{"prepared", func(release chan struct{}) Endpoint {
			return slowPinner{fuseki.LocalEndpoint{Store: knowledge.Store()}, release}
		}},
	} {
		t.Run(path.name, func(t *testing.T) {
			release := make(chan struct{})
			eng := New(nil, path.endpoint(release), DefaultOptions())

			const clients = 8
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sols, _, err := probeOnce(eng)
					if err != nil || len(sols) != 1 {
						t.Errorf("probe: sols=%d err=%v", len(sols), err)
					}
				}()
			}
			awaitJoiners(&eng.flight, clients-1)
			close(release) // let the (deduplicated) evaluations proceed
			wg.Wait()
			if eng.DedupedProbes() == 0 {
				t.Error("no probes were deduplicated across 8 identical concurrent calls")
			}
			if eng.DedupedProbes() > clients-1 {
				t.Errorf("deduped %d probes from %d calls", eng.DedupedProbes(), clients)
			}
		})
	}
}

// awaitJoiners waits until n callers have joined the evaluations in flight.
func awaitJoiners(g *flightGroup, n int) {
	for {
		g.mu.Lock()
		joined := 0
		for _, c := range g.calls {
			joined += c.joiners
		}
		g.mu.Unlock()
		if joined >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// slowEndpoint blocks Selects until released, forcing concurrent probes to
// overlap deterministically.
type slowEndpoint struct {
	versionedStore
	release chan struct{}
}

func (s slowEndpoint) Select(queryText string) ([]sparql.Solution, error) {
	<-s.release
	return s.versionedStore.Select(queryText)
}

// slowPinner is slowEndpoint for the prepared path: the pinned select blocks
// until released.
type slowPinner struct {
	fuseki.LocalEndpoint
	release chan struct{}
}

func (s slowPinner) PinEpoch() (func(*sparql.Prepared, []float64) ([]sparql.Solution, error), uint64) {
	sel, version := s.LocalEndpoint.PinEpoch()
	return func(pr *sparql.Prepared, params []float64) ([]sparql.Solution, error) {
		<-s.release
		return sel(pr, params)
	}, version
}
