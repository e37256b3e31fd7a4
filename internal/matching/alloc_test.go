package matching

import (
	"fmt"
	"runtime"
	"testing"

	"galo/internal/fuseki"
	"galo/internal/kb"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/transform"
	"galo/internal/workload/tpcds"
)

// threeJoinPlan is a left-deep 3-join plan — three fragments to probe — whose
// cardinalities lie below every matchingTemplate's bounds: like most probes,
// its three find no template.
func threeJoinPlan() *qgm.Plan {
	cur := &qgm.Node{Op: qgm.OpTBSCAN, Table: "T0", TableInstance: "Q0", EstCardinality: 7}
	for j, op := range []qgm.OpType{qgm.OpHSJOIN, qgm.OpNLJOIN, qgm.OpMSJOIN} {
		inst := fmt.Sprintf("Q%d", j+1)
		inner := &qgm.Node{Op: qgm.OpIXSCAN, Table: "T" + inst, TableInstance: inst, Index: "IX", EstCardinality: 7}
		cur = &qgm.Node{Op: op, Outer: cur, Inner: inner, EstCardinality: 9}
	}
	return qgm.NewPlan(cur)
}

// TestProbeAllocCeiling is the clock-free gate on the probe path: allocation
// counts repeat where microseconds do not. On the commit before probes were
// prepared (49b635a), where every fragment was rendered to SPARQL text to be
// looked up and that text lexed and parsed on a miss, a warm MatchPlanStats of
// this 3-join plan (three cache hits) took 559 allocations and a cold local
// probe of the one-join fragment (8 solutions) 1681; prepared they took 50
// (most of them enumerating the plan's fragments) and 234; with planning
// scratch recycled (PR 23) 19 and 228; with each probe form compiled once and
// evaluated over dictionary IDs (PR 25) a cold probe of a known form takes 30
// and the first probe of its form, which builds and compiles the query, 86.
func TestProbeAllocCeiling(t *testing.T) {
	knowledge := kb.New()
	for i := 0; i < 32; i++ {
		mustAdd(t, knowledge, matchingTemplate(i))
	}
	endpoint := fuseki.LocalEndpoint{Store: knowledge.Store()}
	// One worker: a second would add its goroutine to the cold pass only.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	eng := New(nil, endpoint, DefaultOptions())
	plan := threeJoinPlan()
	_, stats, err := eng.MatchPlanStats(plan)
	if err != nil || stats.Probes != 3 || stats.CacheHits != 0 {
		t.Fatalf("cold pass: %+v, %v", stats, err)
	}
	warm := testing.AllocsPerRun(50, func() {
		_, stats, err := eng.MatchPlanStats(plan)
		if err != nil || stats.CacheHits != 3 {
			t.Fatalf("warm pass: %+v, %v", stats, err)
		}
	})

	frag := oneJoinFragment()
	sel, _ := endpoint.PinEpoch()
	// probe is a cache miss as evaluate pays it, through the given forms.
	probe := func(forms *formCache) {
		p, err := transform.NewProbe(frag)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := forms.prepare(p)
		if err != nil {
			t.Fatal(err)
		}
		sols, err := sel(pr, p.Params())
		if err != nil || len(sols) != transform.ProbeSolutionLimit {
			t.Fatalf("cold probe: %d solutions, %v", len(sols), err)
		}
	}
	var forms formCache
	cold := testing.AllocsPerRun(50, func() { probe(&forms) })
	first := testing.AllocsPerRun(50, func() { probe(&formCache{}) })

	for _, c := range []struct {
		name            string
		allocs, ceiling float64
	}{
		{"warm MatchPlanStats, 3 joins", warm, 19},
		{"cold local probe of a compiled form, 1 join", cold, 48},
		{"cold local probe, first of its form, 1 join", first, 120},
	} {
		t.Logf("%s: %.0f allocations (ceiling %.0f)", c.name, c.allocs, c.ceiling)
		if c.allocs > c.ceiling {
			t.Errorf("%s: %.0f allocations, ceiling is %.0f", c.name, c.allocs, c.ceiling)
		}
	}
}

// raceDetector is set by racedetector_test.go.
var raceDetector bool

// TestReoptimizeAllocCeiling pins the bytes one warm Reoptimize allocates,
// averaged over a pool of one- to four-join workload queries plus the two
// queries the fixture's templates came from, which match and so are planned a
// second time under guidelines. TotalAlloc is exact; the lowest of a few
// windows drops what other goroutines allocated meanwhile. Before the query was
// prepared once for both searches and planning scratch was recycled, the same
// pool took 46 956 bytes per Reoptimize, and 16 032 before Prepare stopped
// rendering the SQL text and matched guidelines came from the parsed-guideline
// cache; the ceiling is 1.3x today's 12 507.
func TestReoptimizeAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops planning arenas at random under the race detector")
	}
	db, knowledge := fixture(t)
	eng := newEngine(db, knowledge)
	all := tpcds.Queries()
	pool := []*sqlparser.Query{all[4], all[8], all[34], all[40], tpcds.Fig8WideQuery(db), tpcds.Fig7Query()}
	rewritten := 0
	pass := func() {
		rewritten = 0
		for _, q := range pool {
			res, err := eng.Reoptimize(q)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			if res.ReoptimizedPlan != nil {
				rewritten++
			}
		}
	}
	pass() // fills the probe cache
	if rewritten == 0 {
		t.Fatal("no query of the pool matched a template: the second search is not measured")
	}
	const windows, passes, ceiling = 4, 4, 16_300
	bytes := ^uint64(0)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < passes; i++ {
			pass()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/uint64(passes*len(pool)))
	}
	t.Logf("%d bytes per Reoptimize (%d of %d queries planned twice; ceiling %d)", bytes, rewritten, len(pool), ceiling)
	if bytes > ceiling {
		t.Errorf("%d bytes per Reoptimize, ceiling is %d", bytes, ceiling)
	}
}
