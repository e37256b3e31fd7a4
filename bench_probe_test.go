// Microbenchmarks for the knowledge base probe path, proving the property
// the dictionary-encoded store is built for: per-probe cost stays ~flat as
// the knowledge base grows (the KB-size independence behind Figures 11-12 of
// the paper). TestEmitBenchMatchingJSON records the measured numbers in
// BENCH_matching.json so future PRs can track the perf trajectory.
package galo_test

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"galo/internal/experiments"
	"galo/internal/fuseki"
	"galo/internal/kb"
	"galo/internal/matching"
	"galo/internal/qgm"
	"galo/internal/sparql"
	"galo/internal/transform"
)

// benchKBSizes are the 1x/4x/16x knowledge base sizes (in templates; each
// template carries ~15-30 triples).
var benchKBSizes = []int{60, 240, 960}

func inflatedKB(tb testing.TB, templates int) *kb.KB {
	tb.Helper()
	knowledge := kb.New()
	if err := experiments.InflateKB(knowledge, templates, 20190522); err != nil {
		tb.Fatal(err)
	}
	return knowledge
}

// probePlan builds a synthetic two-join plan shaped like the fragments the
// matching engine probes with (the same shapes InflateKB stores).
func probePlan() *qgm.Plan {
	scanA := &qgm.Node{Op: qgm.OpTBSCAN, Table: "T_A", TableInstance: "T_A", EstCardinality: 40000}
	scanB := &qgm.Node{Op: qgm.OpIXSCAN, Table: "T_B", TableInstance: "T_B", Index: "IX_B", EstCardinality: 900}
	scanC := &qgm.Node{Op: qgm.OpTBSCAN, Table: "T_C", TableInstance: "T_C", EstCardinality: 15000}
	join1 := &qgm.Node{Op: qgm.OpHSJOIN, Outer: scanA, Inner: scanB, EstCardinality: 120000}
	join2 := &qgm.Node{Op: qgm.OpNLJOIN, Outer: join1, Inner: scanC, EstCardinality: 350000}
	return qgm.NewPlan(join2)
}

// BenchmarkStoreMatch measures raw index probes against the dictionary-
// encoded store across 1x/4x/16x knowledge base sizes, through the ID-level
// reads the SPARQL evaluator uses. The probed subjects are fixed, so a
// KB-size-independent store must report ~constant ns/op across the three
// sub-benchmarks.
func BenchmarkStoreMatch(b *testing.B) {
	for _, size := range benchKBSizes {
		b.Run(fmt.Sprintf("templates=%d", size), func(b *testing.B) {
			snap := inflatedKB(b, size).Store().Snapshot()
			inTemplate, _ := snap.ID(transform.Prop(transform.PropInTemplate))
			popType, _ := snap.ID(transform.Prop(transform.PropPopType))
			popTypeTerm := snap.Term(popType)
			// The same operator resources exist at every size (InflateKB is
			// deterministic and prefix-stable), so the probed working set is
			// identical across sub-benchmarks.
			pops := snap.PredSubjectIDs(popType, nil)[:32]
			b.ReportMetric(float64(snap.Len()), "triples")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pop := pops[i%len(pops)]
				term := snap.Term(pop)
				snap.Match(&term, &popTypeTerm, nil)
				snap.ObjectIDs(pop, inTemplate)
				snap.ObjectIDs(pop, popType)
			}
		})
	}
}

// unbounded drops the LIMIT the transformation engine puts on probe queries,
// reconstructing the unbounded enumeration for comparison.
func unbounded(q *sparql.Query) *sparql.Query {
	all := *q
	all.Limit = 0
	return &all
}

// pinnedSelect is the select fuseki.LocalEndpoint.PinEpoch returns.
type pinnedSelect = func(*sparql.Prepared, []float64) ([]sparql.Solution, error)

// coldProbe is what a cache miss costs the matching engine against an
// in-process knowledge base: describe the fragment, find its compiled form
// (forms stands in for the engine's form cache, compiling on first sight),
// run it with the probe's parameters on the pinned epoch. Nothing is printed
// or parsed.
func coldProbe(tb testing.TB, frag *qgm.Node, forms map[string]*sparql.Prepared, sel pinnedSelect) {
	p, err := transform.NewProbe(frag)
	if err != nil {
		tb.Fatal(err)
	}
	pr := forms[p.FormKey()]
	if pr == nil {
		if pr, err = sparql.Prepare(p.Query()); err != nil {
			tb.Fatal(err)
		}
		forms[p.FormKey()] = pr
	}
	if _, err := sel(pr, p.Params()); err != nil {
		tb.Fatal(err)
	}
}

// saturatedKB builds a knowledge base of n distinct templates that ALL match
// the same one-join probe shape (HSJOIN over a TBSCAN and an IXSCAN, wide
// cardinality bounds): the worst case for cold probes, where solution
// enumeration used to grow linearly with the number of matching templates.
// Distinct canonical labels keep the problem signatures distinct, so the KB
// does not merge them.
func saturatedKB(tb testing.TB, n int) *kb.KB {
	tb.Helper()
	knowledge := kb.New()
	for i := 0; i < n; i++ {
		outer := &qgm.Node{Op: qgm.OpTBSCAN, Table: fmt.Sprintf("SAT_A%d", i), TableInstance: fmt.Sprintf("SAT_A%d", i), EstCardinality: 40000}
		inner := &qgm.Node{Op: qgm.OpIXSCAN, Table: fmt.Sprintf("SAT_B%d", i), TableInstance: fmt.Sprintf("SAT_B%d", i), Index: "IX", EstCardinality: 900}
		join := &qgm.Node{Op: qgm.OpHSJOIN, Outer: outer, Inner: inner, EstCardinality: 120000}
		plan := qgm.NewPlan(join)
		problem := plan.Root.Outer
		bounds := map[int]kb.Range{}
		problem.Walk(func(x *qgm.Node) {
			bounds[x.ID] = kb.Range{Lo: x.EstCardinality / 10, Hi: x.EstCardinality * 10}
		})
		if _, err := knowledge.Add(&kb.Template{
			Problem:      problem,
			Bounds:       bounds,
			GuidelineXML: "<OPTGUIDELINES><HSJOIN><TBSCAN TABID='TABLE_1'/><TBSCAN TABID='TABLE_2'/></HSJOIN></OPTGUIDELINES>",
			Improvement:  0.2 + float64(i%100)/1000,
			Structural:   true,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return knowledge
}

// saturatedProbe is the one-join fragment every saturatedKB template matches.
func saturatedProbe() *qgm.Node {
	outer := &qgm.Node{Op: qgm.OpTBSCAN, Table: "T_X", TableInstance: "Q1", EstCardinality: 40000}
	inner := &qgm.Node{Op: qgm.OpIXSCAN, Table: "T_Y", TableInstance: "Q2", Index: "IX_Y", EstCardinality: 900}
	join := &qgm.Node{Op: qgm.OpHSJOIN, Outer: outer, Inner: inner, EstCardinality: 120000}
	return qgm.NewPlan(join).Root.Outer
}

// BenchmarkKBProbeCold measures one full cold probe of a plan fragment
// against knowledge bases of growing size, bypassing the routinization cache:
// through the prepared path the matching engine takes (probe description, its
// form compiled once, selectivity-ordered evaluation over dictionary IDs), and
// through the text path a remote endpoint's server takes (parse and compile of
// a text rendered beforehand, then the same evaluation). Probes carry the matcher's LIMIT
// (transform.ProbeSolutionLimit), which bounds solution enumeration when many
// templates match.
func BenchmarkKBProbeCold(b *testing.B) {
	frag := probePlan().Root.Outer
	queryText, _, err := transform.FragmentMatchQuery(frag)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range benchKBSizes {
		endpoint := fuseki.LocalEndpoint{Store: inflatedKB(b, size).Store()}
		b.Run(fmt.Sprintf("prepared/templates=%d", size), func(b *testing.B) {
			sel, _ := endpoint.PinEpoch()
			forms := map[string]*sparql.Prepared{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coldProbe(b, frag, forms, sel)
			}
		})
		b.Run(fmt.Sprintf("text/templates=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := endpoint.Select(queryText); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKBProbeColdManyMatches probes a knowledge base in which EVERY
// template matches the probed fragment — the worst case the ROADMAP's
// cold-probe item describes, where solution enumeration dominates. The
// bounded variant carries the matcher's LIMIT (transform.ProbeSolutionLimit)
// and must stay ~flat as the matching-template count grows; the unbounded
// variant enumerates every match and grows linearly.
func BenchmarkKBProbeColdManyMatches(b *testing.B) {
	p, err := transform.NewProbe(saturatedProbe())
	if err != nil {
		b.Fatal(err)
	}
	for _, bounded := range []bool{true, false} {
		q := p.Query()
		name := "bounded"
		if !bounded {
			q = unbounded(q)
			name = "unbounded"
		}
		pr, err := sparql.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range benchKBSizes {
			b.Run(fmt.Sprintf("%s/templates=%d", name, size), func(b *testing.B) {
				sel, _ := fuseki.LocalEndpoint{Store: saturatedKB(b, size).Store()}.PinEpoch()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sel(pr, p.Params()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKBProbeRoutinized measures the same probes through the matching
// engine's LRU fingerprint cache — the paper's routinization fast path
// (Figure 12), which must be ~flat in knowledge base size.
func BenchmarkKBProbeRoutinized(b *testing.B) {
	plan := probePlan()
	for _, size := range benchKBSizes {
		b.Run(fmt.Sprintf("templates=%d", size), func(b *testing.B) {
			endpoint := fuseki.LocalEndpoint{Store: inflatedKB(b, size).Store()}
			eng := matching.New(nil, endpoint, matching.DefaultOptions())
			if _, err := eng.MatchPlan(plan); err != nil { // warm the cache
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.MatchPlan(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchRow is one BENCH_matching.json entry.
type benchRow struct {
	KBTemplates int `json:"kb_templates"`
	KBTriples   int `json:"kb_triples"`
	// ColdNsPerProbe is a cache miss as the matching engine pays it since
	// PR 15 (coldProbe: prepared path), of a form compiled before since PR 25;
	// ColdFirstNsPerProbe is the first probe of its form, which builds and
	// compiles the query (since PR 25; absent from older rows);
	// ColdTextNsPerProbe is the text path remote endpoints take (parse +
	// compile + evaluate).
	ColdNsPerProbe           float64 `json:"cold_ns_per_probe"`
	ColdFirstNsPerProbe      float64 `json:"cold_first_ns_per_probe,omitempty"`
	ColdTextNsPerProbe       float64 `json:"cold_text_ns_per_probe"`
	RoutinizedNsPerMatchPlan float64 `json:"routinized_ns_per_matchplan"`
	// The many-matches pair probes a KB where every template matches the
	// fragment: bounded carries the matcher's LIMIT, unbounded enumerates
	// everything (the pre-bound behaviour).
	ManyMatchesBoundedNs   float64 `json:"many_matches_bounded_ns"`
	ManyMatchesUnboundedNs float64 `json:"many_matches_unbounded_ns"`
}

// TestEmitBenchMatchingJSON measures probe latency across the 1x/4x/16x
// knowledge base sizes and records it in BENCH_matching.json, the perf
// trajectory file future PRs diff against. It only runs when
// GALO_BENCH_JSON=1 (CI's benchmark job sets it) so that a plain
// `go test ./...` stays hermetic.
func TestEmitBenchMatchingJSON(t *testing.T) {
	if os.Getenv("GALO_BENCH_JSON") == "" {
		t.Skip("set GALO_BENCH_JSON=1 to (re)write BENCH_matching.json")
	}
	plan := probePlan()
	frag := plan.Root.Outer
	queryText, _, err := transform.FragmentMatchQuery(frag)
	if err != nil {
		t.Fatal(err)
	}
	// Every column is the median of `passes` timings of `coldRounds` (or
	// warmRounds) rounds each, the columns taken in turn within a pass: this
	// machine's clock drifts by tens of percent between one second and the
	// next, and a single timing of 200 rounds read anything from 0.7x to 1.5x
	// of the same binary's next one.
	const passes, coldRounds, warmRounds = 7, 200, 500
	perRound := func(rounds int, round func()) float64 {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			round()
		}
		return float64(time.Since(start).Nanoseconds()) / float64(rounds)
	}
	median := func(v []float64) float64 {
		sort.Float64s(v)
		return v[len(v)/2]
	}
	var rows []benchRow
	for _, size := range benchKBSizes {
		store := inflatedKB(t, size).Store()
		endpoint := fuseki.LocalEndpoint{Store: store}
		sel, _ := endpoint.PinEpoch()

		// Worst-case enumeration: every template matches the probe.
		sat, err := transform.NewProbe(saturatedProbe())
		if err != nil {
			t.Fatal(err)
		}
		satSel, _ := fuseki.LocalEndpoint{Store: saturatedKB(t, size).Store()}.PinEpoch()
		saturated := func(q *sparql.Query) func() {
			pr, err := sparql.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			return func() {
				if _, err := satSel(pr, sat.Params()); err != nil {
					t.Fatal(err)
				}
			}
		}
		satBounded, satUnbounded := saturated(sat.Query()), saturated(unbounded(sat.Query()))

		eng := matching.New(nil, endpoint, matching.DefaultOptions())
		matchPlan := func() {
			if _, err := eng.MatchPlan(plan); err != nil {
				t.Fatal(err)
			}
		}
		matchPlan() // fills the fingerprint cache

		forms := map[string]*sparql.Prepared{}
		var cold, coldFirst, coldText, warm, bounded, unboundedNs []float64
		for p := 0; p < passes; p++ {
			cold = append(cold, perRound(coldRounds, func() { coldProbe(t, frag, forms, sel) }))
			coldFirst = append(coldFirst, perRound(coldRounds, func() { coldProbe(t, frag, map[string]*sparql.Prepared{}, sel) }))
			coldText = append(coldText, perRound(coldRounds, func() {
				if _, err := endpoint.Select(queryText); err != nil {
					t.Fatal(err)
				}
			}))
			bounded = append(bounded, perRound(coldRounds, satBounded))
			unboundedNs = append(unboundedNs, perRound(coldRounds/4, satUnbounded))
			warm = append(warm, perRound(warmRounds, matchPlan))
		}
		rows = append(rows, benchRow{
			KBTemplates:              size,
			KBTriples:                store.Len(),
			ColdNsPerProbe:           median(cold),
			ColdFirstNsPerProbe:      median(coldFirst),
			ColdTextNsPerProbe:       median(coldText),
			RoutinizedNsPerMatchPlan: median(warm),
			ManyMatchesBoundedNs:     median(bounded),
			ManyMatchesUnboundedNs:   median(unboundedNs),
		})
	}
	doc := map[string]any{
		"benchmark":   "knowledge base probe latency vs KB size (ns)",
		"note":        "cold = one fragment probe without cache through the prepared path as the matching engine pays it: probe description, its form's compiled query looked up (compiled once, by the first probe of the form), evaluation over dictionary IDs; cold_first = the first probe of its form, which also builds the query and compiles it (the column added by PR 25, so that the cached compile is not mistaken for the whole cost); cold_text = the same probe as text through LocalEndpoint.Select (parse + compile + evaluation), the path remote endpoints' servers take; routinized = full MatchPlan through the LRU fingerprint cache; many_matches_* = worst-case probe of a KB where every template matches, compiled once, with (bounded, LIMIT " + fmt.Sprint(transform.ProbeSolutionLimit) + ") and without (unbounded) the matcher's top-k bound. Near-constant columns across rows are the KB-size independence result (Figures 11-12). Every number is the median of 7 timings of 200 rounds (500 routinized, 50 unbounded), the columns measured in turn; one emission of either side spreads by about a quarter around its median on this machine. before = the rows committed before PR 25 (measured on PR 21's tree; nothing on the probe's read path changed until PR 25); before_pr21 = this test on commit fbd3d8a (index of nested maps, whole-map copy-on-write); before_pr15 = the single-timing version of the test on the commit before probes were prepared (49b635a), whose cold column is the text path; before_pr38 = this test on commit 9884ebf, where POS kept one table per predicate instead of one keyed by object: the two test binaries run alternately, five emissions each, the middle one by the 960-template cold column (11 453 / 11 676 / 11 708 / 11 811 / 12 079 ns before, 11 349 / 11 390 / 11 426 / 11 475 / 11 495 ns after; the rows of this file are the middle of three later emissions of the same code).",
		"env":         benchEnv(),
		"rows":        rows,
		"before":      matchingBeforePR25,
		"before_pr21": matchingBeforePR21,
		"before_pr15": matchingBefore,
		"before_pr38": matchingBeforePR38,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_matching.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_matching.json:\n%s", data)
}

// matchingBeforePR38 is TestEmitBenchMatchingJSON on the parent of PR 38 (see
// the note it is emitted with).
var matchingBeforePR38 = []benchRow{
	{KBTemplates: 60, KBTriples: 2345, ColdNsPerProbe: 3303.06, ColdFirstNsPerProbe: 11736.965, ColdTextNsPerProbe: 26426.77, RoutinizedNsPerMatchPlan: 1719.502, ManyMatchesBoundedNs: 11844.78, ManyMatchesUnboundedNs: 81195.68},
	{KBTemplates: 240, KBTriples: 10251, ColdNsPerProbe: 3729.495, ColdFirstNsPerProbe: 14119.795, ColdTextNsPerProbe: 32832.985, RoutinizedNsPerMatchPlan: 1252.7, ManyMatchesBoundedNs: 16387.095, ManyMatchesUnboundedNs: 286649.1},
	{KBTemplates: 960, KBTriples: 45190, ColdNsPerProbe: 11708.525, ColdFirstNsPerProbe: 20530.92, ColdTextNsPerProbe: 35729.135, RoutinizedNsPerMatchPlan: 1303.336, ManyMatchesBoundedNs: 38765.34, ManyMatchesUnboundedNs: 1275305.18},
}

// matchingBeforePR25 are the rows BENCH_matching.json held before PR 25 (see
// the note it is emitted with).
var matchingBeforePR25 = []benchRow{
	{KBTemplates: 60, KBTriples: 2345, ColdNsPerProbe: 19372.26, ColdTextNsPerProbe: 56959.497, RoutinizedNsPerMatchPlan: 4268.193, ManyMatchesBoundedNs: 62647.717, ManyMatchesUnboundedNs: 350049.9},
	{KBTemplates: 240, KBTriples: 10251, ColdNsPerProbe: 25590.887, ColdTextNsPerProbe: 64333.71, RoutinizedNsPerMatchPlan: 4372.885, ManyMatchesBoundedNs: 96209.997, ManyMatchesUnboundedNs: 1520443.45},
	{KBTemplates: 960, KBTriples: 45190, ColdNsPerProbe: 60031.3, ColdTextNsPerProbe: 100646.577, RoutinizedNsPerMatchPlan: 3980.426, ManyMatchesBoundedNs: 223738.807, ManyMatchesUnboundedNs: 6551219.47},
}

// matchingBeforePR21 is TestEmitBenchMatchingJSON on the parent of PR 21 (see
// the note it is emitted with).
var matchingBeforePR21 = []benchRow{
	{KBTemplates: 60, KBTriples: 2345, ColdNsPerProbe: 21750.37, ColdTextNsPerProbe: 58189.503, RoutinizedNsPerMatchPlan: 4520.646, ManyMatchesBoundedNs: 64484.675, ManyMatchesUnboundedNs: 354470.29},
	{KBTemplates: 240, KBTriples: 10251, ColdNsPerProbe: 25654.255, ColdTextNsPerProbe: 62959.83, RoutinizedNsPerMatchPlan: 4622.646, ManyMatchesBoundedNs: 99561.148, ManyMatchesUnboundedNs: 1528939.62},
	{KBTemplates: 960, KBTriples: 45190, ColdNsPerProbe: 60342.243, ColdTextNsPerProbe: 109058.315, RoutinizedNsPerMatchPlan: 3375.5, ManyMatchesBoundedNs: 264861.453, ManyMatchesUnboundedNs: 6833594.76},
}

// matchingBefore is TestEmitBenchMatchingJSON on the parent of PR 15 (see the
// note it is emitted with).
var matchingBefore = []benchRow{
	{KBTemplates: 60, KBTriples: 2345, ColdNsPerProbe: 76253.265, ColdTextNsPerProbe: 76253.265, RoutinizedNsPerMatchPlan: 47938.506, ManyMatchesBoundedNs: 476415.325, ManyMatchesUnboundedNs: 3319994.62},
	{KBTemplates: 240, KBTriples: 10251, ColdNsPerProbe: 90311.785, ColdTextNsPerProbe: 90311.785, RoutinizedNsPerMatchPlan: 50286.21, ManyMatchesBoundedNs: 540686.38, ManyMatchesUnboundedNs: 12178503.645},
	{KBTemplates: 960, KBTriples: 45190, ColdNsPerProbe: 307708.03, ColdTextNsPerProbe: 307708.03, RoutinizedNsPerMatchPlan: 62824.806, ManyMatchesBoundedNs: 2311805.87, ManyMatchesUnboundedNs: 63998177.415},
}
