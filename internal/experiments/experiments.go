// Package experiments implements the paper's evaluation harness: one function
// per experiment (Exp-1 .. Exp-6, Figures 9-14), each returning the rows of
// the corresponding figure or table so that the benchmarks in the repository
// root and the galo-experiments command can regenerate them.
//
// Absolute numbers differ from the paper (the substrate is a simulator and
// the data is scaled down); the experiments section of README.md records, per
// experiment, the shape that is expected to hold and what was measured.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"galo/internal/core"
	"galo/internal/expert"
	"galo/internal/fuseki"
	"galo/internal/kb"
	"galo/internal/learning"
	"galo/internal/matching"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/transform"
	"galo/internal/workload/client"
	"galo/internal/workload/scenario"
	"galo/internal/workload/tpcds"
)

// Config controls the scale of the experiment harness. The defaults keep
// every experiment runnable in minutes on a laptop; raising Scale and the
// query limits approaches the paper's setup.
type Config struct {
	Seed int64
	// Scale is the fallback data scale for workloads without an entry in
	// WorkloadScales.
	Scale float64
	// WorkloadScales sets the data scale per workload name ("tpcds",
	// "client", "ohlc", "joblike", "trace"). Scenario scale is per-workload
	// because the hazards need different geometries: OHLC needs a deep
	// calendar at small row counts, while the TPC-DS rescue numbers need
	// large fact tables. Missing or non-positive entries fall back to Scale.
	WorkloadScales map[string]float64
	// TPCDSQueries / ClientQueries limit how many workload queries are used
	// (0 = all: 99 and 116 respectively); a zoo scenario uses all its hazard
	// queries.
	TPCDSQueries  int
	ClientQueries int
	// Learning is the learning engine configuration of harness runs; each
	// experiment sets JoinThreshold, Seed and Workload on a copy.
	Learning learning.Options
}

// DefaultConfig returns the laptop-scale configuration used by the
// benchmarks.
func DefaultConfig() Config {
	cfg := Config{
		Seed: defaultSeed,
		// 10x the pre-streaming-executor default (0.12): concurrent plan
		// execution no longer materializes every intermediate, so the hazard
		// experiments can afford the data volumes where the Figure 8 rescue
		// numbers get dramatic. CI and the test suite pass their own smaller
		// explicit scales.
		Scale: 1.2,
		// The zoo scenarios are cheaper per row than the TPC-DS harness and
		// their hazards are scale-invariant, so they run smaller by default.
		// tpcds/client deliberately have no entry: they follow Scale, so
		// callers that shrink Scale (tests, CI) shrink those workloads too.
		WorkloadScales: map[string]float64{
			"ohlc":    0.4,
			"joblike": 1.0,
			"trace":   0.8,
		},
		TPCDSQueries:  28,
		ClientQueries: 36,
		Learning:      learning.DefaultOptions(),
	}
	cfg.Learning.RandomPlans = 6
	cfg.Learning.Runs = 2
	cfg.Learning.PredicateVariants = 1
	cfg.Learning.Workers = 4
	cfg.Learning.MaxSubQueriesPerQuery = 16
	return cfg
}

// defaultSeed is DefaultConfig's Seed: TPC-DS's DefaultGen seed.
const defaultSeed = 20190522

func (c Config) learningOptions(workload string, joinThreshold int) learning.Options {
	opts := c.Learning
	opts.JoinThreshold = joinThreshold
	opts.Seed = c.Seed
	opts.Workload = workload
	return opts
}

// ScaleFor returns the data scale for a workload: its WorkloadScales entry
// when present and positive, Config.Scale otherwise.
func (c Config) ScaleFor(workload string) float64 {
	if s, ok := c.WorkloadScales[workload]; ok && s > 0 {
		return s
	}
	return c.Scale
}

// generate builds a workload's database and queries for a harness run: its
// DefaultGen at ScaleFor, the seed shifted by Seed's distance from the default
// (TPC-DS at Seed, client at Seed+1, the zoo at its own seeds by default), and
// the first TPCDSQueries / ClientQueries of its queries.
func (c Config) generate(sc scenario.Scenario) (*storage.Database, []*sqlparser.Query, error) {
	gen := sc.DefaultGen()
	gen.Seed += c.Seed - defaultSeed
	gen.Scale = c.ScaleFor(sc.Name())
	db, err := sc.Generate(gen)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: generate: %w", sc.Name(), err)
	}
	limit := map[string]int{"tpcds": c.TPCDSQueries, "client": c.ClientQueries}[sc.Name()]
	return db, sc.HazardQueries(db, limit), nil
}

// --- Exp-1 / Figure 9: learning scalability ----------------------------------

// Exp1Row is one point of Figure 9 plus the Exp-1 aggregate numbers.
type Exp1Row struct {
	JoinThreshold    int
	AvgMsPerQuery    float64
	AvgMsPerSubQuery float64
	SubQueries       int
	TemplatesLearned int
	AvgImprovement   float64
	// Report is the run's full learning report: the funnel and phase times
	// behind the row.
	Report *learning.Report
}

// RunExp1 measures learning time per query and per sub-query as the
// join-number threshold grows (Figure 9), and reports how many templates were
// learned and their average improvement (Exp-1).
func RunExp1(cfg Config, thresholds []int) ([]Exp1Row, error) {
	if len(thresholds) == 0 {
		thresholds = []int{1, 2, 3, 4}
	}
	var rows []Exp1Row
	for _, th := range thresholds {
		db, queries, err := cfg.generate(tpcds.New())
		if err != nil {
			return nil, err
		}
		knowledge := kb.New()
		eng := learning.New(db, knowledge, cfg.learningOptions("tpcds", th))
		report, err := eng.LearnWorkload(queries)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Exp1Row{
			JoinThreshold:    th,
			AvgMsPerQuery:    report.AvgWallPerQuery(),
			AvgMsPerSubQuery: report.AvgWallPerSubQuery(),
			SubQueries:       report.SubQueriesAnalyzed,
			TemplatesLearned: report.TemplatesAdded,
			AvgImprovement:   report.AvgImprovement,
			Report:           report,
		})
	}
	return rows, nil
}

// --- Exp-2 / Figure 10: matching performance improvement ---------------------

// Exp2Workload is one workload's half of Exp-2: the per-query outcomes, the
// knowledge base size after learning the workload (before any import), and
// the learning funnel — when a workload learns nothing, the first stage at
// zero says why.
type Exp2Workload struct {
	Outcomes  []core.QueryOutcome
	Summary   core.WorkloadSummary
	Templates int
	Funnel    learning.Funnel

	sys     *core.System
	queries []*sqlparser.Query
}

// Exp2Result holds both workloads' halves plus the cross-workload reuse count.
type Exp2Result struct {
	TPCDS, Client Exp2Workload
	// CrossWorkloadMatches counts client-workload queries improved by a
	// rewrite learned on TPC-DS (the 6-out-of-23 result of Exp-2).
	CrossWorkloadMatches int
}

// RunExp2 learns on both workloads and re-optimizes both, reporting Figure
// 10a, Figure 10b and the cross-workload reuse count.
func RunExp2(cfg Config) (*Exp2Result, error) {
	// TPC-DS: learn then re-optimize (Figure 10a).
	tp, err := cfg.exp2Run(tpcds.New(), nil)
	if err != nil {
		return nil, err
	}
	// Client: learn on the client workload, then merge in the TPC-DS
	// knowledge so cross-workload reuse can be observed (Figure 10b).
	cl, err := cfg.exp2Run(client.New(), tp.sys)
	if err != nil {
		return nil, err
	}
	return &Exp2Result{TPCDS: *tp, Client: *cl, CrossWorkloadMatches: countCrossWorkloadMatches(cl.sys, cl.queries)}, nil
}

// exp2Run learns on sc's workload and re-optimizes it, after importing
// teacher's knowledge base when teacher is not nil.
func (cfg Config) exp2Run(sc scenario.Scenario, teacher *core.System) (*Exp2Workload, error) {
	db, queries, err := cfg.generate(sc)
	if err != nil {
		return nil, err
	}
	w := &Exp2Workload{queries: queries}
	w.sys = core.NewSystem(db, core.Config{
		Learning: cfg.learningOptions(sc.Name(), 4),
		Matching: matching.DefaultOptions(),
	})
	report, err := w.sys.Learn(queries)
	if err != nil {
		return nil, err
	}
	w.Funnel, w.Templates = report.Funnel, w.sys.KB().Size()
	if teacher != nil {
		if err := w.sys.ImportKB(teacher.KB()); err != nil {
			return nil, err
		}
	}
	w.Outcomes, w.Summary, err = w.sys.ReoptimizeWorkload(queries)
	return w, err
}

// countCrossWorkloadMatches re-runs matching for the improved client queries
// and counts those whose matched template was learned on the TPC-DS workload.
func countCrossWorkloadMatches(sys *core.System, queries []*sqlparser.Query) int {
	byIRI := map[string]string{}
	for _, t := range sys.KB().Templates() {
		byIRI[t.ID] = t.SourceWorkload
	}
	count := 0
	for _, q := range queries {
		res, err := sys.Reoptimize(q)
		if err != nil || len(res.Matches) == 0 {
			continue
		}
		for _, m := range res.Matches {
			id := m.TemplateIRI[strings.LastIndex(m.TemplateIRI, "/")+1:]
			if byIRI[id] == "tpcds" {
				count++
				break
			}
		}
	}
	return count
}

// --- Exp-3 / Figure 11: matching scalability ---------------------------------

// Exp3Row is one bucket of Figure 11: matching time per rewrite for queries of
// a given join width.
type Exp3Row struct {
	Tables int
	// MatchMillisPerCall is what the matching engine spent per probe: the
	// prepared path, through its (cold) cache.
	MatchMillisPerCall float64
	// TextMillisPerCall is the same fragments probed as SPARQL text — render,
	// parse, evaluate — the way a remote endpoint is asked.
	TextMillisPerCall float64
	Fragments         int
}

// RunExp3 measures the time to probe the knowledge base as the number of
// joined tables grows, using the wide TPC-DS queries.
func RunExp3(cfg Config, widths []int) ([]Exp3Row, error) {
	if len(widths) == 0 {
		widths = []int{2, 4, 8, 15, 24, 32}
	}
	db, _, err := cfg.generate(tpcds.New())
	if err != nil {
		return nil, err
	}
	sys := core.NewSystem(db, core.Config{
		Learning: cfg.learningOptions("tpcds", 4),
		Matching: matching.DefaultOptions(),
	})
	// Learn over a handful of queries so the knowledge base is non-trivial.
	if _, err := sys.Learn([]*sqlparser.Query{tpcds.Fig3Query(), tpcds.Fig4Query(), tpcds.Fig7Query(), tpcds.Fig8Query()}); err != nil {
		return nil, err
	}
	var rows []Exp3Row
	for _, w := range widths {
		q := tpcds.WideQuery(w)
		res, err := sys.Reoptimize(q)
		if err != nil {
			return nil, err
		}
		plan, err := sys.Optimize(q)
		if err != nil {
			return nil, err
		}
		fragments := plan.EnumerateSubPlans(4)
		per := 0.0
		if res.ProbeStats.Probes > 0 {
			per = res.ProbeStats.TotalMillis / float64(res.ProbeStats.Probes)
		}
		knowledge := sys.KB()
		textStart := time.Now()
		for _, frag := range fragments {
			text, _, err := transform.FragmentMatchQuery(frag.Root)
			if err != nil {
				return nil, err
			}
			store := knowledge.ShardStore(knowledge.RouteShape(frag.Root.ShapeSignature(), frag.Joins))
			if _, err := (fuseki.LocalEndpoint{Store: store}).Select(text); err != nil {
				return nil, err
			}
		}
		perText := 0.0
		if len(fragments) > 0 {
			perText = float64(time.Since(textStart).Microseconds()) / 1000 / float64(len(fragments))
		}
		rows = append(rows, Exp3Row{Tables: w, MatchMillisPerCall: per, TextMillisPerCall: perText, Fragments: len(fragments)})
	}
	return rows, nil
}

// --- Exp-4 / Figure 12: routinization -----------------------------------------

// Exp4Row is one point of Figure 12: total time to match a workload of the
// given size against a knowledge base of the given size.
type Exp4Row struct {
	Queries     int
	KBTemplates int
	TotalMillis float64
}

// RunExp4 measures how matching scales with workload size and knowledge base
// size. The knowledge base is inflated with synthetic templates to reach the
// requested sizes, as the paper does to reach 1,000 problem patterns.
func RunExp4(cfg Config, querySizes, kbSizes []int) ([]Exp4Row, error) {
	if len(querySizes) == 0 {
		querySizes = []int{10, 20, 40}
	}
	if len(kbSizes) == 0 {
		kbSizes = []int{50, 200, 1000}
	}
	db, allQueries, err := cfg.generate(tpcds.New())
	if err != nil {
		return nil, err
	}
	var rows []Exp4Row
	for _, kbSize := range kbSizes {
		knowledge := kb.New()
		if err := InflateKB(knowledge, kbSize, cfg.Seed); err != nil {
			return nil, err
		}
		eng := matching.New(db.Catalog, fuseki.LocalEndpoint{Store: knowledge.Store()}, matching.DefaultOptions())
		opt := optimizer.New(db.Catalog, optimizer.DefaultOptions())
		for _, qn := range querySizes {
			queries := allQueries
			for len(queries) < qn {
				queries = append(queries, allQueries...)
			}
			queries = queries[:qn]
			start := time.Now()
			for _, q := range queries {
				plan, _, err := opt.Optimize(q)
				if err != nil {
					return nil, err
				}
				if _, err := eng.MatchPlan(plan); err != nil {
					return nil, err
				}
			}
			rows = append(rows, Exp4Row{
				Queries:     qn,
				KBTemplates: knowledge.Size(),
				TotalMillis: float64(time.Since(start).Microseconds()) / 1000,
			})
		}
	}
	return rows, nil
}

// InflateKB fills a knowledge base with synthetic problem-pattern templates
// of realistic shapes (1-3 joins over canonical tables with random method and
// cardinality bounds) until it holds n templates, published as one AddAll,
// which merges a repeated signature as adding one by one would.
func InflateKB(knowledge *kb.KB, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	methods := qgm.JoinMethods()
	scans := []qgm.OpType{qgm.OpTBSCAN, qgm.OpIXSCAN, qgm.OpFETCH}
	size, drawn := knowledge.Size(), map[string]bool{}
	var batch []*kb.Template
	for size < n {
		joins := 1 + rng.Intn(3)
		var node *qgm.Node
		for i := 0; i <= joins; i++ {
			op := scans[rng.Intn(len(scans))]
			leaf := &qgm.Node{Op: op, Table: fmt.Sprintf("TABLE_%d", i+1), TableInstance: fmt.Sprintf("TABLE_%d", i+1),
				EstCardinality: float64(10 + rng.Intn(1_000_000))}
			if op != qgm.OpTBSCAN {
				leaf.Index = fmt.Sprintf("INDEX_%d", i+1)
			}
			if node == nil {
				node = leaf
				continue
			}
			node = &qgm.Node{Op: methods[rng.Intn(len(methods))], Outer: node, Inner: leaf,
				EstCardinality: float64(10 + rng.Intn(1_000_000))}
		}
		plan := qgm.NewPlan(node)
		problem := plan.Root.Outer
		bounds := map[int]kb.Range{}
		problem.Walk(func(x *qgm.Node) {
			bounds[x.ID] = kb.Range{Lo: x.EstCardinality / 2, Hi: x.EstCardinality * 2}
		})
		guidelineXML := "<OPTGUIDELINES><HSJOIN><TBSCAN TABID='TABLE_1'/><TBSCAN TABID='TABLE_2'/></HSJOIN></OPTGUIDELINES>"
		batch = append(batch, &kb.Template{
			Problem:        problem,
			Bounds:         bounds,
			GuidelineXML:   guidelineXML,
			Improvement:    0.1 + rng.Float64()*0.5,
			Structural:     true,
			SourceWorkload: "synthetic",
			SourceQuery:    fmt.Sprintf("SYN.%d", size),
		})
		if sig := problem.Signature(); !drawn[sig] && knowledge.FindBySignature(sig) == nil {
			drawn[sig] = true
			size++
		}
	}
	_, err := knowledge.AddAll(batch)
	return err
}

// --- Exp-5 and Exp-6 / Figures 13 and 14: cost and quality vs experts --------

// Exp56Row compares manual and automatic problem determination for one
// problem query.
type Exp56Row struct {
	Pattern           int
	Query             string
	ExpertMinutes     float64
	GaloMinutes       float64
	ExpertImprovement float64
	GaloImprovement   float64
	ExpertFoundFix    bool
}

// RunExp56 runs the comparative study over the four problem queries of Exp-5
// and Exp-6: the simulated experts' diagnosis time and plan quality against
// GALO's learning engine.
func RunExp56(cfg Config) ([]Exp56Row, error) {
	db, _, err := cfg.generate(tpcds.New())
	if err != nil {
		return nil, err
	}
	problems := []*sqlparser.Query{tpcds.Fig4Query(), tpcds.Fig8Query(), tpcds.Fig7Query(), tpcds.Fig3Query()}
	var rows []Exp56Row
	for i, q := range problems {
		exp := expert.New(db, expert.DefaultOptions())
		expRes, err := exp.Diagnose(q)
		if err != nil {
			return nil, err
		}
		knowledge := kb.New()
		eng := learning.New(db, knowledge, cfg.learningOptions("exp56", 4))
		galoRep, err := eng.LearnQuery(q)
		if err != nil {
			return nil, err
		}
		galoImp := 0.0
		for _, v := range galoRep.BestImprovements {
			if v > galoImp {
				galoImp = v
			}
		}
		rows = append(rows, Exp56Row{
			Pattern:           i + 1,
			Query:             q.Name,
			ExpertMinutes:     expRes.ManualMinutes + expRes.MachineMillis/60000,
			GaloMinutes:       galoRep.SimulatedWorkMillis / 60000,
			ExpertImprovement: expRes.Improvement,
			GaloImprovement:   galoImp,
			ExpertFoundFix:    expRes.Found,
		})
	}
	return rows, nil
}
