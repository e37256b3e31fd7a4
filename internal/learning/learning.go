package learning

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"galo/internal/executor"
	"galo/internal/guideline"
	"galo/internal/kb"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/randplan"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/transform"
)

// Options configures the learning engine.
type Options struct {
	// JoinThreshold caps sub-query size in number of joins; the paper finds
	// four to be the sweet spot.
	JoinThreshold int
	// MaxSubQueriesPerQuery caps sub-query enumeration for very wide queries.
	MaxSubQueriesPerQuery int
	// RandomPlans is how many alternative plans to request per sub-query.
	RandomPlans int
	// PredicateVariants is how many alternative predicate values to sample
	// per equality predicate when establishing property ranges.
	PredicateVariants int
	// Runs is the number of measurement repetitions billed per plan: each
	// would time the same deterministic run, so a plan is executed once and
	// ranked on that run, and Runs scales only the simulated work and the
	// executions asked.
	Runs int
	// MinImprovement is the relative improvement a rewrite must show over the
	// optimizer's plan to enter the knowledge base.
	MinImprovement float64
	// BoundsSlack widens learned cardinality bounds by this factor so that
	// structurally identical plans with nearby cardinalities still match.
	BoundsSlack float64
	// Workers is the parallelism of offline learning (the paper parallelizes
	// over several machines during off-peak hours; here, over goroutines).
	Workers int
	// Seed drives random plan generation and predicate-variant sampling.
	// Per-query derived seeds depend only on the query text, never on worker
	// scheduling, so a workload learns the same knowledge base at any worker
	// count.
	Seed int64
	// Workload labels the provenance of learned templates.
	Workload string
}

// DefaultOptions returns the configuration used in the experiments.
func DefaultOptions() Options {
	return Options{
		JoinThreshold:         4,
		MaxSubQueriesPerQuery: 48,
		RandomPlans:           8,
		PredicateVariants:     2,
		Runs:                  3,
		MinImprovement:        0.15,
		BoundsSlack:           4.0,
		Workers:               runtime.NumCPU(),
		Seed:                  1,
		Workload:              "default",
	}
}

// Engine is the offline learning engine. It remembers which sub-query
// structures it has already analyzed, so re-learning an overlapping workload
// skips known structures instead of re-deriving (and possibly duplicating)
// their templates.
type Engine struct {
	DB   *storage.Database
	KB   *kb.KB
	Opts Options

	mu   sync.Mutex
	seen map[string]bool
}

// New returns a learning engine over the database that populates the given
// knowledge base.
func New(db *storage.Database, knowledge *kb.KB, opts Options) *Engine {
	if opts.JoinThreshold <= 0 {
		opts.JoinThreshold = 4
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.BoundsSlack < 1 {
		opts.BoundsSlack = 1
	}
	return &Engine{DB: db, KB: knowledge, Opts: opts, seen: map[string]bool{}}
}

// claim marks a sub-query structure as analyzed, reporting false when it was
// already known to this engine.
func (e *Engine) claim(key string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seen[key] {
		return false
	}
	e.seen[key] = true
	return true
}

// unclaim releases claims after a failed run, so a retry re-analyzes the
// structures this run claimed but may never have finished.
func (e *Engine) unclaim(keys []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, k := range keys {
		delete(e.seen, k)
	}
}

// Funnel counts what survived each stage of learning — per sub-query in
// QueryReport.SubQueryFunnels, summed in QueryReport.Funnel and Report.Funnel —
// so a run that learned nothing shows the stage where its candidates ran out.
type Funnel struct {
	// Variants is the predicate variants planned; PlansGenerated the plans
	// generated for them (one optimizer plan per variant plus its random
	// alternatives).
	Variants       int
	PlansGenerated int
	// ExecutionsAsked is how many plan executions the ranking stands for
	// (Runs per plan); ExecutionsDistinct how many the executor actually ran
	// (each plan once); ExecutionsAborted how many of those were stopped at
	// their budget.
	ExecutionsAsked    int
	ExecutionsDistinct int
	ExecutionsAborted  int
	// BeatBaseline counts alternatives faster than their baseline by
	// MinImprovement; StructuralWinners the variants whose chosen winner
	// differs structurally from the optimizer's plan.
	BeatBaseline      int
	StructuralWinners int
	// TemplatesAdded / TemplatesMerged split the published templates into new
	// ones and those merged into a template with the same problem signature.
	TemplatesAdded  int
	TemplatesMerged int
}

func (f *Funnel) add(g Funnel) {
	f.Variants += g.Variants
	f.PlansGenerated += g.PlansGenerated
	f.ExecutionsAsked += g.ExecutionsAsked
	f.ExecutionsDistinct += g.ExecutionsDistinct
	f.ExecutionsAborted += g.ExecutionsAborted
	f.BeatBaseline += g.BeatBaseline
	f.StructuralWinners += g.StructuralWinners
	f.TemplatesAdded += g.TemplatesAdded
	f.TemplatesMerged += g.TemplatesMerged
}

// String renders the funnel on one line, widest stage first.
func (f Funnel) String() string {
	return fmt.Sprintf("variants %d, plans %d, executions asked %d / distinct %d / aborted at budget %d, "+
		"beat baseline %d, structural winners %d, templates added %d / merged %d",
		f.Variants, f.PlansGenerated, f.ExecutionsAsked, f.ExecutionsDistinct, f.ExecutionsAborted,
		f.BeatBaseline, f.StructuralWinners, f.TemplatesAdded, f.TemplatesMerged)
}

// QueryReport records the learning work done for one workload query.
type QueryReport struct {
	Query             string
	SubQueries        int
	CandidateRewrites int
	TemplatesAdded    int
	// BestImprovements holds the relative improvement of each rewrite found.
	BestImprovements []float64
	// WallMillis is the time spent on the query's sub-queries — planning,
	// executing (summed over the pool's workers) and ranking — and
	// SubQueryWallMillis the same per analyzed sub-query.
	// SimulatedWorkMillis is the total simulated execution time of all plans
	// measured (the dominant cost on a real system and the quantity compared
	// against experts in Exp-5): Runs times a plan's elapsed time, or Runs
	// times its budget when it was aborted there.
	WallMillis          float64
	SimulatedWorkMillis float64
	SubQueryWallMillis  []float64
	// Funnel sums SubQueryFunnels, which has one entry per sub-query.
	Funnel          Funnel
	SubQueryFunnels []Funnel
}

// Report summarizes learning over a workload.
type Report struct {
	Workload            string
	QueriesAnalyzed     int
	SubQueriesAnalyzed  int
	TemplatesAdded      int
	AvgImprovement      float64
	WallMillis          float64
	SimulatedWorkMillis float64
	// PlanMillis, ExecuteMillis and RankMillis split WallMillis over the
	// three phases (decomposition and claiming count as planning).
	PlanMillis, ExecuteMillis, RankMillis float64
	Funnel                                Funnel
	PerQuery                              []QueryReport
}

// AvgWallPerQuery returns the average wall-clock analysis time per query.
func (r *Report) AvgWallPerQuery() float64 {
	if r.QueriesAnalyzed == 0 {
		return 0
	}
	return r.WallMillis / float64(r.QueriesAnalyzed)
}

// AvgWallPerSubQuery returns the average wall-clock analysis time per
// sub-query.
func (r *Report) AvgWallPerSubQuery() float64 {
	if r.SubQueriesAnalyzed == 0 {
		return 0
	}
	total := 0.0
	count := 0
	for _, q := range r.PerQuery {
		for _, ms := range q.SubQueryWallMillis {
			total += ms
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// LearnWorkload analyzes every query of the workload and populates the
// knowledge base. Sub-queries with the same structure across queries are
// analyzed once, claimed in workload order; plans are generated and templates
// published in workload order too, and only plan execution fans out — so the
// learned knowledge base is the same bytes at any worker count.
func (e *Engine) LearnWorkload(queries []*sqlparser.Query) (*Report, error) {
	start := time.Now()
	report := &Report{Workload: e.Opts.Workload}
	results, err := e.learn(queries, report)
	if err != nil {
		return nil, err
	}
	improvements := []float64{}
	for _, qr := range results {
		report.QueriesAnalyzed++
		report.SubQueriesAnalyzed += qr.SubQueries
		report.TemplatesAdded += qr.TemplatesAdded
		report.SimulatedWorkMillis += qr.SimulatedWorkMillis
		report.Funnel.add(qr.Funnel)
		improvements = append(improvements, qr.BestImprovements...)
		report.PerQuery = append(report.PerQuery, *qr)
	}
	if len(improvements) > 0 {
		sum := 0.0
		for _, v := range improvements {
			sum += v
		}
		report.AvgImprovement = sum / float64(len(improvements))
	}
	report.WallMillis = millisSince(start)
	return report, nil
}

// LearnQuery analyzes a single query.
func (e *Engine) LearnQuery(q *sqlparser.Query) (*QueryReport, error) {
	results, err := e.learn([]*sqlparser.Query{q}, &Report{})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// decompose resolves the query against the schema and splits it into
// sub-queries up to the join threshold.
func (e *Engine) decompose(q *sqlparser.Query) ([]*sqlparser.Query, error) {
	// Decomposition needs resolved column references (to know which table
	// each predicate belongs to), so work on a resolved clone.
	work := q.Clone()
	if err := sqlparser.Resolve(work, e.DB.Catalog.Schema); err != nil {
		return nil, err
	}
	return SubQueries(work, e.Opts.JoinThreshold, e.Opts.MaxSubQueriesPerQuery), nil
}

func millisSince(start time.Time) float64 { return float64(time.Since(start).Microseconds()) / 1000 }

// variantWork is one predicate variant of a sub-query: the optimizer's plan
// for it and the random alternatives competing with that plan.
type variantWork struct {
	base execution
	alts []execution
}

// subQueryWork is one claimed sub-query on its way through the three phases.
type subQueryWork struct {
	sub      *sqlparser.Query
	variants []*variantWork
	// err is a planning failure: the sub-query yields nothing, but what was
	// planned before it is still executed and billed.
	err        error
	wallMillis float64
	funnel     Funnel
}

// learn claims the sub-queries of each query and takes them through the three
// phases of learning over one unit of work, the (variant, plan) execution:
//
//	plan    — sequentially, in workload → sub-query → variant order, so every
//	          query's value sampler and random plan generator consume their
//	          streams in one fixed order;
//	execute — every plan exactly once, on one pool of Options.Workers, in two
//	          waves: the optimizer's plans, then the alternatives, each bounded
//	          by what its baseline leaves it (see budget);
//	rank    — sequentially in workload order: ranking the stored executions,
//	          and publication.
//
// It returns one report per query and books the phase times on report. Claims
// are remembered across calls, so re-learning an overlapping workload skips
// everything already analyzed; a failed run releases its own, so a retry
// re-analyzes what it may have skipped (the KB merge de-duplicates whatever
// did complete).
func (e *Engine) learn(queries []*sqlparser.Query, report *Report) (results []*QueryReport, err error) {
	phase := time.Now()
	var claimed []string
	defer func() {
		if err != nil {
			e.unclaim(claimed)
		}
	}()
	opt := optimizer.New(e.DB.Catalog, optimizer.DefaultOptions())
	exec := executor.New(e.DB)
	work := make([][]*subQueryWork, len(queries))
	var baselines, alternatives []*execution
	for i, q := range queries {
		subs, err := e.decompose(q)
		if err != nil {
			return nil, fmt.Errorf("learning %s: %w", q.Name, err)
		}
		// The per-query seed is a function of the query text alone.
		seed := e.Opts.Seed + int64(querySeed(q.SQL()))
		gen := storage.NewGenerator(seed)
		planGen := randplan.New(opt, seed)
		for _, sub := range subs {
			key := StructureKey(sub)
			if !e.claim(key) {
				continue
			}
			claimed = append(claimed, key)
			sw := e.planSubQuery(sub, opt, exec, planGen, gen)
			work[i] = append(work[i], sw)
			for _, v := range sw.variants {
				baselines = append(baselines, &v.base)
			}
		}
	}
	report.PlanMillis = millisSince(phase)

	phase = time.Now()
	e.execute(baselines)
	for _, sws := range work {
		for _, sw := range sws {
			for _, v := range sw.variants {
				if v.base.Err != nil {
					continue // the sub-query fails at this baseline
				}
				budget := e.budget(v.base.Stats.ElapsedMillis)
				for a := range v.alts {
					v.alts[a].Budget = budget
					alternatives = append(alternatives, &v.alts[a])
				}
			}
		}
	}
	e.execute(alternatives)
	report.ExecuteMillis = millisSince(phase)

	phase = time.Now()
	results = make([]*QueryReport, len(queries))
	for i, q := range queries {
		results[i] = &QueryReport{Query: q.Name}
		for _, sw := range work[i] {
			if err := e.rankAndPublish(sw, results[i]); err != nil {
				return nil, fmt.Errorf("learning %s: %w", q.Name, err)
			}
		}
	}
	report.RankMillis = millisSince(phase)
	return results, nil
}

// planSubQuery is the plan phase of one sub-query: vary its predicates, and
// for every variant take the optimizer's plan and request random alternatives.
func (e *Engine) planSubQuery(sub *sqlparser.Query, opt *optimizer.Optimizer, exec *executor.Executor,
	planGen *randplan.Generator, gen *storage.Generator) *subQueryWork {

	start := time.Now()
	sw := &subQueryWork{sub: sub}
	for _, variant := range PredicateVariants(e.DB, sub, e.Opts.PredicateVariants, gen) {
		basePlan, _, err := opt.Optimize(variant)
		if err != nil {
			sw.err = err
			break
		}
		prep, err := exec.Prepare(variant)
		if err != nil {
			sw.err = err
			break
		}
		v := &variantWork{base: execution{Plan: basePlan, Query: prep}}
		sw.variants = append(sw.variants, v)
		sw.funnel.Variants++
		alts, err := planGen.RandomPlans(variant, e.Opts.RandomPlans)
		sw.funnel.PlansGenerated += 1 + len(alts)
		if err != nil {
			sw.err = err
			break
		}
		for _, p := range alts {
			v.alts = append(v.alts, execution{Plan: p, Query: prep})
		}
	}
	sw.wallMillis = millisSince(start)
	return sw
}

// budget is the simulated time an alternative may book before it can no
// longer enter the knowledge base: it would have to beat its baseline's
// elapsed time by MinImprovement. Widening by the ranker's tie band puts every
// aborted plan behind every qualifying one on elapsed time alone, so its
// partial counters never reach a tie-break. A result <= 0 means no bound.
func (e *Engine) budget(baselineMillis float64) float64 {
	return baselineMillis * (1 - e.Opts.MinImprovement) / (1 - tieBand)
}

// execute runs every execution once, on one pool of Options.Workers. A
// prepared query is never written, so the workers share each variant's; every
// execution owns its plan, whose actuals the run annotates.
func (e *Engine) execute(units []*execution) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(e.Opts.Workers, len(units)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; int(i) < len(units); i = next.Add(1) - 1 {
				x := units[i]
				start := time.Now()
				x.Stats, x.Err = x.Query.RunBounded(x.Plan, x.Budget)
				x.wallMillis = millisSince(start)
			}
		}()
	}
	wg.Wait()
}

// rankAndPublish is the third phase of one sub-query: rank its stored
// executions into candidate templates, publish them, and book the work on
// the query's report.
func (e *Engine) rankAndPublish(sw *subQueryWork, qr *QueryReport) error {
	start := time.Now()
	f := &sw.funnel
	qr.SubQueries++
	candidates, work, err := e.rankSubQuery(sw)
	qr.SimulatedWorkMillis += work
	// A sub-query that cannot be analyzed (e.g. unresolvable after
	// projection) is skipped, not fatal: the paper's engine simply moves on
	// to the next sub-query.
	if err == nil {
		for _, cand := range candidates {
			qr.CandidateRewrites++
			added, err := e.KB.Add(cand.template)
			if err != nil {
				return err
			}
			if added {
				f.TemplatesAdded++
			} else {
				f.TemplatesMerged++
			}
			qr.BestImprovements = append(qr.BestImprovements, cand.improvement)
		}
		qr.TemplatesAdded += f.TemplatesAdded
	}
	wall := sw.wallMillis + millisSince(start)
	for _, v := range sw.variants {
		wall += v.base.wallMillis
		for a := range v.alts {
			wall += v.alts[a].wallMillis
		}
	}
	if err == nil {
		qr.SubQueryWallMillis = append(qr.SubQueryWallMillis, wall)
	}
	qr.WallMillis += wall
	qr.Funnel.add(*f)
	qr.SubQueryFunnels = append(qr.SubQueryFunnels, *f)
	return nil
}

// querySeed hashes a query's text into a stable seed component (FNV-1a).
func querySeed(sql string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(sql); i++ {
		h ^= uint32(sql[i])
		h *= 16777619
	}
	return h
}

// candidate is one rewrite discovered for a sub-query.
type candidate struct {
	template    *kb.Template
	improvement float64
}

// rankSubQuery runs the Figure-3 / Section-3.2 loop for one sub-query over
// its stored executions: rank every variant's alternatives against the
// optimizer's plan, and abstract winning rewrites into templates. It returns
// the simulated work billed even when the sub-query fails.
func (e *Engine) rankSubQuery(sw *subQueryWork) ([]candidate, float64, error) {
	f := &sw.funnel
	type observation struct {
		problem     *qgm.Node
		solution    *qgm.Plan
		improvement float64
	}
	groups := map[string][]observation{}
	runs := max(e.Opts.Runs, 1)
	totalWork := 0.0
	bill := func(x *execution) {
		totalWork += x.billed(runs)
		f.ExecutionsAsked += runs
		f.ExecutionsDistinct++
	}

	for _, v := range sw.variants {
		bill(&v.base)
		if v.base.Err != nil {
			return nil, totalWork, v.base.Err
		}
		if len(v.alts) == 0 {
			continue
		}
		ranked := make([]*execution, len(v.alts))
		for a := range v.alts {
			ranked[a] = &v.alts[a]
			bill(ranked[a])
			if ranked[a].Stats.Aborted {
				f.ExecutionsAborted++
			}
		}
		sortExecutions(ranked)
		baseMillis := v.base.Stats.ElapsedMillis
		if baseMillis <= 0 {
			continue
		}
		problemFrag := problemFragment(v.base.Plan)
		if problemFrag == nil || problemFrag.CountJoins() == 0 {
			continue
		}
		// Prefer the fastest alternative whose structure actually differs
		// from the optimizer's plan: a structurally identical "winner" owes
		// its advantage to details (index choice) the guideline language does
		// not express, so a structurally different plan clearing the
		// improvement threshold is always the more useful rewrite to store.
		// Only when no such plan exists does the top-ranked identical-structure
		// winner survive (its match still routinizes the fragment even though
		// its guideline recommends no structural change).
		var best *execution
		structural := false
		for _, m := range ranked {
			if m.unranked() || m.Stats.ElapsedMillis <= 0 {
				continue
			}
			imp := (baseMillis - m.Stats.ElapsedMillis) / baseMillis
			if imp < e.Opts.MinImprovement {
				// Ranking breaks near-ties (within 2%) by resource usage, so
				// a qualifying plan can sort after a non-qualifying one —
				// keep scanning rather than stopping at the first miss.
				continue
			}
			f.BeatBaseline++
			frag := problemFragment(m.Plan)
			if frag == nil {
				continue
			}
			differs := frag.Signature() != problemFrag.Signature()
			if best == nil || (differs && !structural) {
				best, structural = m, differs
			}
		}
		if best == nil {
			continue
		}
		if structural {
			f.StructuralWinners++
		}
		improvement := (baseMillis - best.Stats.ElapsedMillis) / baseMillis
		key := problemFrag.Signature() + "=>" + problemFragment(best.Plan).Signature()
		groups[key] = append(groups[key], observation{problem: problemFrag, solution: best.Plan, improvement: improvement})
	}
	if sw.err != nil {
		return nil, totalWork, sw.err
	}

	// Groups become templates in sorted key order: two groups can share a
	// problem signature, and which of them kb.Add sees first decides the
	// merged template.
	var out []candidate
	for _, key := range slices.Sorted(maps.Keys(groups)) {
		obs := groups[key]
		tmpl, err := e.buildTemplate(sw.sub, obs[0].problem, obs[0].solution)
		if err != nil {
			continue
		}
		if frag := problemFragment(obs[0].solution); frag != nil {
			tmpl.Structural = frag.Signature() != obs[0].problem.Signature()
		}
		// Establish property ranges across the variants that shared this
		// problem/solution pair, then widen by the slack factor.
		bounds := map[int]kb.Range{}
		for _, o := range obs {
			o.problem.Walk(func(n *qgm.Node) {
				if r, ok := bounds[n.ID]; ok {
					bounds[n.ID] = r.Widen(n.EstCardinality)
				} else {
					bounds[n.ID] = kb.Range{Lo: n.EstCardinality, Hi: n.EstCardinality}
				}
			})
		}
		for id, r := range bounds {
			bounds[id] = kb.Range{Lo: r.Lo / e.Opts.BoundsSlack, Hi: r.Hi * e.Opts.BoundsSlack}
		}
		tmpl.Bounds = bounds
		mean := 0.0
		for _, o := range obs {
			mean += o.improvement
		}
		mean /= float64(len(obs))
		tmpl.Improvement = mean
		out = append(out, candidate{template: tmpl, improvement: mean})
	}
	return out, totalWork, nil
}

// problemFragment extracts the join-rooted fragment below RETURN (and any
// final SORT/GRPBY operators) of a plan.
func problemFragment(p *qgm.Plan) *qgm.Node {
	if p == nil || p.Root == nil {
		return nil
	}
	n := p.Root
	for n != nil && !n.Op.IsJoin() && !n.Op.IsScan() {
		n = n.Outer
	}
	return n
}

// buildTemplate abstracts a problem/solution pair into a knowledge base
// template: canonical labels replace table names, and the solution becomes an
// OPTGUIDELINES document whose TABIDs are canonical labels.
func (e *Engine) buildTemplate(sub *sqlparser.Query, problem *qgm.Node, solution *qgm.Plan) (*kb.Template, error) {
	labels := transform.CanonicalLabels(problem)
	abstractProblem := transform.Abstract(problem, labels)
	// Re-assign IDs on the abstracted fragment so bounds keyed by operator ID
	// are stable for the template.
	wrapped := qgm.NewPlan(abstractProblem.Clone())
	abstractProblem = wrapped.Root.Outer

	doc, err := guideline.FromPlan(solution)
	if err != nil {
		return nil, err
	}
	for _, g := range doc.Guidelines {
		canonicalizeGuideline(g, labels)
	}
	xmlText, err := doc.XML()
	if err != nil {
		return nil, err
	}
	return &kb.Template{
		Problem:        abstractProblem,
		GuidelineXML:   xmlText,
		SourceQuery:    sub.Name,
		SourceWorkload: e.Opts.Workload,
		Joins:          abstractProblem.CountJoins(),
	}, nil
}

// canonicalizeGuideline replaces concrete table instances with canonical
// labels and strips index names (indexes are context specific; the access
// method is what generalizes).
func canonicalizeGuideline(g *guideline.Element, labels map[string]string) {
	if g == nil {
		return
	}
	if g.TabID != "" {
		if label, ok := labels[strings.ToUpper(g.TabID)]; ok {
			g.TabID = label
		}
	}
	g.Table = ""
	g.Index = ""
	for _, c := range g.Children {
		canonicalizeGuideline(c, labels)
	}
}
