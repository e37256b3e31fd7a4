package matching

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"galo/internal/catalog"
	"galo/internal/guideline"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sparql"
	"galo/internal/sqlparser"
	"galo/internal/transform"
)

// Endpoint is anything that can answer SPARQL SELECT queries: the in-process
// knowledge base (fuseki.LocalEndpoint) or a remote Fuseki-style server
// (fuseki.Client). Implementations must be safe for concurrent use — the
// engine fans per-fragment probes out across a worker pool.
type Endpoint interface {
	Select(query string) ([]sparql.Solution, error)
}

// VersionedEndpoint is an Endpoint that can report a version counter for the
// knowledge base contents it serves. Probe results are cached only for
// versioned endpoints, so that knowledge base updates invalidate the cache
// instead of serving stale guidelines.
type VersionedEndpoint interface {
	Endpoint
	// KBVersion returns the current knowledge base version; ok is false when
	// the version is momentarily unavailable (e.g. a remote endpoint that
	// cannot be reached), which disables caching for that probe.
	KBVersion() (version uint64, ok bool)
}

// EpochPinner is an Endpoint that can pin one knowledge base epoch: PinEpoch
// returns the current epoch, frozen, plus its version. The engine pins once
// per plan, so every probe of the plan — and every cache entry and
// singleflight key those probes produce — belongs to exactly that epoch; the
// version tag can never disagree with the data actually read, even while
// learning publishes new epochs mid-plan. The pinned epoch takes the probe as
// its compiled form and its parameters (the sparql.Prepared of
// transform.Probe.AppendFormKey's form, transform.Probe.AppendParams): an
// endpoint that can pin an epoch is in this process, so nothing has to be
// printed, parsed or compiled on the way. In-process endpoints (fuseki.LocalEndpoint) implement this; remote
// endpoints cannot, are sent the probe's text through Endpoint.Select, and
// fall back to the conservative KBVersion tagging (an entry tagged with a
// superseded version is replaced by the next evaluation).
type EpochPinner interface {
	PinEpoch() (sparql.Pinned, uint64)
}

// Options configures the matching engine.
type Options struct {
	// MaxJoins caps the size of matched sub-plans; the paper uses the same
	// threshold (four) as the learning engine.
	MaxJoins int
	// OptimizerOptions configures the optimizer used for the initial plan and
	// the re-optimization pass.
	OptimizerOptions optimizer.Options
	// ProbeCacheSize is the capacity of the fragment-fingerprint → probe
	// result LRU cache (the paper's routinization fast path, Figure 12).
	// 0 means the default of 4096 entries; a negative value disables the
	// cache. The cache is only active for VersionedEndpoints.
	ProbeCacheSize int
	// TolerateProbeErrors keeps a plan's matching usable when a shard
	// endpoint fails even after the transport's own retries: the failed
	// fragment counts as unmatched (ProbeStats.Errors)
	// instead of failing the whole MatchPlan. Fleet deployments enable it so
	// a dead shard degrades only that shard's rewrites, never the request.
	TolerateProbeErrors bool
}

// DefaultOptions returns the configuration used in the experiments.
func DefaultOptions() Options {
	return Options{MaxJoins: 4, OptimizerOptions: optimizer.DefaultOptions()}
}

// Router maps a plan fragment's shape signature (qgm.Node.ShapeSignature)
// and join count to the index of the knowledge base shard whose templates
// could match it. It must agree with the routing the knowledge base applied
// when templates were published (kb.KB.RouteShape); a nil Router sends every
// probe to shard 0.
type Router func(shape string, joins int) int

// Engine is the online matching engine. It is safe for concurrent use.
type Engine struct {
	Cat  *catalog.Catalog
	Opts Options

	// endpoints holds one knowledge base endpoint per shard; route picks the
	// shard a fragment's probe goes to. Both are immutable after New.
	endpoints []Endpoint
	route     Router

	cache       *probeCache
	forms       formCache
	guidelines  guidelineCache
	flight      flightGroup
	deduped     atomic.Int64
	shardProbes []atomic.Int64
}

// New returns a matching engine over the catalog and a single (unsharded)
// knowledge base endpoint.
func New(cat *catalog.Catalog, endpoint Endpoint, opts Options) *Engine {
	return NewSharded(cat, []Endpoint{endpoint}, nil, opts)
}

// NewSharded returns a matching engine over a sharded knowledge base: one
// endpoint per shard, with route deciding which shard each fragment probes.
// The routinization cache is enabled only when every endpoint can report a
// version (VersionedEndpoint), so no shard can serve stale guidelines.
func NewSharded(cat *catalog.Catalog, endpoints []Endpoint, route Router, opts Options) *Engine {
	if len(endpoints) == 0 {
		panic("matching: NewSharded needs at least one endpoint")
	}
	if opts.MaxJoins <= 0 {
		opts.MaxJoins = 4
	}
	cacheSize := opts.ProbeCacheSize
	if cacheSize == 0 {
		cacheSize = 4096
	}
	e := &Engine{
		Cat:         cat,
		Opts:        opts,
		endpoints:   endpoints,
		route:       route,
		shardProbes: make([]atomic.Int64, len(endpoints)),
	}
	allVersioned := true
	for _, ep := range endpoints {
		if _, ok := ep.(VersionedEndpoint); !ok {
			allVersioned = false
			break
		}
	}
	if allVersioned && cacheSize > 0 {
		e.cache = newProbeCache(cacheSize)
	}
	return e
}

// ProbesByShard returns how many fragment probes each shard has answered
// (cache hits included) since the engine was built — the fan-out profile a
// deployment watches to spot routing skew.
func (e *Engine) ProbesByShard() []int64 {
	out := make([]int64, len(e.shardProbes))
	for i := range e.shardProbes {
		out[i] = e.shardProbes[i].Load()
	}
	return out
}

// shardFor routes one fragment to the shard whose templates could match it.
func (e *Engine) shardFor(frag *qgm.Node) int {
	if len(e.endpoints) == 1 || e.route == nil {
		return 0
	}
	s := e.route(frag.ShapeSignature(), frag.CountJoins())
	if s < 0 || s >= len(e.endpoints) {
		return 0
	}
	return s
}

// CachedProbes returns how many probe results are currently cached (0 when
// caching is disabled).
func (e *Engine) CachedProbes() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.size()
}

// shardConn is one shard's resolved probe path for the duration of a plan:
// how a probe routed to the shard is answered, plus the shard's pinned (or
// conservatively fetched) epoch.
type shardConn struct {
	// pinned runs a compiled probe against the pinned epoch; nil for an
	// endpoint that cannot pin one, which is sent text instead.
	pinned    sparql.Pinned
	endpoint  Endpoint
	version   uint64
	versionOK bool
}

// planShards resolves the probe path and version tag per shard, once per
// plan, into conns: a pinned epoch snapshot when the endpoint supports it
// (EpochPinner), the plain endpoint with conservative version tagging
// otherwise. The result is the plan's *epoch vector* — every probe of the
// plan reads from, and tags its cache/singleflight keys with, exactly the
// epoch its shard had at plan start, independent of the other shards.
func (e *Engine) planShards(conns []shardConn) []shardConn {
	conns = slices.Grow(conns[:0], len(e.endpoints))[:len(e.endpoints)]
	for i, ep := range e.endpoints {
		conns[i] = shardConn{endpoint: ep}
		if p, ok := ep.(EpochPinner); ok {
			conns[i].pinned, conns[i].version = p.PinEpoch()
			conns[i].versionOK = true
		} else if e.cache != nil {
			conns[i].version, conns[i].versionOK = ep.(VersionedEndpoint).KBVersion()
		}
	}
	return conns
}

// probeKey names one probe of one shard in the routinization cache: the
// shard index beside the probe's fingerprint, so a publication on one shard
// can never invalidate — or serve — entries that belong to another.
type probeKey struct {
	shard int
	probe string // transform.Probe.Key
}

// flightKey names one in-flight evaluation: identical probes issued by
// concurrent re-optimizations collapse into one only when they target the
// same shard at the same epoch.
type flightKey struct {
	probeKey
	version   uint64
	versionOK bool
}

// cached looks a probe up in the routinization cache, which is active when
// every endpoint is versioned and this plan resolved the shard's version.
// Tagging a whole plan's probes with the version fetched at plan start is
// conservative: if the shard changes mid-plan, the entries carry the older
// version and lose to the next evaluation at the newer one.
func (e *Engine) cached(shard int, conn *shardConn, p *transform.Probe) ([]sparql.Solution, bool) {
	if e.cache == nil || !conn.versionOK {
		return nil, false
	}
	return e.cache.get(probeKey{shard, p.Key()}, conn.version)
}

// evaluate answers a probe the cache could not: one evaluation per
// (shard, epoch, fingerprint) among concurrent callers, as its compiled form
// run with its parameters where the shard's epoch is pinned in process and as
// text anywhere else; the answer is cached for the plans that follow.
func (e *Engine) evaluate(shard int, conn *shardConn, p *transform.Probe, params []float64) ([]sparql.Solution, error) {
	key := probeKey{shard, p.Key()}
	sols, shared, err := e.flight.do(flightKey{key, conn.version, conn.versionOK}, func() ([]sparql.Solution, error) {
		if conn.pinned == nil {
			return conn.endpoint.Select(p.Text())
		}
		pr, err := e.forms.prepare(p)
		if err != nil {
			return nil, err
		}
		return conn.pinned.Select(pr, params)
	})
	if err != nil {
		return nil, err
	}
	if shared {
		e.deduped.Add(1)
	}
	if e.cache != nil && conn.versionOK {
		e.cache.put(key, conn.version, sols)
	}
	return sols, nil
}

// DedupedProbes returns how many probes were answered by joining another
// in-flight identical probe instead of evaluating SPARQL themselves.
func (e *Engine) DedupedProbes() int64 { return e.deduped.Load() }

// Match is one problem pattern found in a plan.
type Match struct {
	// FragmentRootID is the operator ID of the matched sub-plan's root in the
	// original plan.
	FragmentRootID int
	// FragmentJoins is the number of joins in the matched sub-plan.
	FragmentJoins int
	// TemplateIRI identifies the knowledge base template that matched.
	TemplateIRI string
	// Improvement is the improvement the template recorded when it was
	// learned.
	Improvement float64
	// Guideline is the template's rewrite with TABIDs mapped to the incoming
	// query's table instances.
	Guideline *guideline.Element
	// MatchMillis is the wall-clock time spent matching this fragment
	// against the knowledge base (the quantity reported in Exp-3).
	MatchMillis float64
	// CacheHit reports whether the probe was answered from the
	// routinization cache instead of a full SPARQL evaluation.
	CacheHit bool
}

// ProbeStats aggregates the knowledge base probes issued while matching one
// plan.
type ProbeStats struct {
	// Probes is the number of fragments probed against the knowledge base.
	Probes int
	// CacheHits is how many probes were answered from the routinization
	// cache.
	CacheHits int
	// TotalMillis is the summed wall-clock time of every probe, matched or
	// not (the quantity behind Figure 11 / Exp-3).
	TotalMillis float64
	// Errors is how many probes failed and were tolerated as unmatched
	// (only ever non-zero under Options.TolerateProbeErrors).
	Errors int
}

// MatchPlan probes the knowledge base for every sub-plan of the plan and
// returns the matches found.
func (e *Engine) MatchPlan(plan *qgm.Plan) ([]Match, error) {
	matches, _, err := e.MatchPlanStats(plan)
	return matches, err
}

// outcome is what probing one fragment came to. A cache miss is pending
// until it is evaluated: its probe, shard and parameters wait here.
type outcome struct {
	m   Match
	ok  bool
	err error

	pending bool
	probe   transform.Probe
	shard   int
	params  []float64 // for a pinned shard
}

// planScratch is what one MatchPlanStats works in, taken from a pool and
// handed back cleared: the outcomes, the epoch vector, the probes' records
// and parameters, the misses and the claimed table instances, and the cursor
// the misses are evaluated from.
type planScratch struct {
	e         *Engine
	fragments []qgm.SubPlan
	outcomes  []outcome
	conns     []shardConn
	slab      transform.ProbeSlab
	params    []float64
	misses    []int
	claimed   []string

	// next is the position in misses the next evaluation claims.
	next    atomic.Int64
	helpers sync.WaitGroup
}

var planScratches = sync.Pool{New: func() any { return new(planScratch) }}

// release hands the scratch back, dropping every pointer into the plan, its
// answers and its pinned epochs. MatchPlanStats releases it on its normal
// returns only: after a panic, helpers may still be writing to it.
func (sc *planScratch) release() {
	sc.e, sc.fragments = nil, nil
	clear(sc.outcomes)
	clear(sc.conns)
	clear(sc.claimed)
	sc.slab.Reset()
	sc.outcomes, sc.conns, sc.claimed = sc.outcomes[:0], sc.conns[:0], sc.claimed[:0]
	sc.params, sc.misses = sc.params[:0], sc.misses[:0]
	planScratches.Put(sc)
}

// MatchPlanStats is MatchPlan plus probe statistics. Each fragment is routed
// to the knowledge base shard its shape signature can hit — the plan pins a
// vector of shard epochs up front, so every probe reads a consistent
// snapshot of its shard no matter what publishes elsewhere mid-plan — and
// looked up in the routinization cache right here: a hit costs less than
// handing it to another goroutine would. The misses are evaluated by the
// calling goroutine and, when there are several, by up to GOMAXPROCS-1
// helpers beside it, each claiming the next miss from a shared cursor.
// Selection then runs over the results in deterministic order: fragments are
// tried from the largest (most context) down to single joins, and fragments
// overlapping an already-matched fragment are skipped, so each part of the
// plan is rewritten by at most one template.
func (e *Engine) MatchPlanStats(plan *qgm.Plan) ([]Match, ProbeStats, error) {
	var stats ProbeStats
	if plan == nil || plan.Root == nil {
		return nil, stats, fmt.Errorf("matching: empty plan")
	}
	fragments := plan.EnumerateSubPlans(e.Opts.MaxJoins)
	// Largest fragments first.
	slices.Reverse(fragments)
	sc := planScratches.Get().(*planScratch)
	sc.e, sc.fragments = e, fragments
	sc.outcomes = slices.Grow(sc.outcomes, len(fragments))[:len(fragments)]
	sc.conns = e.planShards(sc.conns)
	ops := 0
	for _, frag := range fragments {
		ops += frag.Ops
	}
	sc.slab.Grow(ops)
	sc.params = slices.Grow(sc.params, 2*ops)
	for i, frag := range fragments {
		sc.outcomes[i] = e.lookupFragment(frag.Root, sc)
		if sc.outcomes[i].pending {
			sc.misses = append(sc.misses, i)
		}
	}
	sc.evaluateMisses()

	var matches []Match
	for i, frag := range fragments {
		o := &sc.outcomes[i]
		if o.err != nil {
			if !e.Opts.TolerateProbeErrors {
				err := o.err
				sc.release()
				return nil, stats, err
			}
			// Degrade, don't fail: the fragment goes unmatched (no rewrite
			// from this template shard) and the error is counted.
			stats.Probes++
			stats.Errors++
			continue
		}
		stats.Probes++
		stats.TotalMillis += o.m.MatchMillis
		if o.m.CacheHit {
			stats.CacheHits++
		}
		if !o.ok {
			continue
		}
		// A fragment that shares a table instance with one matched before
		// it is skipped; else it claims its instances.
		before := len(sc.claimed)
		sc.claimed = frag.Root.AppendTableInstances(sc.claimed)
		if claimedBefore(sc.claimed, before) {
			sc.claimed = sc.claimed[:before]
			continue
		}
		m := o.m
		m.FragmentJoins = frag.Joins
		matches = append(matches, m)
	}
	sc.release()
	return matches, stats, nil
}

// evaluateMisses evaluates the pending outcomes. The calling goroutine takes
// part, so a plan with a single miss starts no goroutine at all.
func (sc *planScratch) evaluateMisses() {
	sc.next.Store(0)
	if helpers := min(runtime.GOMAXPROCS(0), len(sc.misses)) - 1; helpers > 0 {
		sc.helpers.Add(helpers)
		for range helpers {
			go sc.help()
		}
	}
	sc.evaluatePending()
	sc.helpers.Wait()
}

// help is one helper of evaluateMisses.
func (sc *planScratch) help() {
	defer sc.helpers.Done()
	sc.evaluatePending()
}

// evaluatePending evaluates misses until the cursor runs past the last.
func (sc *planScratch) evaluatePending() {
	for {
		k := int(sc.next.Add(1)) - 1
		if k >= len(sc.misses) {
			return
		}
		i := sc.misses[k]
		sc.outcomes[i] = sc.e.evaluateFragment(sc.fragments[i].Root, sc.conns, &sc.outcomes[i])
	}
}

// claimedBefore reports whether an instance of claimed[before:] is among
// claimed[:before].
func claimedBefore(claimed []string, before int) bool {
	for _, inst := range claimed[before:] {
		if slices.Contains(claimed[:before], inst) {
			return true
		}
	}
	return false
}

// lookupFragment describes the probe of one sub-plan into the plan's slab,
// routes it to the shard of the knowledge base its shape signature can hit,
// and answers it from the routinization cache when it can; otherwise the
// outcome is left pending for evaluateFragment, carrying the probe, its
// parameters and the time spent so far.
func (e *Engine) lookupFragment(frag *qgm.Node, sc *planScratch) outcome {
	start := time.Now()
	p, err := sc.slab.Describe(frag)
	if err != nil {
		return outcome{err: err}
	}
	shard := e.shardFor(frag)
	e.shardProbes[shard].Add(1)
	conn := &sc.conns[shard]
	sols, hit := e.cached(shard, conn, &p)
	if hit {
		return e.pickTemplate(frag, &p, sols, Match{MatchMillis: millisSince(start), CacheHit: true})
	}
	o := outcome{pending: true, probe: p, shard: shard}
	if conn.pinned != nil {
		from := len(sc.params)
		sc.params = p.AppendParams(sc.params)
		o.params = sc.params[from:len(sc.params):len(sc.params)]
	}
	o.m.MatchMillis = millisSince(start)
	return o
}

// evaluateFragment finishes a pending outcome: it evaluates the probe against
// its shard.
func (e *Engine) evaluateFragment(frag *qgm.Node, conns []shardConn, pending *outcome) outcome {
	start := time.Now()
	sols, err := e.evaluate(pending.shard, &conns[pending.shard], &pending.probe, pending.params)
	if err != nil {
		return outcome{err: fmt.Errorf("matching: knowledge base query failed: %w", err)}
	}
	return e.pickTemplate(frag, &pending.probe, sols, Match{MatchMillis: pending.m.MatchMillis + millisSince(start)})
}

func millisSince(start time.Time) float64 { return float64(time.Since(start).Microseconds()) / 1000 }

// pickTemplate turns a probe's solutions into the fragment's match: the best
// template among them, its guideline mapped back to the incoming plan's
// table instances. m carries the probe's timing and cache-hit flag.
func (e *Engine) pickTemplate(frag *qgm.Node, p *transform.Probe, sols []sparql.Solution, m Match) outcome {
	if len(sols) == 0 {
		return outcome{m: m}
	}
	info := p.Info()
	best, improvement := pickBestSolution(sols, info)
	cached, err := e.guidelines.parse(best[info.GuidelineVar].Value)
	if err != nil {
		return outcome{err: err}
	}
	// Canonical label -> incoming instance.
	canonicalToInstance := map[string]string{}
	for instance, varName := range info.CanonicalVarByInstance {
		if term, ok := best[varName]; ok {
			canonicalToInstance[strings.ToUpper(term.Value)] = instance
		}
	}
	g := cached.Clone() // the cached tree is shared: rebinding writes TABIDs
	if !rebindGuideline(g, canonicalToInstance) {
		return outcome{m: m}
	}
	m.FragmentRootID = frag.ID
	m.TemplateIRI = best[info.TemplateVar].Value
	m.Improvement = improvement
	m.Guideline = g
	return outcome{m: m, ok: true}
}

// pickBestSolution chooses the matching template with the highest recorded
// improvement.
func pickBestSolution(sols []sparql.Solution, info *transform.MatchQueryInfo) (sparql.Solution, float64) {
	best := sols[0]
	bestImp := improvementOf(best, info)
	for _, s := range sols[1:] {
		if imp := improvementOf(s, info); imp > bestImp {
			best, bestImp = s, imp
		}
	}
	return best, bestImp
}

func improvementOf(s sparql.Solution, info *transform.MatchQueryInfo) float64 {
	term, ok := s[info.ImprovementVar]
	if !ok {
		return 0
	}
	f, _ := term.Float()
	return f
}

// rebindGuideline replaces canonical TABIDs with the incoming plan's table
// instances; it reports false when a canonical label has no counterpart (the
// guideline would then be inapplicable).
func rebindGuideline(g *guideline.Element, canonicalToInstance map[string]string) bool {
	ok := true
	var walk func(*guideline.Element)
	walk = func(e *guideline.Element) {
		if e == nil || !ok {
			return
		}
		if e.TabID != "" {
			inst, found := canonicalToInstance[strings.ToUpper(e.TabID)]
			if !found {
				ok = false
				return
			}
			e.TabID = inst
		}
		for _, c := range e.Children {
			walk(c)
		}
	}
	walk(g)
	return ok
}

// Result is the outcome of re-optimizing one query.
type Result struct {
	Query           *sqlparser.Query
	OriginalPlan    *qgm.Plan
	ReoptimizedPlan *qgm.Plan
	Matches         []Match
	Guidelines      *guideline.Document
	Report          *optimizer.Report
	// MatchMillis is the time spent querying the knowledge base for the
	// fragments that matched (the per-rewrite quantity of Exp-3 / Figure 11).
	MatchMillis float64
	// ProbeStats covers every probe issued, matched or not, including the
	// routinization cache's hit count.
	ProbeStats ProbeStats
}

// Rewritten reports whether re-optimization produced a different plan.
func (r *Result) Rewritten() bool {
	return r.ReoptimizedPlan != nil && r.OriginalPlan != nil &&
		r.ReoptimizedPlan.Signature() != r.OriginalPlan.Signature()
}

// Reoptimize runs the full online workflow for one query: plan it, match the
// plan against the knowledge base, and — when rewrites match — pass the query
// with the collected guideline document through the optimizer again. The
// query is prepared once: the guidelines only change the second search. The
// original plan is always returned; the re-optimized plan is nil when nothing
// matched.
func (e *Engine) Reoptimize(q *sqlparser.Query) (*Result, error) {
	opt := optimizer.New(e.Cat, e.Opts.OptimizerOptions)
	prepared, err := opt.Prepare(q)
	if err != nil {
		return nil, err
	}
	original, _, err := opt.OptimizePrepared(prepared)
	if err != nil {
		return nil, err
	}
	matches, stats, err := e.MatchPlanStats(original)
	if err != nil {
		return nil, err
	}
	res := &Result{Query: q, OriginalPlan: original, Matches: matches, ProbeStats: stats}
	for _, m := range matches {
		res.MatchMillis += m.MatchMillis
	}
	if len(matches) == 0 {
		return res, nil
	}
	doc := &guideline.Document{}
	for _, m := range matches {
		doc.Add(m.Guideline)
	}
	res.Guidelines = guideline.Merge(doc)

	reoptOptions := e.Opts.OptimizerOptions
	reoptOptions.Guidelines = res.Guidelines
	reopt := optimizer.New(e.Cat, reoptOptions)
	replanned, report, err := reopt.OptimizePrepared(prepared)
	if err != nil {
		return nil, err
	}
	res.ReoptimizedPlan = replanned
	res.Report = report
	return res, nil
}
