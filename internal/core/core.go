package core

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"galo/internal/executor"
	"galo/internal/fleet"
	"galo/internal/fuseki"
	"galo/internal/kb"
	"galo/internal/learning"
	"galo/internal/matching"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/rdf"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/wal"
)

// Config configures a GALO system. Zero-valued fields are filled with the
// defaults used throughout the experiments; set fields are preserved, so a
// caller can customize one knob without re-stating the rest.
type Config struct {
	// Learning configures the offline learning engine.
	Learning learning.Options
	// Matching configures the online matching engine.
	Matching matching.Options
	// Online configures the online incremental learning loop (disabled by
	// default; `galo serve -online` and tests enable it).
	Online learning.OnlineOptions
	// Shards is the number of knowledge base shards (kb.NewSharded). Each
	// template lives in exactly one shard and publishes epochs only there;
	// a plan's probes fan out to the shards its fragment signatures route
	// to. 0 means a single shard.
	Shards int
	// Admission configures serving-time admission control for the HTTP API
	// (per-client probe budgets and load shedding on /reopt); the zero
	// value disables it.
	Admission AdmissionOptions
	// DataDir enables the durable knowledge base: every template publication
	// is appended to a per-shard write-ahead log under this directory before
	// it becomes visible, and snapshots compact the log in the background.
	// OpenDataDir recovers the previous generation on boot. Empty disables
	// persistence (the knowledge base is in-memory only).
	DataDir string
	// Sync is the WAL fsync policy (wal.SyncInterval by default: a
	// background fsync every wal.Options.SyncEvery).
	Sync wal.SyncPolicy
	// SnapshotEvery overrides how many effective triple changes a shard
	// accumulates past its last snapshot before compaction; 0 means the
	// wal package default.
	SnapshotEvery uint64
	// WALFS overrides the durability layer's filesystem — the fault
	// injection seam for tests; nil means the real disk.
	WALFS wal.FS
	// Exec configures the system executor: exchange parallelism per execution
	// and the peak-residency memory budget the governor admits concurrent
	// executions against. The zero value is serial, ungoverned execution.
	Exec ExecOptions
	// Tenancy configures per-tenant knowledge base namespaces and per-tenant
	// /stats accounting on the serving API; the zero value keeps the single
	// shared namespace (counters are still collected per client identity).
	Tenancy TenancyOptions
	// Fleet replaces the in-process knowledge base shards with a fleet of
	// remote replicated shard servers (`galo shard` processes): probes route
	// through fleet.ShardEndpoints with retries, failover, hedging and
	// circuit breakers, and a rebalancer can migrate hot shapes between
	// shards (fleet.Options.Rebalance). The zero value disables the fleet.
	// Matching degrades per shard (TolerateProbeErrors is forced on) instead
	// of failing requests. A single remote Fuseki-style endpoint is a fleet of
	// one shard with one replica.
	// Tenant-isolated namespaces (Tenancy) keep their local per-tenant KBs —
	// the fleet serves the shared namespace.
	Fleet fleet.Options
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{Learning: learning.DefaultOptions(), Matching: matching.DefaultOptions()}
}

// fillConfig fills only the unset fields of a partially-customized Config —
// a caller who set Matching.ProbeCacheSize must not lose it because
// Matching.MaxJoins was left zero.
func fillConfig(cfg Config) Config {
	md := matching.DefaultOptions()
	m := &cfg.Matching
	if m.MaxJoins == 0 {
		m.MaxJoins = md.MaxJoins
	}
	if m.OptimizerOptions == (optimizer.Options{}) {
		m.OptimizerOptions = md.OptimizerOptions
	}
	ld := learning.DefaultOptions()
	l := &cfg.Learning
	if l.JoinThreshold == 0 {
		l.JoinThreshold = ld.JoinThreshold
	}
	if l.MaxSubQueriesPerQuery == 0 {
		l.MaxSubQueriesPerQuery = ld.MaxSubQueriesPerQuery
	}
	if l.RandomPlans == 0 {
		l.RandomPlans = ld.RandomPlans
	}
	if l.PredicateVariants == 0 {
		l.PredicateVariants = ld.PredicateVariants
	}
	if l.Runs == 0 {
		l.Runs = ld.Runs
	}
	if l.MinImprovement == 0 {
		l.MinImprovement = ld.MinImprovement
	}
	if l.BoundsSlack == 0 {
		l.BoundsSlack = ld.BoundsSlack
	}
	if l.Workers == 0 {
		l.Workers = ld.Workers
	}
	if l.Seed == 0 {
		l.Seed = ld.Seed
	}
	if l.Workload == "" {
		l.Workload = ld.Workload
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Fleet.Enabled() {
		// A dead shard must degrade that shard's rewrites, not fail whole
		// /reopt requests — the gateway's retries already masked what could
		// be masked by the time an error reaches the matcher.
		cfg.Matching.TolerateProbeErrors = true
	}
	return cfg
}

// System is one GALO deployment over a database instance. It is safe for
// concurrent use: Reoptimize may race Learn, LoadKB and the online learner's
// epoch publications.
type System struct {
	DB     *storage.Database
	Config Config

	// mu guards the knowledge base pointer, the matching engine, the online
	// learner and the persistence manager; the heavy work happens outside it.
	mu      sync.Mutex
	kb      *kb.KB
	matcher *matching.Engine
	online  *learning.Online
	persist *wal.Manager
	closed  bool

	// recovered summarizes what OpenDataDir found, for /stats.
	recovered RecoveryInfo

	// draining flips when Shutdown begins: the HTTP surface answers 503
	// (except /healthz) while in-flight requests finish.
	draining atomic.Bool

	// srvMu guards the http.Servers Serve/ServeListener started, so Shutdown
	// can drain them.
	srvMu   sync.Mutex
	servers []*http.Server

	// admission holds the HTTP API's admission-control state (server.go).
	admission admissionState

	// tenants holds the per-tenant namespaces and counters (tenancy.go).
	tenants tenancyState

	// fleetG is the remote-shard gateway (nil without Config.Fleet); rebal is
	// its probe-skew rebalancer, started with the matching engine when
	// Config.Fleet.Rebalance.Enabled is set.
	fleetG *fleet.Fleet
	rebal  *fleet.Rebalancer

	// exec is the system executor; gov admits executions against
	// Config.Exec.MemBudgetBytes (nil budget semantics handled inside —
	// acquire is passthrough when the budget is zero).
	exec *executor.Executor
	gov  *execGovernor

	// peakIntermediateRows / peakIntermediateBytes are the worst
	// intermediate-row residency any single execution on this system has
	// reported (executor.RunStats.PeakIntermediateRows) — the number /stats
	// exposes so operators can see the memory headroom concurrent plan
	// execution needs under the streaming executor.
	peakIntermediateRows  atomic.Int64
	peakIntermediateBytes atomic.Int64

	// rowMismatches counts validated rewrites whose row count differed from
	// the original plan's: soundness violations, never applied.
	rowMismatches atomic.Int64
}

// NewSystem creates a GALO system over the database with an empty knowledge
// base (sharded per Config.Shards). Zero-valued Config fields are filled
// with defaults; explicitly set fields are preserved.
func NewSystem(db *storage.Database, cfg Config) *System {
	cfg = fillConfig(cfg)
	exec := executor.New(db)
	exec.Workers = cfg.Exec.Workers
	s := &System{
		DB:     db,
		kb:     kb.NewSharded(cfg.Shards),
		Config: cfg,
		exec:   exec,
		gov:    newExecGovernor(cfg.Exec.MemBudgetBytes),
	}
	if cfg.Fleet.Enabled() {
		s.fleetG = fleet.New(cfg.Fleet)
	}
	return s
}

// KB returns the current knowledge base. The pointer is replaced wholesale
// by LoadKB, so callers that need several consistent reads should hold on to
// the returned KB (or pin its store's snapshot) rather than calling KB()
// repeatedly.
func (s *System) KB() *kb.KB {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kb
}

// endpoints returns the per-shard knowledge base endpoints and the router
// used for matching. With a fleet configured, the SHARED namespace routes
// through the gateway's fault-tolerant remote shard endpoints (shared=false —
// a tenant's isolated namespace — keeps its local per-tenant KB). The
// in-process KB gets one pinned-snapshot endpoint per shard, routed by the
// same shape-prefix function the KB used to place templates.
func (s *System) endpoints(knowledge *kb.KB, shared bool) ([]matching.Endpoint, matching.Router) {
	if shared && s.fleetG != nil {
		eps := make([]matching.Endpoint, s.fleetG.Shards())
		for i := range eps {
			eps[i] = s.fleetG.Endpoint(i)
		}
		return eps, s.fleetG.Route
	}
	stores := knowledge.Stores()
	eps := make([]matching.Endpoint, len(stores))
	for i, st := range stores {
		eps[i] = fuseki.LocalEndpoint{Store: st}
	}
	return eps, knowledge.RouteShape
}

// matchingEngine returns the system's shared matching engine, so the
// routinization cache persists across queries (the paper's Figure 12:
// workload re-optimization gets cheaper as fragments repeat). The engine is
// rebuilt when the knowledge base object is replaced; template additions
// within one knowledge base invalidate cache entries through the owning
// shard's epoch instead.
func (s *System) matchingEngine() *matching.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.matcher == nil {
		eps, router := s.endpoints(s.kb, true)
		s.matcher = matching.NewSharded(s.DB.Catalog, eps, router, s.Config.Matching)
		if s.fleetG != nil && s.Config.Fleet.Rebalance.Enabled && s.rebal == nil && !s.closed {
			s.rebal = s.fleetG.NewRebalancer(s.matcher.ProbesByShard, s.Config.Fleet.Rebalance)
			s.rebal.Start()
		}
	}
	return s.matcher
}

// onlineLearner lazily starts the online incremental learner; a closed
// system never restarts it (an Execute racing Close must not leak a fresh
// worker goroutine past shutdown).
func (s *System) onlineLearner() *learning.Online {
	if !s.Config.Online.Enabled {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if s.online == nil {
		s.online = learning.NewOnline(s.DB, s.KB, s.Config.Learning, s.Config.Online)
	}
	return s.online
}

// OnlineStats returns the online learner's counters (zero when the loop is
// disabled or has not started).
func (s *System) OnlineStats() learning.OnlineStats {
	s.mu.Lock()
	online := s.online
	s.mu.Unlock()
	if online == nil {
		return learning.OnlineStats{}
	}
	return online.Stats()
}

// FlushOnlineLearning blocks until the online learner's backlog is analyzed
// and its templates are published — for tests and benchmarks that need the
// next epoch deterministically.
func (s *System) FlushOnlineLearning() {
	s.mu.Lock()
	online := s.online
	s.mu.Unlock()
	if online != nil {
		online.Flush()
	}
}

// Close stops the system's background work and keeps it stopped: later
// Executes will not restart it. The online learner closes FIRST — its final
// template publications still reach the write-ahead log — and the
// persistence manager closes last, ending with the final WAL fsync. It is
// safe to call on a system that never started any, and idempotent.
func (s *System) Close() {
	s.mu.Lock()
	online := s.online
	s.online = nil
	persist := s.persist
	s.persist = nil
	rebal := s.rebal
	s.rebal = nil
	s.closed = true
	s.mu.Unlock()
	if rebal != nil {
		rebal.Stop()
	}
	if online != nil {
		online.Close()
	}
	if persist != nil {
		_ = persist.Close()
	}
}

// Learn runs the offline learning workflow over the workload queries and
// populates the knowledge base.
func (s *System) Learn(queries []*sqlparser.Query) (*learning.Report, error) {
	engine := learning.New(s.DB, s.KB(), s.Config.Learning)
	return engine.LearnWorkload(queries)
}

// Optimize plans a query without GALO's third optimization tier (the baseline
// the experiments compare against).
func (s *System) Optimize(q *sqlparser.Query) (*qgm.Plan, error) {
	opt := optimizer.New(s.DB.Catalog, s.Config.Matching.OptimizerOptions)
	plan, _, err := opt.Optimize(q)
	return plan, err
}

// Reoptimize runs the online workflow for one query: plan, match against the
// knowledge base, and re-optimize with the matched guidelines.
func (s *System) Reoptimize(q *sqlparser.Query) (*matching.Result, error) {
	return s.matchingEngine().Reoptimize(q)
}

// Execute runs a plan and returns its result and runtime statistics. The
// execution is admitted by the memory governor against the plan's estimated
// peak residency (Config.Exec.MemBudgetBytes): it may wait for headroom, and
// a plan too big for the whole budget runs alone and serially. When online
// learning is enabled, the executed plan's actual-vs-estimated cardinality
// gap is offered to the incremental learner.
func (s *System) Execute(plan *qgm.Plan, q *sqlparser.Query) (*executor.Result, error) {
	var res *executor.Result
	_, err := s.admit(plan, q, func(ex *executor.Executor) (stats executor.RunStats, err error) {
		if res, err = ex.Execute(plan, q); err == nil {
			stats = res.Stats
		}
		return stats, err
	})
	return res, err
}

// admit runs one plan execution under the memory governor, folds its peak
// residency into the system high-water marks and offers the executed plan to
// the online learner — the bookkeeping every execution path shares.
func (s *System) admit(plan *qgm.Plan, q *sqlparser.Query, run func(*executor.Executor) (executor.RunStats, error)) (executor.RunStats, error) {
	grant := s.gov.acquire(plan.EstPeakResidencyBytes(), s.exec.Workers)
	stats, err := run(s.exec.WithWorkers(grant.workers))
	grant.release()
	if err == nil {
		raiseMax(&s.peakIntermediateRows, stats.PeakIntermediateRows)
		raiseMax(&s.peakIntermediateBytes, stats.PeakIntermediateBytes)
		// The drain gate must win the race with the learner: once Shutdown
		// has flipped draining, Observe would enqueue work behind the final
		// flush and the observation could publish templates after the WAL's
		// last fsync. Requests admitted before the flip still observe.
		if online := s.onlineLearner(); online != nil && !s.draining.Load() {
			online.Observe(q, plan)
		}
	}
	return stats, err
}

// validation is the runtime verdict on one re-optimization: both plans'
// statistics, and whether the rewrite is kept.
type validation struct {
	orig, galo executor.RunStats
	// ran reports that a rewrite existed and was executed; applied that it
	// was kept. When not applied, galo equals orig.
	ran, applied bool
	// galoRows is the row count the rewritten plan returned (the original's
	// when none ran); rowsDiffer that it is not the original's.
	galoRows   int
	rowsDiffer bool
}

// verdict decides what to make of a rewrite from the two runs' statistics
// alone. A rewrite that returns a different number of rows computed a
// different query — whatever its speed it is never applied — and one that
// returns the same number is kept only if it did not run slower.
func verdict(orig, galo executor.RunStats) (applied, rowsDiffer bool) {
	if galo.Rows != orig.Rows {
		return false, true
	}
	return galo.ElapsedMillis <= orig.ElapsedMillis, false
}

// validate runs the original plan and, when the match rewrote it, the
// re-optimized plan, for their statistics only — no result row is projected
// or collected — and keeps the rewrite only on verdict's say-so.
func (s *System) validate(res *matching.Result, q *sqlparser.Query) (validation, error) {
	stats := func(plan *qgm.Plan) (executor.RunStats, error) {
		return s.admit(plan, q, func(ex *executor.Executor) (executor.RunStats, error) { return ex.Run(plan, q) })
	}
	var v validation
	var err error
	if v.orig, err = stats(res.OriginalPlan); err != nil {
		return v, fmt.Errorf("execute: %w", err)
	}
	v.galo, v.galoRows = v.orig, v.orig.Rows
	if res.ReoptimizedPlan != nil && res.Rewritten() {
		galo, err := stats(res.ReoptimizedPlan)
		if err != nil {
			return v, fmt.Errorf("execute rewritten: %w", err)
		}
		v.ran, v.galoRows = true, galo.Rows
		if v.applied, v.rowsDiffer = verdict(v.orig, galo); v.applied {
			v.galo = galo
		}
		if v.rowsDiffer {
			s.rowMismatches.Add(1)
		}
	}
	return v, nil
}

// raiseMax lifts an atomic high-water mark to at least v.
func raiseMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// PeakIntermediate returns the worst single-execution intermediate-row
// residency observed so far (rows, approximate bytes).
func (s *System) PeakIntermediate() (rows, bytes int64) {
	return s.peakIntermediateRows.Load(), s.peakIntermediateBytes.Load()
}

// ExecStats is the /stats snapshot of the parallel executor: configured
// parallelism, exchange counters and the memory governor's admission state.
type ExecStats struct {
	// Workers is the configured exchange worker count (Config.Exec.Workers).
	Workers int `json:"workers"`
	// ExchangeSegments counts parallel segments started over the system's
	// lifetime; ExchangeWorkers is the number of worker goroutines live now.
	ExchangeSegments int64 `json:"exchange_segments"`
	ExchangeWorkers  int64 `json:"exchange_workers"`
	// Governor is the admission state of the residency budget.
	Governor GovernorStats `json:"governor"`
	// RewriteRowMismatches counts validated rewrites refused because they
	// returned a different number of rows than the original plan.
	RewriteRowMismatches int64 `json:"rewrite_row_mismatches"`
}

// ExecutorStats snapshots the system executor's parallelism counters.
func (s *System) ExecutorStats() ExecStats {
	return ExecStats{
		Workers:          s.exec.Workers,
		ExchangeSegments: executor.ExchangeSegmentCount(),
		ExchangeWorkers:  executor.ExchangeWorkerCount(),
		Governor:         s.gov.stats(),

		RewriteRowMismatches: s.rowMismatches.Load(),
	}
}

// QueryOutcome is the before/after record of one workload query, the unit of
// Figure 10.
type QueryOutcome struct {
	Query string
	// Matched reports whether any knowledge base pattern matched the plan;
	// Applied reports whether the rewritten plan was kept after validation.
	Matched        bool
	Applied        bool
	Rewrites       int
	OriginalMillis float64
	GaloMillis     float64
	MatchMillis    float64
	// OriginalRows and GaloRows are the row counts the two plans returned;
	// RowsDiffer flags a rewrite refused because they are not the same.
	OriginalRows int
	GaloRows     int
	RowsDiffer   bool
}

// Improvement returns the relative improvement of the GALO plan (0 when no
// rewrite was applied).
func (o QueryOutcome) Improvement() float64 {
	if !o.Applied || o.OriginalMillis <= 0 {
		return 0
	}
	return (o.OriginalMillis - o.GaloMillis) / o.OriginalMillis
}

// WorkloadSummary aggregates a re-optimized workload run.
type WorkloadSummary struct {
	Queries        int
	Matched        int
	Applied        int
	AvgImprovement float64 // over applied queries
	TotalOriginal  float64
	TotalGalo      float64
}

// ReoptimizeWorkload re-optimizes and executes every query of a workload
// across a bounded worker pool (GOMAXPROCS workers), returning per-query
// outcomes in workload order and a summary. Query runtimes are simulated
// (executor time model); the real wall-clock matching overhead — marginal in
// the paper, since real queries run for minutes — is reported separately in
// each outcome's MatchMillis.
//
// Rewrites are validated the way the paper's routinization does when the
// workload is periodically executed: the rewritten plan is kept only when it
// does not run slower than the original, so a matched pattern whose benefit
// does not transfer to this query's context never regresses the workload.
func (s *System) ReoptimizeWorkload(queries []*sqlparser.Query) ([]QueryOutcome, WorkloadSummary, error) {
	var summary WorkloadSummary
	workers := runtime.GOMAXPROCS(0)
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers < 1 {
		workers = 1
	}
	outcomes := make([]QueryOutcome, len(queries))
	errs := make([]error, len(queries))
	jobs := make(chan int)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// A failure anywhere aborts the run: remaining queries are
				// skipped instead of burning executor time on outcomes the
				// error return will discard anyway.
				if failed.Load() {
					continue
				}
				if outcomes[i], errs[i] = s.reoptimizeOne(queries[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range queries {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	improvements := 0.0
	for i := range queries {
		if errs[i] != nil {
			return nil, summary, errs[i]
		}
		outcome := outcomes[i]
		summary.Queries++
		summary.TotalOriginal += outcome.OriginalMillis
		summary.TotalGalo += outcome.GaloMillis
		if outcome.Matched {
			summary.Matched++
		}
		if outcome.Applied {
			summary.Applied++
			improvements += outcome.Improvement()
		}
	}
	if summary.Applied > 0 {
		summary.AvgImprovement = improvements / float64(summary.Applied)
	}
	return outcomes, summary, nil
}

// reoptimizeOne runs the full online workflow for one workload query:
// re-optimize, execute both plans, keep the rewrite only when it does not
// regress, and feed the executed original plan to the online learner.
func (s *System) reoptimizeOne(q *sqlparser.Query) (QueryOutcome, error) {
	res, err := s.Reoptimize(q)
	if err != nil {
		return QueryOutcome{}, fmt.Errorf("reoptimize %s: %w", q.Name, err)
	}
	v, err := s.validate(res, q)
	if err != nil {
		return QueryOutcome{}, fmt.Errorf("%s: %w", q.Name, err)
	}
	outcome := QueryOutcome{
		Query:          q.Name,
		Matched:        v.ran,
		Applied:        v.applied,
		OriginalMillis: v.orig.ElapsedMillis,
		GaloMillis:     v.galo.ElapsedMillis,
		MatchMillis:    res.MatchMillis,
		OriginalRows:   v.orig.Rows,
		GaloRows:       v.galoRows,
		RowsDiffer:     v.rowsDiffer,
	}
	if v.ran {
		outcome.Rewrites = len(res.Matches)
	}
	return outcome, nil
}

// SaveKB writes the knowledge base to a file in N-Triples format.
func (s *System) SaveKB(path string) error {
	return os.WriteFile(path, []byte(s.KB().NTriples()), 0o644)
}

// LoadKB loads a knowledge base previously written with SaveKB, replacing the
// current one. In-flight matchers finish against the knowledge base (and
// epoch snapshots) they already pinned; new work sees the fresh one. When
// persistence is open, the previous generation's log is closed and the data
// directory is rebound to the replacement stores (a fresh lineage: old shard
// state is wiped and new initial snapshots are written).
func (s *System) LoadKB(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fresh := kb.NewSharded(s.Config.Shards)
	if err := fresh.LoadNTriples(string(data)); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	durable := s.persist != nil
	if durable {
		// Detach the old stores' commit hooks and finish their log before
		// the swap; the replacement stores get their own manager.
		_ = s.persist.Close()
		s.persist = nil
	}
	if err := s.installKB(fresh, durable, true, nil); err != nil {
		return fmt.Errorf("core: rebinding data dir to the loaded KB: %w", err)
	}
	return nil
}

// ImportKB merges another system's knowledge base into this one (the
// cross-workload knowledge sharing of Exp-2).
func (s *System) ImportKB(other *kb.KB) error { return s.KB().Merge(other) }

// KBHandler returns the HTTP handler serving the knowledge base, for callers
// that want to manage the listener themselves. The handler resolves the
// current knowledge base per request, so it keeps serving the live shard
// stores after a LoadKB replacement; /query fans out over a pinned snapshot
// of every shard, and POST /data additively merges the posted templates
// into their owning shards (kb.KB.LoadNTriples).
func (s *System) KBHandler() http.Handler {
	return fuseki.NewShardedServer(
		func() []*rdf.Store { return s.KB().Stores() },
		func(nt string) error { return s.KB().LoadNTriples(nt) },
	)
}
