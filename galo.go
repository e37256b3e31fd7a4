// Package galo is the public API of this repository's reproduction of
// "Guided Automated Learning for query workload re-Optimization" (GALO,
// PVLDB 2019).
//
// GALO adds a third tier of optimization — plan rewrite — on top of a
// two-tier (query-rewrite + cost-based) optimizer. Offline, the learning
// engine decomposes workload queries into sub-queries, benchmarks competing
// plans from a random plan generator against the optimizer's choices, and
// stores winning rewrites as abstracted problem-pattern templates in an
// RDF/SPARQL knowledge base. Online, the matching engine probes the knowledge
// base with SPARQL queries generated from an incoming plan's fragments and
// re-optimizes the query with the matched guideline documents.
//
// A minimal end-to-end use looks like:
//
//	tpcds, _ := galo.ScenarioByName("tpcds")
//	db, _ := tpcds.Generate(galo.ScenarioGenOptions{Seed: 1, Scale: 0.2, Hazards: true})
//	sys := galo.NewSystem(db, galo.DefaultConfig())
//	sys.Learn(tpcds.HazardQueries(db, 0))          // offline
//	res, _ := sys.Reoptimize(galo.MustParseSQL(`SELECT ...`)) // online
//
// Everything runs on the self-contained minidb substrate in internal/ (SQL
// parser, catalog, storage, cost-based optimizer, executor), which stands in
// for IBM DB2; see DESIGN.md for the full substitution table.
package galo

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"galo/internal/core"
	"galo/internal/executor"
	"galo/internal/experiments"
	"galo/internal/fleet"
	"galo/internal/guideline"
	"galo/internal/kb"
	"galo/internal/learning"
	"galo/internal/matching"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/wal"
	"galo/internal/workload/scenario"
	"galo/internal/workload/tpcds"
	"galo/internal/workload/trace"
)

// System is a GALO deployment over one database instance: a knowledge base
// plus the offline learning and online re-optimization workflows.
type System = core.System

// Config configures a System.
type Config = core.Config

// QueryOutcome is the before/after record of one re-optimized workload query.
type QueryOutcome = core.QueryOutcome

// WorkloadSummary aggregates a re-optimized workload run.
type WorkloadSummary = core.WorkloadSummary

// LearningOptions configures the offline learning engine.
type LearningOptions = learning.Options

// LearningReport summarizes an offline learning run.
type LearningReport = learning.Report

// OnlineOptions configures the online incremental learner that promotes
// templates from misestimated executed plans into new knowledge base epochs.
type OnlineOptions = learning.OnlineOptions

// OnlineStats counts the online learner's progress.
type OnlineStats = learning.OnlineStats

// ReoptRequest and ReoptResponse are the POST /reopt API bodies served by
// System.APIHandler / System.Serve.
type ReoptRequest = core.ReoptRequest

// ReoptResponse is the answer to a ReoptRequest.
type ReoptResponse = core.ReoptResponse

// AdmissionOptions configures serving-time admission control on /reopt:
// per-client probe budgets and load shedding when the matcher saturates.
type AdmissionOptions = core.AdmissionOptions

// ExecOptions configures the system executor: the peak-residency memory
// budget the governor admits concurrent executions against (MemBudgetBytes).
// Every execution runs serially.
type ExecOptions = core.ExecOptions

// SyncPolicy selects when Config.DataDir's write-ahead log fsyncs: every
// record, on a short interval, or never (the OS decides).
type SyncPolicy = wal.SyncPolicy

// RecoveryInfo summarizes what System.OpenDataDir found in the data
// directory on boot.
type RecoveryInfo = core.RecoveryInfo

// MatchingOptions configures the online matching engine.
type MatchingOptions = matching.Options

// MatchResult is the outcome of re-optimizing one query.
type MatchResult = matching.Result

// Query is a parsed SQL query.
type Query = sqlparser.Query

// Plan is a query execution plan (QGM).
type Plan = qgm.Plan

// ExecResult is the result of executing a plan.
type ExecResult = executor.Result

// KnowledgeBase is GALO's RDF-backed store of problem-pattern templates.
type KnowledgeBase = kb.KB

// Template is one problem-pattern template with its recommended rewrite.
type Template = kb.Template

// Guidelines is an OPTGUIDELINES document.
type Guidelines = guideline.Document

// Database is the minidb storage layer holding a populated schema.
type Database = storage.Database

// NewSystem creates a GALO system over a database with an empty knowledge
// base.
func NewSystem(db *Database, cfg Config) *System { return core.NewSystem(db, cfg) }

// DefaultConfig returns the configuration used in the paper-reproduction
// experiments.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultLearningOptions returns the default offline-learning configuration.
func DefaultLearningOptions() LearningOptions { return learning.DefaultOptions() }

// DefaultMatchingOptions returns the default online-matching configuration.
func DefaultMatchingOptions() MatchingOptions { return matching.DefaultOptions() }

// DefaultOnlineOptions returns the online-learning configuration used by
// `galo serve -online`.
func DefaultOnlineOptions() OnlineOptions { return learning.DefaultOnlineOptions() }

// ParseSyncPolicy parses "always", "interval" or "never" into the matching
// WAL sync policy for Config.Sync.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// ParseSQL parses a SQL statement in the supported subset.
func ParseSQL(sql string) (*Query, error) { return sqlparser.Parse(sql) }

// MustParseSQL parses a SQL statement and panics on error.
func MustParseSQL(sql string) *Query { return sqlparser.MustParse(sql) }

// FormatPlan renders a plan as an indented operator tree in the style of the
// paper's figures.
func FormatPlan(p *Plan) string { return qgm.Format(p) }

// NewKnowledgeBase returns an empty single-shard knowledge base.
func NewKnowledgeBase() *KnowledgeBase { return kb.New() }

// NewShardedKnowledgeBase returns an empty knowledge base split across n
// shards: each template lives in exactly one shard (routed by a prefix of
// its problem shape signature) and epoch publications never touch the other
// shards.
func NewShardedKnowledgeBase(n int) *KnowledgeBase { return kb.NewSharded(n) }

// --- Shard fleet -------------------------------------------------------------

// FleetOptions configures the remote-shard gateway (Config.Fleet): per-shard
// replica URL lists, the retry/hedge/breaker policy, and the rebalancer.
type FleetOptions = fleet.Options

// FleetPolicy is the gateway's fault-tolerance policy: probe deadlines,
// retry/backoff, hedging, and the per-replica circuit breaker.
type FleetPolicy = fleet.Policy

// RebalanceOptions configures the probe-skew rebalancer driving two-epoch
// template migrations between fleet shards.
type RebalanceOptions = fleet.RebalanceOptions

// FleetStats is the /stats "fleet" section.
type FleetStats = fleet.Stats

// ShardServer serves one knowledge base shard over the fleet's HTTP surface —
// the process behind `galo shard`.
type ShardServer = fleet.ShardServer

// NewShardServer wraps a knowledge base in the fleet shard HTTP surface.
func NewShardServer(knowledge *KnowledgeBase) *ShardServer {
	return fleet.NewShardServer(knowledge)
}

// ShardSlice extracts shard `shard` of `shards` from a full knowledge base
// dump (N-Triples), using the same shape-prefix routing the sharded KB and
// the fleet gateway use — the loader behind `galo shard -kb`.
func ShardSlice(ntriples string, shard, shards int) (string, error) {
	return kb.ShardSlice(ntriples, shard, shards)
}

// RetryAfter reads a response's Retry-After header — the serving API stamps
// it on 429 (admission control) and 503 (draining) — as a wait duration.
// Both RFC 9110 forms are understood: delta-seconds and an HTTP-date. The
// second return is false when the header is absent or malformed; a date in
// the past yields (0, true) — retry immediately.
func RetryAfter(resp *http.Response) (time.Duration, bool) {
	v := strings.TrimSpace(resp.Header.Get("Retry-After"))
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// --- Workloads ---------------------------------------------------------------

// Fig8WideQuery returns the wide-range Figure 8 variant over the generated
// database: the query whose stale-histogram misestimate deterministically
// drives the MSJOIN→HSJOIN problem pattern.
func Fig8WideQuery(db *Database) *Query { return tpcds.Fig8WideQuery(db) }

// Fig8WideVariants returns n wide-range Figure 8 variants with progressively
// wider date ranges.
func Fig8WideVariants(db *Database, n int) []*Query { return tpcds.Fig8WideVariants(db, n) }

// Scenario is one workload — TPC-DS, client or a zoo scenario: a
// deterministic generator with a built-in estimation hazard, its queries, and
// the statistical remedy that fixes it (see internal/workload/scenario).
type Scenario = scenario.Scenario

// ScenarioGenOptions controls scenario generation.
type ScenarioGenOptions = scenario.GenOptions

// TenancyOptions configures per-tenant knowledge base namespaces on the
// serving API (Config.Tenancy).
type TenancyOptions = core.TenancyOptions

// Scenarios returns the workload zoo in registry order (ohlc, joblike,
// trace).
func Scenarios() []Scenario { return experiments.Scenarios() }

// ScenarioByName looks any workload up by its registry name: tpcds, client,
// ohlc, joblike or trace.
func ScenarioByName(name string) (Scenario, bool) { return experiments.ScenarioByName(name) }

// ZooResult is one zoo scenario's pre/post-learning estimation quality:
// per-scan q-error quantiles over the scenario's hazard queries before and
// after its statistical remedy.
type ZooResult = experiments.ZooResult

// RunZoo generates every zoo scenario, measures per-scan q-error over its
// hazard queries under default statistics, applies the scenario's remedy and
// measures again. scale overrides every scenario's data scale; 0 keeps the
// per-scenario experiment defaults.
func RunZoo(scale float64) ([]ZooResult, error) {
	cfg := experiments.DefaultConfig()
	if scale > 0 {
		cfg.WorkloadScales = map[string]float64{}
		for _, sc := range experiments.Scenarios() {
			cfg.WorkloadScales[sc.Name()] = scale
		}
	}
	return experiments.RunZoo(cfg)
}

// TraceArrival is one request of a multi-tenant arrival trace.
type TraceArrival = trace.Arrival

// TraceOptions controls multi-tenant arrival-trace generation.
type TraceOptions = trace.TraceOptions

// TraceArrivals generates a deterministic multi-tenant arrival trace over the
// trace workload's query mix ("bursty" or "steady" profile).
func TraceArrivals(opts TraceOptions) []TraceArrival { return trace.Arrivals(opts) }

// ReplayTrace dispatches every arrival at its scheduled offset divided by
// speedup, each concurrently, and waits for all of them to return.
func ReplayTrace(arrivals []TraceArrival, speedup float64, do func(TraceArrival)) {
	trace.Replay(arrivals, speedup, do)
}
