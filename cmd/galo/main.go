// Command galo is the command-line front end of the GALO reproduction: it
// generates the evaluation databases, runs offline learning, re-optimizes
// queries online, inspects the knowledge base and serves it over HTTP.
//
// Usage:
//
//	galo learn   -workload tpcds|client [-scale 0.2] [-queries N] [-kb kb.nt]
//	galo reopt   -workload tpcds|client -kb kb.nt [-query "SELECT ..."] [-name TPCDS.Q09] [-exec-workers N]
//	galo kb      -kb kb.nt
//	galo serve   -kb kb.nt [-addr :3030] [-online] [-shards N] [-data-dir DIR] [-sync always|interval|never]
//	             [-exec-workers N] [-exec-mem-budget 256MB] [-tenant-namespaces] [-tenant-share] [-max-tenants N]
//	             [-fleet "u1,u2;u3,u4"] [-fleet-attempts N] [-fleet-hedge D] [-fleet-rebalance]
//	galo shard   -kb kb.nt -shard I -shards N [-addr 127.0.0.1:3031]
//	galo trace   [-trace bursty|steady] [-tenants N] [-arrivals N] [-speedup X] [-target URL]
//	galo explain -workload tpcds|client [-query "SELECT ..."]
//
// -workload also accepts the zoo scenarios (ohlc, joblike, trace): adversarial
// workloads whose generators build a deterministic estimation hazard in
// (stale histograms, correlated join columns, per-tenant type skew) and whose
// hazard queries stand in for the workload query list.
//
// serve exposes the re-optimization HTTP API (see `galo help` for example
// requests): POST /reopt re-optimizes SQL against the knowledge base,
// POST /query answers SPARQL, GET /stats reports serving counters, and
// -online promotes templates from misestimated runs into new KB epochs
// while serving. -shards splits the knowledge base across N independent
// epoch-snapshot shards (probes fan out only to the shards their fragment
// signatures route to), and -probe-budget/-max-inflight turn on admission
// control: /reopt answers 429 when a client's probe budget is spent or the
// matcher is saturated. -data-dir makes the knowledge base durable — every
// epoch publication is written to a per-shard write-ahead log (fsync policy
// -sync) and compacted into snapshots, and a restart over the same directory
// recovers the exact pre-crash epochs with zero relearning. SIGINT/SIGTERM
// drain gracefully: in-flight requests finish, the WAL takes a final fsync.
// -exec-workers N runs validated executions on N exchange workers (large
// scans partition across the pool; simulated costs are unchanged), and
// -exec-mem-budget caps the estimated peak intermediate residency of
// concurrent executions — over-budget plans queue or degrade to serial.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"galo"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "learn":
		err = runLearn(args)
	case "reopt":
		err = runReopt(args)
	case "kb":
		err = runKB(args)
	case "serve":
		err = runServe(args)
	case "shard":
		err = runShard(args)
	case "trace":
		err = runTrace(args)
	case "explain":
		err = runExplain(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "galo: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "galo:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `galo — guided automated learning for query workload re-optimization

commands:
  learn    run offline learning over a workload and save the knowledge base
  reopt    re-optimize queries online against a knowledge base
  kb       list the templates stored in a knowledge base
  serve    run the re-optimization HTTP service over a knowledge base
  shard    serve one knowledge base shard for a remote fleet (see serve -fleet)
  trace    replay a deterministic multi-tenant arrival trace against /reopt
  explain  show the optimizer's plan for a query without GALO

the serve API (default address :3030):
  # re-optimize a query; add "execute": true for validated simulated timings
  curl -s localhost:3030/reopt -d '{"sql": "SELECT ss_quantity FROM store_sales, date_dim WHERE ss_sold_date_sk = d_date_sk", "execute": true}'

  # SPARQL against the knowledge base (the paper's Fuseki role)
  curl -s localhost:3030/query --data-urlencode 'query=SELECT ?s WHERE { ?s <http://galo/qep/property/hasPopType> "HSJOIN" . }'

  # serving counters: KB epoch/size, per-shard epochs and probe fan-out,
  # cache and probe-dedup hits, admission backpressure, online learning
  curl -s localhost:3030/stats

  with -online, executed queries whose plans misestimate cardinalities are
  analyzed in the background and winning rewrites are published into the
  next knowledge base epoch — no batch relearn, no restart.

  with -shards N, the knowledge base splits across N independent
  epoch-snapshot shards: each template lives in exactly one shard and a
  plan's probes fan out only to the shards its fragment signatures route
  to, so a publication on one shard never invalidates another's cache.

  with -probe-budget / -max-inflight, /reopt sheds load with 429 when a
  client's probe budget is exhausted or the matcher is saturated; the
  backpressure counters appear under "admission" in /stats. Per-client
  request/probe/throttle counters appear as rows under "tenancy".

  with -tenant-namespaces, each X-Galo-Client identity gets its own
  knowledge base namespace: templates seeded into one tenant's namespace
  never match another tenant's queries. -tenant-share falls back to the
  shared knowledge base when a tenant's own namespace has no match, and
  -max-tenants bounds the tracked identities (extras share one overflow
  row, so counter sums stay exact).

  # replay a bursty 4-tenant trace against an in-process trace-workload
  # server with a per-tenant probe budget of 8
  galo trace -tenants 4 -arrivals 128 -probe-budget 8

  with -exec-workers N, validated executions ("execute": true) run each
  eligible plan segment on N exchange workers — large scans split into
  contiguous partitions, hash-join builds partition across the pool — with
  byte-identical simulated costs and results; -exec-mem-budget SIZE (e.g.
  256MB) admission-controls concurrent executions against their estimated
  peak intermediate residency: executions past the budget queue, and a plan
  bigger than the whole budget runs alone and serially. Worker, exchange
  and governor counters appear under "executor" in /stats.

  # serve with 4 exchange workers under a 256MB residency budget
  galo serve -kb kb.nt -exec-workers 4 -exec-mem-budget 256MB

  with -fleet "u1,u2;u3,u4", the knowledge base lives in remote "galo shard"
  processes instead of this one: shard endpoint groups are separated by ';'
  and replicas within a group by ','. Probes route through a fault-tolerant
  gateway — per-probe deadlines, capped exponential backoff with jitter,
  replica failover on timeout/5xx, optional hedging (-fleet-hedge 50ms) and
  a per-replica circuit breaker — and its counters appear under "fleet" in
  /stats. -fleet-rebalance watches per-shard probe skew and migrates hot
  templates between shards with the two-epoch protocol (copy, dual-route,
  cut over, drop) so no probe ever misses mid-migration.

  # a two-shard fleet, one replica each, and the gateway in front
  galo learn -kb kb.nt
  galo shard -kb kb.nt -shard 0 -shards 2 -addr 127.0.0.1:3031 &
  galo shard -kb kb.nt -shard 1 -shards 2 -addr 127.0.0.1:3032 &
  galo serve -fleet "http://127.0.0.1:3031;http://127.0.0.1:3032"

  with -data-dir, every knowledge base epoch is written to a per-shard
  write-ahead log and compacted into snapshots; kill the process however you
  like and restart it over the same directory — it recovers the exact
  pre-crash templates and epochs (no relearning) and -kb is ignored. -sync
  picks the fsync policy (always / interval / never); durability counters
  and recovery details appear under "durability" in /stats, and /healthz
  reports "degraded" if a disk error drops the server to in-memory mode.`)
}

type workloadFlags struct {
	workload string
	scale    float64
	seed     int64
	queries  int
}

func addWorkloadFlags(fs *flag.FlagSet) *workloadFlags {
	wf := &workloadFlags{}
	fs.StringVar(&wf.workload, "workload", "tpcds", "workload: tpcds, client, or a zoo scenario (ohlc, joblike, trace)")
	fs.Float64Var(&wf.scale, "scale", 0.2, "data scale factor")
	fs.Int64Var(&wf.seed, "seed", 20190522, "generation seed (0 = the workload's default)")
	fs.IntVar(&wf.queries, "queries", 0, "limit the number of workload queries (0 = all)")
	return wf
}

func (wf *workloadFlags) load() (*galo.Database, []*galo.Query, error) {
	switch strings.ToLower(wf.workload) {
	case "tpcds":
		db, err := galo.GenerateTPCDS(galo.TPCDSOptions{Seed: wf.seed, Scale: wf.scale, Hazards: true})
		if err != nil {
			return nil, nil, err
		}
		// The wide-range Figure 8 variants ride along after the -queries
		// limit: their date ranges depend on the generated calendar, and they
		// are the workload's deterministic misestimation hazard.
		qs := append(limit(galo.TPCDSQueries(), wf.queries), galo.Fig8WideVariants(db, 4)...)
		return db, qs, nil
	case "client":
		db, err := galo.GenerateClient(galo.ClientOptions{Seed: wf.seed, Scale: wf.scale, Hazards: true})
		if err != nil {
			return nil, nil, err
		}
		return db, limit(galo.ClientQueries(), wf.queries), nil
	default:
		sc, ok := galo.ScenarioByName(strings.ToLower(wf.workload))
		if !ok {
			return nil, nil, fmt.Errorf("unknown workload %q (want tpcds, client, ohlc, joblike or trace)", wf.workload)
		}
		gen := sc.DefaultGen()
		if wf.seed != 0 {
			gen.Seed = wf.seed
		}
		gen.Scale = wf.scale
		db, err := sc.Generate(gen)
		if err != nil {
			return nil, nil, err
		}
		return db, sc.HazardQueries(db, wf.queries), nil
	}
}

func limit(qs []*galo.Query, n int) []*galo.Query {
	if n > 0 && n < len(qs) {
		return qs[:n]
	}
	return qs
}

// execFlags holds the parallel-executor knobs shared by reopt and serve.
type execFlags struct {
	workers   int
	memBudget string
}

func addExecFlags(fs *flag.FlagSet) *execFlags {
	ef := &execFlags{}
	fs.IntVar(&ef.workers, "exec-workers", 0, "exchange workers per query execution; 0 or 1 = serial")
	fs.StringVar(&ef.memBudget, "exec-mem-budget", "", "peak-residency budget for concurrent executions, e.g. 256MB or 1GB; empty = ungoverned")
	return ef
}

// options translates the flags into the Config.Exec value.
func (ef *execFlags) options() (galo.ExecOptions, error) {
	opts := galo.ExecOptions{Workers: ef.workers}
	if ef.memBudget != "" {
		b, err := parseByteSize(ef.memBudget)
		if err != nil {
			return opts, fmt.Errorf("-exec-mem-budget: %w", err)
		}
		opts.MemBudgetBytes = b
	}
	return opts, nil
}

// addAdmissionFlags declares the load-shedding and tenancy flags serve and
// trace share; the function it returns writes their values into a Config.
func addAdmissionFlags(fs *flag.FlagSet, defaultProbeBudget int) func(*galo.Config) {
	probeBudget := fs.Int("probe-budget", defaultProbeBudget, "per-client KB-probe budget per second on /reopt; 0 disables admission control")
	maxInflight := fs.Int("max-inflight", 0, "max concurrent /reopt requests before load shedding; 0 = unlimited")
	tenantNS := fs.Bool("tenant-namespaces", false, "give each X-Galo-Client identity its own knowledge base namespace")
	return func(cfg *galo.Config) {
		cfg.Admission.ProbeBudget = *probeBudget
		cfg.Admission.MaxConcurrent = *maxInflight
		cfg.Tenancy.Enabled = *tenantNS
	}
}

// serveUntilSignal runs serve until it fails or SIGINT/SIGTERM arrives; then
// it gives shutdown the timeout and waits for serve to return.
func serveUntilSignal(serve func() error, shutdown func(context.Context) error, timeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve() }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := shutdown(ctx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		return err
	}
	return nil
}

// parseByteSize parses a human-readable byte size: a plain integer (or a B
// suffix) is bytes, and KB/MB/GB (or K/M/G) suffixes scale by 1024.
func parseByteSize(s string) (int64, error) {
	t := strings.ToUpper(strings.TrimSpace(s))
	shift := 0
	for _, unit := range []struct {
		suffix string
		shift  int
	}{{"GB", 30}, {"G", 30}, {"MB", 20}, {"M", 20}, {"KB", 10}, {"K", 10}, {"B", 0}} {
		if rest, ok := strings.CutSuffix(t, unit.suffix); ok {
			t, shift = rest, unit.shift
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid size %q (want e.g. 512, 64KB, 256MB, 1GB)", s)
	}
	if shift > 0 && n > (1<<62)>>shift {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return n << shift, nil
}

func runLearn(args []string) error {
	fs := flag.NewFlagSet("learn", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	kbPath := fs.String("kb", "kb.nt", "path to write the knowledge base (N-Triples)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, queries, err := wf.load()
	if err != nil {
		return err
	}
	cfg := galo.DefaultConfig()
	cfg.Learning.Workload = wf.workload
	sys := galo.NewSystem(db, cfg)
	fmt.Printf("learning over %d %s queries (scale %.2f)...\n", len(queries), wf.workload, wf.scale)
	report, err := sys.Learn(queries)
	if err != nil {
		return err
	}
	fmt.Printf("analyzed %d queries / %d sub-queries, learned %d problem-pattern templates (avg improvement %.0f%%)\n",
		report.QueriesAnalyzed, report.SubQueriesAnalyzed, report.TemplatesAdded, report.AvgImprovement*100)
	if err := sys.SaveKB(*kbPath); err != nil {
		return err
	}
	fmt.Printf("knowledge base written to %s\n", *kbPath)
	return nil
}

func runReopt(args []string) error {
	fs := flag.NewFlagSet("reopt", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	kbPath := fs.String("kb", "kb.nt", "knowledge base to match against")
	queryText := fs.String("query", "", "SQL text of a single query to re-optimize")
	queryName := fs.String("name", "", "name of a workload query to re-optimize (e.g. TPCDS.Q09)")
	shards := fs.Int("shards", 1, "number of knowledge base shards to load into")
	ef := addExecFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, queries, err := wf.load()
	if err != nil {
		return err
	}
	cfg := galo.DefaultConfig()
	cfg.Shards = *shards
	if cfg.Exec, err = ef.options(); err != nil {
		return err
	}
	sys := galo.NewSystem(db, cfg)
	if err := sys.LoadKB(*kbPath); err != nil {
		return err
	}
	targets := queries
	if *queryText != "" {
		q, err := galo.ParseSQL(*queryText)
		if err != nil {
			return err
		}
		q.Name = "ADHOC"
		targets = []*galo.Query{q}
	} else if *queryName != "" {
		targets = nil
		for _, q := range queries {
			if strings.EqualFold(q.Name, *queryName) {
				targets = []*galo.Query{q}
			}
		}
		if len(targets) == 0 {
			return fmt.Errorf("query %q not found in the %s workload", *queryName, wf.workload)
		}
	}
	outcomes, summary, err := sys.ReoptimizeWorkload(targets)
	if err != nil {
		return err
	}
	for _, o := range outcomes {
		status := "no match"
		switch {
		case o.RowsDiffer:
			status = fmt.Sprintf("REWRITE REFUSED: it returned %d rows, the original plan %d", o.GaloRows, o.OriginalRows)
		case o.Applied:
			status = fmt.Sprintf("rewritten (%d rewrites), %.1f ms -> %.1f ms (%.0f%% faster)",
				o.Rewrites, o.OriginalMillis, o.GaloMillis, o.Improvement()*100)
		case o.Matched:
			status = "matched, rewrite not kept (no runtime benefit in this context)"
		}
		fmt.Printf("%-14s %s\n", o.Query, status)
	}
	fmt.Printf("\n%d/%d queries matched, %d rewrites kept; average improvement %.0f%%\n",
		summary.Matched, summary.Queries, summary.Applied, summary.AvgImprovement*100)
	return nil
}

func runKB(args []string) error {
	fs := flag.NewFlagSet("kb", flag.ExitOnError)
	kbPath := fs.String("kb", "kb.nt", "knowledge base to inspect")
	if err := fs.Parse(args); err != nil {
		return err
	}
	data, err := os.ReadFile(*kbPath)
	if err != nil {
		return err
	}
	knowledge := galo.NewKnowledgeBase()
	if err := knowledge.LoadNTriples(string(data)); err != nil {
		return err
	}
	fmt.Printf("%d problem-pattern templates\n\n", knowledge.Size())
	for _, t := range knowledge.Templates() {
		fmt.Printf("template %s  (source %s/%s, %d joins, improvement %.0f%%)\n",
			t.ID, t.SourceWorkload, t.SourceQuery, t.Joins, t.Improvement*100)
		fmt.Printf("  problem: %s\n", t.Problem.Signature())
	}
	return nil
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	kbPath := fs.String("kb", "kb.nt", "knowledge base to serve")
	addr := fs.String("addr", ":3030", "listen address")
	online := fs.Bool("online", false, "learn incrementally from executed queries that misestimate")
	shards := fs.Int("shards", 1, "number of knowledge base shards (templates partition by problem-signature prefix)")
	admission := addAdmissionFlags(fs, 0)
	tenantShare := fs.Bool("tenant-share", false, "with -tenant-namespaces, fall back to the shared knowledge base when a tenant's namespace has no match")
	maxTenants := fs.Int("max-tenants", 0, "bound on tracked tenant identities; extra identities share one overflow row (0 = default 256)")
	fleetSpec := fs.String("fleet", "", "remote shard fleet: ';'-separated shard groups of ','-separated replica URLs (e.g. \"http://h1:3031,http://h2:3031;http://h3:3032\"); empty = in-process KB")
	fleetTimeout := fs.Duration("fleet-probe-timeout", 0, "fleet: per-probe deadline (0 = default 2s)")
	fleetAttempts := fs.Int("fleet-attempts", 0, "fleet: attempts per probe across replicas (0 = default 3)")
	fleetHedge := fs.Duration("fleet-hedge", 0, "fleet: send a hedged probe to another replica after this long (0 = hedging off)")
	fleetRebalance := fs.Bool("fleet-rebalance", false, "fleet: migrate hot templates between shards when probe skew exceeds 2x")
	fleetRebalanceEvery := fs.Duration("fleet-rebalance-interval", 0, "fleet: rebalancer window length (0 = default 5s)")
	dataDir := fs.String("data-dir", "", "directory for the knowledge base WAL + snapshots; restart recovers the pre-crash epochs (empty = in-memory only)")
	syncMode := fs.String("sync", "interval", "WAL durability: always (fsync per publication), interval (batched fsync), never")
	snapshotEvery := fs.Uint64("snapshot-every", 0, "compact a shard's WAL into a snapshot every N triple changes (a publication changes dozens; 0 = default 4096)")
	ef := addExecFlags(fs)
	wf := addWorkloadFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, _, err := wf.load()
	if err != nil {
		return err
	}
	cfg := galo.DefaultConfig()
	cfg.Shards = *shards
	admission(&cfg)
	cfg.Tenancy.ShareTemplates, cfg.Tenancy.MaxTenants = *tenantShare, *maxTenants
	cfg.DataDir = *dataDir
	cfg.SnapshotEvery = *snapshotEvery
	if cfg.Exec, err = ef.options(); err != nil {
		return err
	}
	if cfg.Sync, err = galo.ParseSyncPolicy(*syncMode); err != nil {
		return err
	}
	if *online {
		cfg.Online = galo.DefaultOnlineOptions()
	}
	if *fleetSpec != "" {
		shardGroups, err := parseFleetSpec(*fleetSpec)
		if err != nil {
			return err
		}
		cfg.Shards = len(shardGroups)
		cfg.Fleet = galo.FleetOptions{
			Shards: shardGroups,
			Policy: galo.FleetPolicy{
				ProbeTimeout: *fleetTimeout,
				MaxAttempts:  *fleetAttempts,
				HedgeAfter:   *fleetHedge,
			},
			Rebalance: galo.RebalanceOptions{
				Enabled:  *fleetRebalance,
				Interval: *fleetRebalanceEvery,
			},
		}
	}
	sys := galo.NewSystem(db, cfg)
	defer sys.Close()

	recovered, err := sys.OpenDataDir()
	if err != nil {
		return err
	}
	switch {
	case *fleetSpec != "":
		// The remote shard processes hold the knowledge base; nothing to load
		// locally — probes route through the gateway.
		fmt.Printf("routing knowledge base probes to a %d-shard remote fleet\n", len(cfg.Fleet.Shards))
	case recovered != nil && recovered.Recovered:
		// The data directory holds the durable knowledge base — it wins over
		// -kb, whose file would either duplicate or roll back the recovered
		// epochs.
		detail := "same shard layout, epoch lineage continues"
		if recovered.Rerouted {
			detail = "shard layout changed, templates re-routed into a fresh lineage"
		}
		fmt.Printf("recovered %d templates from %s (%s)\n", recovered.Templates, *dataDir, detail)
	default:
		if err := sys.LoadKB(*kbPath); err != nil {
			return err
		}
		if recovered != nil {
			fmt.Printf("initialized data dir %s (sync=%s)\n", *dataDir, *syncMode)
		}
	}

	mode := "offline KB"
	if *online {
		mode = "online learning enabled"
	}
	fmt.Printf("serving re-optimization API (%d templates, %d shard(s), %s) on %s — POST {\"sql\": ...} to /reopt, SPARQL to /query, stats at /stats\n",
		sys.KB().Size(), sys.KB().Shards(), mode, *addr)

	// SIGINT/SIGTERM drain gracefully: in-flight requests finish, new ones
	// get 503 + Retry-After, the online learner flushes, and the WAL takes a
	// final fsync before exit.
	return serveUntilSignal(func() error { return sys.Serve(*addr) }, func(ctx context.Context) error {
		fmt.Println("shutting down: draining connections and flushing the knowledge base...")
		return sys.Shutdown(ctx)
	}, 15*time.Second)
}

// parseFleetSpec parses the -fleet value: shard endpoint groups separated by
// ';', replica URLs within a group by ','.
func parseFleetSpec(spec string) ([][]string, error) {
	var shards [][]string
	for i, group := range strings.Split(spec, ";") {
		var replicas []string
		for _, u := range strings.Split(group, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				return nil, fmt.Errorf("-fleet: replica %q of shard %d is not an http(s) URL", u, i)
			}
			replicas = append(replicas, strings.TrimRight(u, "/"))
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("-fleet: shard %d has no replica URLs", i)
		}
		shards = append(shards, replicas)
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("-fleet: no shard groups in %q", spec)
	}
	return shards, nil
}

// runShard serves one knowledge base shard for a remote fleet: it loads the
// full KB dump, keeps only the templates that route to -shard under the
// -shards layout (the same shape-prefix routing the gateway uses), and
// serves them over the fleet shard HTTP surface (/query /data /version
// /shape /healthz). Every replica of a shard runs this same command.
func runShard(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	kbPath := fs.String("kb", "kb.nt", "full knowledge base dump to slice the shard from")
	addr := fs.String("addr", "127.0.0.1:0", "listen address (use a fixed port so the gateway can find it)")
	shard := fs.Int("shard", 0, "this shard's index in [0, shards)")
	shards := fs.Int("shards", 1, "total number of shards in the fleet")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shard < 0 || *shard >= *shards {
		return fmt.Errorf("-shard %d out of range for -shards %d", *shard, *shards)
	}
	data, err := os.ReadFile(*kbPath)
	if err != nil {
		return err
	}
	slice, err := galo.ShardSlice(string(data), *shard, *shards)
	if err != nil {
		return err
	}
	knowledge := galo.NewKnowledgeBase()
	if err := knowledge.LoadNTriples(slice); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: galo.NewShardServer(knowledge)}
	fmt.Printf("shard %d/%d serving %d templates on http://%s\n",
		*shard, *shards, knowledge.Size(), ln.Addr())

	return serveUntilSignal(func() error { return srv.Serve(ln) }, srv.Shutdown, 10*time.Second)
}

func runExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	wf := addWorkloadFlags(fs)
	queryText := fs.String("query", "", "SQL text to explain (defaults to the first workload query)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, queries, err := wf.load()
	if err != nil {
		return err
	}
	sys := galo.NewSystem(db, galo.DefaultConfig())
	q := queries[0]
	if *queryText != "" {
		if q, err = galo.ParseSQL(*queryText); err != nil {
			return err
		}
		q.Name = "ADHOC"
	}
	plan, err := sys.Optimize(q)
	if err != nil {
		return err
	}
	fmt.Print(galo.FormatPlan(plan))
	return nil
}

// runTrace replays a deterministic multi-tenant arrival trace against a
// re-optimization server: each arrival posts its query to /reopt under its
// tenant's X-Galo-Client identity. With no -target, it builds the trace
// workload and serves it in-process, so one command demonstrates per-tenant
// admission control and namespaces end to end.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	profile := fs.String("trace", "bursty", "arrival profile: bursty or steady")
	tenants := fs.Int("tenants", 4, "number of tenant identities")
	arrivals := fs.Int("arrivals", 128, "total number of requests")
	burstLen := fs.Int("burst-len", 16, "requests per burst (bursty profile)")
	speedup := fs.Float64("speedup", 10, "replay speedup over the schedule's wall clock; <= 0 fires everything at once")
	seed := fs.Int64("seed", 20190803, "trace schedule seed")
	target := fs.String("target", "", "base URL of a running galo serve (empty = serve the trace workload in-process)")
	scale := fs.Float64("scale", 0.25, "data scale for the in-process server")
	admission := addAdmissionFlags(fs, 8) // of the in-process server
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *profile != "bursty" && *profile != "steady" {
		return fmt.Errorf("unknown -trace profile %q (want bursty or steady)", *profile)
	}

	url := *target
	if url == "" {
		sc, _ := galo.ScenarioByName("trace")
		gen := sc.DefaultGen()
		gen.Scale = *scale
		db, err := sc.Generate(gen)
		if err != nil {
			return err
		}
		cfg := galo.DefaultConfig()
		admission(&cfg)
		sys := galo.NewSystem(db, cfg)
		defer sys.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: sys.APIHandler()}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		url = "http://" + ln.Addr().String()
		fmt.Printf("serving the trace workload in-process on %s (probe budget %d)\n", url, cfg.Admission.ProbeBudget)
	}

	schedule := galo.TraceArrivals(galo.TraceOptions{
		Seed: *seed, Tenants: *tenants, Arrivals: *arrivals,
		Profile: *profile, BurstLen: *burstLen,
	})
	type tally struct{ ok, throttled, failed int }
	perTenant := map[string]*tally{}
	var latencies []float64
	var mu sync.Mutex
	galo.ReplayTrace(schedule, *speedup, func(a galo.TraceArrival) {
		body, _ := json.Marshal(galo.ReoptRequest{SQL: a.Query.SQL(), Name: a.Query.Name})
		req, err := http.NewRequest(http.MethodPost, url+"/reopt", bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Galo-Client", a.Tenant)
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		elapsed := float64(time.Since(start).Microseconds()) / 1000
		mu.Lock()
		defer mu.Unlock()
		tl := perTenant[a.Tenant]
		if tl == nil {
			tl = &tally{}
			perTenant[a.Tenant] = tl
		}
		if err != nil {
			tl.failed++
			return
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			tl.ok++
			latencies = append(latencies, elapsed)
		case http.StatusTooManyRequests:
			tl.throttled++
		default:
			tl.failed++
		}
	})

	names := make([]string, 0, len(perTenant))
	for name := range perTenant {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("\n%-12s %8s %10s %8s\n", "tenant", "answered", "throttled", "failed")
	for _, name := range names {
		tl := perTenant[name]
		fmt.Printf("%-12s %8d %10d %8d\n", name, tl.ok, tl.throttled, tl.failed)
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		quantile := func(q float64) float64 { return latencies[int(q*float64(len(latencies)-1))] }
		fmt.Printf("\n%s profile: %d arrivals, answered latency p50 %.1f ms, p99 %.1f ms\n",
			*profile, len(schedule), quantile(0.5), quantile(0.99))
	}
	return nil
}
