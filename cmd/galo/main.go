// Command galo is the command-line front end of the GALO reproduction: it
// generates the evaluation databases, runs offline learning, re-optimizes
// queries online, inspects the knowledge base and serves it over HTTP.
//
// Usage:
//
//	galo learn   -workload tpcds|client [-scale 0.2] [-queries N] [-kb kb.nt]
//	galo reopt   -workload tpcds|client -kb kb.nt [-query "SELECT ..."] [-name TPCDS.Q09] [-exec-mem-budget 1GB]
//	galo kb      -kb kb.nt
//	galo serve   -kb kb.nt [-addr :3030] [-online] [-shards N] [-data-dir DIR] [-fleet "u1,u2;u3,u4"] ...
//	galo shard   -kb kb.nt -shard I -shards N [-addr 127.0.0.1:3031]
//	galo trace   [-trace bursty|steady] [-tenants N] [-arrivals N] [-speedup X] [-target URL]
//	galo explain -workload tpcds|client [-query "SELECT ..."]
//
// -workload also accepts the zoo scenarios (ohlc, joblike, trace): adversarial
// workloads whose generators build a deterministic estimation hazard in
// (stale histograms, correlated join columns, per-tenant type skew) and whose
// hazard queries stand in for the workload query list.
//
// `galo help` lists every command's flags with their defaults, then example
// requests against the serve API and a two-shard fleet quick start.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"galo"
)

// settings is everything one galo command reads: the system configuration its
// flags bind straight into, plus the command's own inputs (profile, target,
// tenants, arrivals, burstLen and speedup are trace's replay knobs).
type settings struct {
	galo.Config
	workload, kb, addr, query, name, profile, target string
	scale, speedup                                   float64
	seed                                             int64
	queries, shard, tenants, arrivals, burstLen      int
}

// commands lists the subcommands in the order galo help prints them.
var commands = []struct {
	name, summary string
	run           func(*settings) error
}{
	{"learn", "run offline learning over a workload and save the knowledge base", runLearn},
	{"reopt", "re-optimize queries online against a knowledge base", runReopt},
	{"kb", "list the templates stored in a knowledge base", runKB},
	{"serve", "run the re-optimization HTTP service over a knowledge base", runServe},
	{"shard", "serve one knowledge base shard for a remote fleet (see serve -fleet)", runShard},
	{"trace", "replay a deterministic multi-tenant arrival trace against /reopt", runTrace},
	{"explain", "show the optimizer's plan for a query without GALO", runExplain},
}

// options binds every flag into settings for the commands each entry names; a
// flag whose default differs between commands has one entry per default.
var options = []struct {
	cmds string
	bind func(*flag.FlagSet, *settings)
}{
	{"learn reopt kb serve shard", func(fs *flag.FlagSet, s *settings) {
		fs.StringVar(&s.kb, "kb", "kb.nt", "knowledge base file (N-Triples): learn writes it, the other commands read it")
	}},
	{"learn reopt serve explain", func(fs *flag.FlagSet, s *settings) {
		fs.StringVar(&s.workload, "workload", "tpcds", "workload: tpcds, client, or a zoo scenario (ohlc, joblike, trace)")
		fs.Float64Var(&s.scale, "scale", 0.2, "data scale factor")
		fs.Int64Var(&s.seed, "seed", 20190522, "generation seed (0 = the workload's default)")
		fs.IntVar(&s.queries, "queries", 0, "limit the number of workload queries (0 = all)")
	}},
	{"reopt explain", func(fs *flag.FlagSet, s *settings) {
		fs.StringVar(&s.query, "query", "", "SQL text of a single query (explain defaults to the first workload query)")
	}},
	{"reopt", func(fs *flag.FlagSet, s *settings) {
		fs.StringVar(&s.name, "name", "", "name of a workload query to re-optimize (e.g. TPCDS.Q09)")
	}},
	{"reopt serve shard", func(fs *flag.FlagSet, s *settings) {
		fs.IntVar(&s.Shards, "shards", 1, "number of knowledge base shards (templates partition by problem-signature prefix)")
	}},
	{"reopt serve", func(fs *flag.FlagSet, s *settings) {
		fs.Func("exec-mem-budget", "peak-residency budget for concurrent executions, a `size` such as 256MB or 1GB; empty = ungoverned", unlessEmpty(&s.Exec.MemBudgetBytes, parseByteSize))
	}},
	{"serve trace", func(fs *flag.FlagSet, s *settings) {
		fs.IntVar(&s.Admission.MaxConcurrent, "max-inflight", 0, "max concurrent /reopt requests before load shedding; 0 = unlimited")
		fs.BoolVar(&s.Tenancy.Enabled, "tenant-namespaces", false, "give each X-Galo-Client identity its own knowledge base namespace")
	}},
	{"serve", func(fs *flag.FlagSet, s *settings) {
		fs.StringVar(&s.addr, "addr", ":3030", "listen address")
		fs.IntVar(&s.Admission.ProbeBudget, "probe-budget", 0, "per-client KB-probe budget per second on /reopt; 0 disables admission control")
		fs.BoolFunc("online", "learn incrementally from executed queries that misestimate", func(v string) error {
			on, err := strconv.ParseBool(v)
			s.Online = galo.OnlineOptions{}
			if on {
				s.Online = galo.DefaultOnlineOptions()
			}
			return err
		})
		fs.BoolVar(&s.Tenancy.ShareTemplates, "tenant-share", false, "with -tenant-namespaces, fall back to the shared knowledge base when a tenant's namespace has no match")
		fs.IntVar(&s.Tenancy.MaxTenants, "max-tenants", 0, "bound on tracked tenant identities; extra identities share one overflow row (0 = default 256)")
		fs.Func("fleet", "remote fleet of galo shard processes instead of a local KB: ';'-separated shard groups of ','-separated replica `URLs` (e.g. \"http://h1:3031,http://h2:3031;http://h3:3032\"); empty = in-process KB", unlessEmpty(&s.Fleet.Shards, parseFleetSpec))
		fs.DurationVar(&s.Fleet.Policy.ProbeTimeout, "fleet-probe-timeout", 0, "fleet: per-attempt deadline of one probe (0 = default 2s)")
		fs.IntVar(&s.Fleet.Policy.MaxAttempts, "fleet-attempts", 0, "fleet: attempts per probe across replicas (0 = default 3)")
		fs.DurationVar(&s.Fleet.Policy.HedgeAfter, "fleet-hedge", 0, "fleet: send a hedged probe to another replica after this long (0 = hedging off)")
		fs.BoolVar(&s.Fleet.Rebalance.Enabled, "fleet-rebalance", false, "fleet: migrate hot templates between shards (two-epoch protocol) when probe skew exceeds 2x")
		fs.DurationVar(&s.Fleet.Rebalance.Interval, "fleet-rebalance-interval", 0, "fleet: how often the rebalancer re-measures probe skew (0 = default 5s)")
		fs.StringVar(&s.DataDir, "data-dir", "", "directory for the knowledge base WAL + snapshots; restart recovers the pre-crash epochs (empty = in-memory only)")
		fs.TextVar(&s.Sync, "sync", s.Sync, "WAL fsync `policy`: always (per publication), interval (batched on a 100ms ticker), never (left to the OS)")
		fs.Uint64Var(&s.SnapshotEvery, "snapshot-every", 0, "compact a shard's WAL into a snapshot every N triple changes (a publication changes dozens; 0 = default 4096)")
	}},
	{"shard", func(fs *flag.FlagSet, s *settings) {
		fs.StringVar(&s.addr, "addr", "127.0.0.1:0", "listen address (use a fixed port so the gateway can find it)")
		fs.IntVar(&s.shard, "shard", 0, "this shard's index in [0, shards)")
	}},
	{"trace", func(fs *flag.FlagSet, s *settings) {
		fs.IntVar(&s.Admission.ProbeBudget, "probe-budget", 8, "per-client KB-probe budget per second of the in-process server; 0 disables admission control")
		fs.Float64Var(&s.scale, "scale", 0.25, "data scale for the in-process server")
		fs.Int64Var(&s.seed, "seed", 20190803, "trace schedule seed")
		fs.StringVar(&s.profile, "trace", "bursty", "arrival profile: bursty or steady")
		fs.IntVar(&s.tenants, "tenants", 4, "number of tenant identities")
		fs.IntVar(&s.arrivals, "arrivals", 128, "total number of requests")
		fs.IntVar(&s.burstLen, "burst-len", 16, "requests per burst (bursty profile)")
		fs.Float64Var(&s.speedup, "speedup", 10, "replay speedup over the schedule's wall clock; <= 0 fires everything at once")
		fs.StringVar(&s.target, "target", "", "base URL of a running galo serve (empty = serve the trace workload in-process)")
	}},
}

// unlessEmpty returns a flag.Func body that stores parse(v) in *dst, or the
// zero value for an empty v.
func unlessEmpty[T any](dst *T, parse func(string) (T, error)) func(string) error {
	return func(v string) (err error) {
		if *dst = *new(T); v != "" {
			*dst, err = parse(v)
		}
		return err
	}
}

// flags builds cmd's flag set, bound into s; a bad flag exits 2, -h exits 0.
func flags(cmd string, s *settings) *flag.FlagSet {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	for _, o := range options {
		if slices.Contains(strings.Fields(o.cmds), cmd) {
			o.bind(fs, s)
		}
	}
	return fs
}

// parse parses cmd's args over the default configuration.
func parse(cmd string, args []string) (*settings, error) {
	s := &settings{Config: galo.DefaultConfig()}
	fs := flags(cmd, s)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cmd == "learn" {
		s.Learning.Workload = s.workload // learned templates record their source
	}
	// -fleet sets the shard count from its groups; without it the fleet
	// knobs have nothing to configure.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	switch n := len(s.Fleet.Shards); {
	case n == 0:
		s.Fleet = galo.FleetOptions{}
	case explicit["shards"] && s.Shards != n:
		return nil, fmt.Errorf("-shards %d contradicts the %d shard groups of -fleet", s.Shards, n)
	default:
		s.Shards = n
	}
	return s, nil
}

func main() {
	name := ""
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	for _, c := range commands {
		if c.name == name {
			s, err := parse(name, os.Args[2:])
			if err == nil {
				err = c.run(s)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "galo:", err)
				os.Exit(1)
			}
			return
		}
	}
	usage()
	switch name {
	case "help", "-h", "--help":
	case "":
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "galo: unknown command %q\n", name)
		os.Exit(2)
	}
}

// usage prints every command with its flags, then a few quick starts.
func usage() {
	fmt.Fprint(os.Stderr, "galo — guided automated learning for query workload re-optimization\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "\n%s: %s\n", c.name, c.summary)
		flags(c.name, new(settings)).PrintDefaults()
	}
	fmt.Fprint(os.Stderr, `
the serve API (default address :3030):
  # re-optimize a query; add "execute": true for validated simulated timings
  curl -s localhost:3030/reopt -d '{"sql": "SELECT ss_quantity FROM store_sales, date_dim WHERE ss_sold_date_sk = d_date_sk", "execute": true}'

  # SPARQL against the knowledge base (the paper's Fuseki role)
  curl -s localhost:3030/query --data-urlencode 'query=SELECT ?s WHERE { ?s <http://galo/qep/property/hasPopType> "HSJOIN" . }'

  # serving counters: KB epochs, caches, admission, tenancy, executor, fleet, durability
  curl -s localhost:3030/stats

  # a two-shard fleet, one replica each, and the gateway in front
  galo learn -kb kb.nt
  galo shard -kb kb.nt -shard 0 -shards 2 -addr 127.0.0.1:3031 &
  galo shard -kb kb.nt -shard 1 -shards 2 -addr 127.0.0.1:3032 &
  galo serve -fleet "http://127.0.0.1:3031;http://127.0.0.1:3032"
`)
}

// load generates the -workload's database from its DefaultGen at -scale and
// -seed (0 keeps the workload's own seed) and returns its first -queries
// queries.
func (s *settings) load() (*galo.Database, []*galo.Query, error) {
	sc, ok := galo.ScenarioByName(strings.ToLower(s.workload))
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want tpcds, client, ohlc, joblike or trace)", s.workload)
	}
	gen := sc.DefaultGen()
	if s.seed != 0 {
		gen.Seed = s.seed
	}
	gen.Scale = s.scale
	db, err := sc.Generate(gen)
	if err != nil {
		return nil, nil, err
	}
	queries := sc.HazardQueries(db, s.queries)
	if sc.Name() == "tpcds" {
		// The wide-range Figure 8 variants ride along after the -queries
		// limit: their date ranges depend on the generated calendar, and they
		// are the workload's deterministic misestimation hazard.
		queries = append(queries, galo.Fig8WideVariants(db, 4)...)
	}
	return db, queries, nil
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

func runLearn(s *settings) error {
	db, queries, err := s.load()
	if err != nil {
		return err
	}
	sys := galo.NewSystem(db, s.Config)
	fmt.Printf("learning over %d %s queries (scale %.2f)...\n", len(queries), s.workload, s.scale)
	report, err := sys.Learn(queries)
	if err != nil {
		return err
	}
	fmt.Printf("analyzed %d queries / %d sub-queries, learned %d problem-pattern templates (avg improvement %.0f%%)\n",
		report.QueriesAnalyzed, report.SubQueriesAnalyzed, report.TemplatesAdded, report.AvgImprovement*100)
	if err := sys.SaveKB(s.kb); err != nil {
		return err
	}
	fmt.Printf("knowledge base written to %s\n", s.kb)
	return nil
}

func runReopt(s *settings) error {
	db, queries, err := s.load()
	if err != nil {
		return err
	}
	sys := galo.NewSystem(db, s.Config)
	if err := sys.LoadKB(s.kb); err != nil {
		return err
	}
	targets := queries
	if s.query != "" {
		q, err := galo.ParseSQL(s.query)
		if err != nil {
			return err
		}
		q.Name = "ADHOC"
		targets = []*galo.Query{q}
	} else if s.name != "" {
		targets = nil
		for _, q := range queries {
			if strings.EqualFold(q.Name, s.name) {
				targets = []*galo.Query{q}
			}
		}
		if len(targets) == 0 {
			return fmt.Errorf("query %q not found in the %s workload", s.name, s.workload)
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

func runKB(s *settings) error {
	data, err := os.ReadFile(s.kb)
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

func runServe(s *settings) error {
	db, _, err := s.load()
	if err != nil {
		return err
	}
	sys := galo.NewSystem(db, s.Config)
	defer sys.Close()

	recovered, err := sys.OpenDataDir()
	if err != nil {
		return err
	}
	switch {
	case s.Fleet.Enabled():
		// The remote shard processes hold the knowledge base; nothing to load
		// locally — probes route through the gateway.
		fmt.Printf("routing knowledge base probes to a %d-shard remote fleet\n", len(s.Fleet.Shards))
	case recovered != nil && recovered.Recovered:
		// The data directory holds the durable knowledge base — it wins over
		// -kb, whose file would either duplicate or roll back the recovered
		// epochs.
		detail := "same shard layout, epoch lineage continues"
		if recovered.Rerouted {
			detail = "shard layout changed, templates re-routed into a fresh lineage"
		}
		fmt.Printf("recovered %d templates from %s (%s)\n", recovered.Templates, s.DataDir, detail)
	default:
		if err := sys.LoadKB(s.kb); err != nil {
			return err
		}
		if recovered != nil {
			fmt.Printf("initialized data dir %s (sync=%s)\n", s.DataDir, s.Sync)
		}
	}

	mode := "offline KB"
	if s.Online.Enabled {
		mode = "online learning enabled"
	}
	fmt.Printf("serving re-optimization API (%d templates, %d shard(s), %s) on %s — POST {\"sql\": ...} to /reopt, SPARQL to /query, stats at /stats\n",
		sys.KB().Size(), sys.KB().Shards(), mode, s.addr)

	// SIGINT/SIGTERM drain gracefully: in-flight requests finish, new ones
	// get 503 + Retry-After, the online learner flushes, and the WAL takes a
	// final fsync before exit.
	return serveUntilSignal(func() error { return sys.Serve(s.addr) }, func(ctx context.Context) error {
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
func runShard(s *settings) error {
	if s.shard < 0 || s.shard >= s.Shards {
		return fmt.Errorf("-shard %d out of range for -shards %d", s.shard, s.Shards)
	}
	data, err := os.ReadFile(s.kb)
	if err != nil {
		return err
	}
	slice, err := galo.ShardSlice(string(data), s.shard, s.Shards)
	if err != nil {
		return err
	}
	knowledge := galo.NewKnowledgeBase()
	if err := knowledge.LoadNTriples(slice); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: galo.NewShardServer(knowledge)}
	fmt.Printf("shard %d/%d serving %d templates on http://%s\n",
		s.shard, s.Shards, knowledge.Size(), ln.Addr())

	return serveUntilSignal(func() error { return srv.Serve(ln) }, srv.Shutdown, 10*time.Second)
}

func runExplain(s *settings) error {
	db, queries, err := s.load()
	if err != nil {
		return err
	}
	sys := galo.NewSystem(db, s.Config)
	q := queries[0]
	if s.query != "" {
		if q, err = galo.ParseSQL(s.query); err != nil {
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
func runTrace(s *settings) error {
	if s.profile != "bursty" && s.profile != "steady" {
		return fmt.Errorf("unknown -trace profile %q (want bursty or steady)", s.profile)
	}

	url := s.target
	if url == "" {
		sc, _ := galo.ScenarioByName("trace")
		gen := sc.DefaultGen()
		gen.Scale = s.scale
		db, err := sc.Generate(gen)
		if err != nil {
			return err
		}
		sys := galo.NewSystem(db, s.Config)
		defer sys.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: sys.APIHandler()}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		url = "http://" + ln.Addr().String()
		fmt.Printf("serving the trace workload in-process on %s (probe budget %d)\n", url, s.Admission.ProbeBudget)
	}

	schedule := galo.TraceArrivals(galo.TraceOptions{
		Seed: s.seed, Tenants: s.tenants, Arrivals: s.arrivals,
		Profile: s.profile, BurstLen: s.burstLen,
	})
	type tally struct{ ok, throttled, failed int }
	perTenant := map[string]*tally{}
	var latencies []float64
	var mu sync.Mutex
	galo.ReplayTrace(schedule, s.speedup, func(a galo.TraceArrival) {
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

	fmt.Printf("\n%-12s %8s %10s %8s\n", "tenant", "answered", "throttled", "failed")
	for _, name := range slices.Sorted(maps.Keys(perTenant)) {
		tl := perTenant[name]
		fmt.Printf("%-12s %8d %10d %8d\n", name, tl.ok, tl.throttled, tl.failed)
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		quantile := func(q float64) float64 { return latencies[int(q*float64(len(latencies)-1))] }
		fmt.Printf("\n%s profile: %d arrivals, answered latency p50 %.1f ms, p99 %.1f ms\n",
			s.profile, len(schedule), quantile(0.5), quantile(0.99))
	}
	return nil
}
