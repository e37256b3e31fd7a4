// Serving benchmark: GALO as an always-on re-optimization service. Drives
// the HTTP /reopt API with 1/4/16 concurrent clients against a trained
// knowledge base and records throughput plus p50/p99 latency — wall-clock
// per request and server-side knowledge base match time — cold (first sight
// of each fragment fingerprint) and routinized (repeat traffic through the
// sharded probe cache). TestEmitBenchServingJSON writes BENCH_serving.json,
// the trajectory file CI uploads; it also gates the Figure 12 claim under
// concurrency: routinized p50 match latency at 16 clients must stay within
// 2x of the single-client number.
package galo_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"galo"
	"galo/internal/experiments"
	"galo/internal/fleet"
	"galo/internal/fleet/chaos"
	"galo/internal/kb"
	"galo/internal/workload/tpcds"
)

var servingFixture struct {
	once    sync.Once
	err     error
	db      *galo.Database
	kbPath  string
	queries []*galo.Query
}

// servingSystem returns a freshly constructed system over the shared trained
// knowledge base (fresh matcher and cache — cold), plus the request pool.
func servingSystem(tb testing.TB) (*galo.System, []*galo.Query) {
	tb.Helper()
	servingFixture.once.Do(func() {
		db, err := tpcds.Generate(tpcds.GenOptions{Seed: 31, Scale: 0.08, Hazards: true})
		if err != nil {
			servingFixture.err = err
			return
		}
		cfg := galo.DefaultConfig()
		cfg.Learning.RandomPlans = 8
		cfg.Learning.PredicateVariants = 1
		cfg.Learning.Runs = 2
		cfg.Learning.Workers = 4
		cfg.Learning.MaxSubQueriesPerQuery = 10
		cfg.Learning.Workload = "tpcds"
		sys := galo.NewSystem(db, cfg)
		train := []*galo.Query{tpcds.Fig8Query(), tpcds.Fig7Query(), tpcds.Fig4Query()}
		if _, err := sys.Learn(train); err != nil {
			servingFixture.err = err
			return
		}
		f, err := os.CreateTemp(tb.TempDir(), "kb-*.nt")
		if err != nil {
			servingFixture.err = err
			return
		}
		f.Close()
		if err := sys.SaveKB(f.Name()); err != nil {
			servingFixture.err = err
			return
		}
		servingFixture.db = db
		servingFixture.kbPath = f.Name()
		// The request pool: the learned figure queries plus a slice of the
		// TPC-DS workload — a mix of matching and non-matching traffic, as a
		// serving deployment would see.
		pool := append([]*galo.Query{}, train...)
		pool = append(pool, tpcds.Queries()[:9]...)
		servingFixture.queries = pool
	})
	if servingFixture.err != nil {
		tb.Fatal(servingFixture.err)
	}
	sys := galo.NewSystem(servingFixture.db, galo.DefaultConfig())
	if err := sys.LoadKB(servingFixture.kbPath); err != nil {
		tb.Fatal(err)
	}
	return sys, servingFixture.queries
}

// sample is one measured /reopt request.
type sample struct {
	wallMillis  float64
	probeMillis float64
}

// drive issues `passes` rounds of the query pool from each of `clients`
// concurrent goroutines against the server and returns every request sample
// plus the phase's wall-clock duration.
func drive(tb testing.TB, url string, queries []*galo.Query, clients, passes int) ([]sample, time.Duration) {
	tb.Helper()
	results := make([][]sample, clients)
	var wg sync.WaitGroup
	httpc := &http.Client{}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for p := 0; p < passes; p++ {
				for i := range queries {
					q := queries[(i+c)%len(queries)]
					payload, _ := json.Marshal(galo.ReoptRequest{SQL: q.SQL(), Name: q.Name})
					t0 := time.Now()
					resp, err := httpc.Post(url+"/reopt", "application/json", bytes.NewReader(payload))
					if err != nil {
						tb.Errorf("client %d: %v", c, err)
						return
					}
					var out galo.ReoptResponse
					decErr := json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if decErr != nil || resp.StatusCode != http.StatusOK {
						tb.Errorf("client %d: status %d decode %v", c, resp.StatusCode, decErr)
						return
					}
					results[c] = append(results[c], sample{
						wallMillis:  float64(time.Since(t0).Microseconds()) / 1000,
						probeMillis: out.ProbeMillis,
					})
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, r := range results {
		all = append(all, r...)
	}
	return all, elapsed
}

func percentile(values []float64, p float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return experiments.QErrorQuantile(sorted, p)
}

// servingRow is one BENCH_serving.json entry.
type servingRow struct {
	Clients        int     `json:"clients"`
	Phase          string  `json:"phase"` // "cold" or "routinized"
	Requests       int     `json:"requests"`
	ThroughputRPS  float64 `json:"throughput_rps"`
	WallP50Millis  float64 `json:"wall_p50_ms"`
	WallP99Millis  float64 `json:"wall_p99_ms"`
	ProbeP50Millis float64 `json:"match_p50_ms"`
	ProbeP99Millis float64 `json:"match_p99_ms"`
}

// servingBefore is TestEmitBenchServingJSON's rows on the parent of PR 15.
var servingBefore = []servingRow{
	{Clients: 1, Phase: "cold", Requests: 12, ThroughputRPS: 1817.755, WallP50Millis: 0.23, WallP99Millis: 1.258, ProbeP50Millis: 0.077, ProbeP99Millis: 0.447},
	{Clients: 1, Phase: "routinized", Requests: 36, ThroughputRPS: 2462.160, WallP50Millis: 0.236, WallP99Millis: 1.086, ProbeP50Millis: 0.02, ProbeP99Millis: 0.162},
	{Clients: 4, Phase: "cold", Requests: 48, ThroughputRPS: 4746.098, WallP50Millis: 0.313, WallP99Millis: 4.187, ProbeP50Millis: 0.02, ProbeP99Millis: 0.356},
	{Clients: 4, Phase: "routinized", Requests: 144, ThroughputRPS: 5498.252, WallP50Millis: 0.483, WallP99Millis: 3.817, ProbeP50Millis: 0.017, ProbeP99Millis: 0.33},
	{Clients: 16, Phase: "cold", Requests: 192, ThroughputRPS: 4623.367, WallP50Millis: 2.742, WallP99Millis: 8.759, ProbeP50Millis: 0.017, ProbeP99Millis: 3.785},
	{Clients: 16, Phase: "routinized", Requests: 576, ThroughputRPS: 5158.607, WallP50Millis: 2.441, WallP99Millis: 7.999, ProbeP50Millis: 0.02, ProbeP99Millis: 0.382},
}

func measureServing(tb testing.TB, clients int) (cold, routinized servingRow) {
	sys, queries := servingSystem(tb) // fresh system: empty probe cache
	defer sys.Close()
	srv := httptest.NewServer(sys.APIHandler())
	defer srv.Close()

	rowFor := func(phase string, samples []sample, elapsed time.Duration) servingRow {
		wall := make([]float64, len(samples))
		probe := make([]float64, len(samples))
		for i, s := range samples {
			wall[i] = s.wallMillis
			probe[i] = s.probeMillis
		}
		return servingRow{
			Clients:        clients,
			Phase:          phase,
			Requests:       len(samples),
			ThroughputRPS:  float64(len(samples)) / elapsed.Seconds(),
			WallP50Millis:  percentile(wall, 0.50),
			WallP99Millis:  percentile(wall, 0.99),
			ProbeP50Millis: percentile(probe, 0.50),
			ProbeP99Millis: percentile(probe, 0.99),
		}
	}
	// Cold: the pool's first sight — every fragment fingerprint pays (or
	// joins, via singleflight) a real SPARQL probe.
	samples, elapsed := drive(tb, srv.URL, queries, clients, 1)
	cold = rowFor("cold", samples, elapsed)
	// Routinized: repeat traffic over the warmed cache (Figure 12).
	samples, elapsed = drive(tb, srv.URL, queries, clients, 3)
	routinized = rowFor("routinized", samples, elapsed)
	return cold, routinized
}

// BenchmarkServingReopt reports ns/request of the routinized serving path at
// GOMAXPROCS-parallel clients (go test -bench).
func BenchmarkServingReopt(b *testing.B) {
	sys, queries := servingSystem(b)
	defer sys.Close()
	srv := httptest.NewServer(sys.APIHandler())
	defer srv.Close()
	// Warm the cache.
	drive(b, srv.URL, queries, 1, 1)
	q := queries[0]
	payload, _ := json.Marshal(galo.ReoptRequest{SQL: q.SQL(), Name: q.Name})
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(srv.URL+"/reopt", "application/json", bytes.NewReader(payload))
			if err != nil {
				b.Error(err)
				return
			}
			resp.Body.Close()
		}
	})
}

// fleetServingRow is one entry of BENCH_serving.json's "fleet" section: the
// same 16-client drive once with every replica up and once across a replica
// SIGKILL, so the two rows quantify what the gateway's retries and failover
// cost under faults.
type fleetServingRow struct {
	Phase          string  `json:"phase"` // "intact" or "one_replica_killed"
	Clients        int     `json:"clients"`
	Requests       int     `json:"requests"`
	FailedRequests int     `json:"failed_requests"`
	ThroughputRPS  float64 `json:"throughput_rps"`
	WallP50Millis  float64 `json:"wall_p50_ms"`
	WallP99Millis  float64 `json:"wall_p99_ms"`
}

// measureFleetServing drives the serving workload through a remote shard
// fleet (2 shards x 2 chaos replicas over the trained dump), kills one
// replica, and measures the intact phase, the SIGKILL-to-first-successful-
// failover-probe recovery time, and the degraded phase. Zero requests may
// fail in either phase, and the degraded p50 must stay within 2x of intact.
func measureFleetServing(t *testing.T) (intact, killed fleetServingRow, recovery time.Duration, stats galo.FleetStats) {
	boot, queries := servingSystem(t) // ensures the trained fixture exists
	boot.Close()
	dump, err := os.ReadFile(servingFixture.kbPath)
	if err != nil {
		t.Fatal(err)
	}
	harness, err := newFleetHarness(string(dump), 2, 2, galo.FleetPolicy{
		ProbeTimeout:    5 * time.Second,
		MaxAttempts:     4,
		BackoffBase:     2 * time.Millisecond,
		BackoffCap:      50 * time.Millisecond,
		BreakerCooldown: 200 * time.Millisecond,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer harness.Close()

	cfg := galo.DefaultConfig()
	cfg.Shards = 2
	// Every request must drive real network probes: the routinization cache
	// would serve repeat traffic locally and hide the kill from the gateway.
	cfg.Matching.ProbeCacheSize = -1
	cfg.Fleet = harness.Options
	sys := galo.NewSystem(servingFixture.db, cfg)
	defer sys.Close()
	srv := httptest.NewServer(sys.APIHandler())
	defer srv.Close()

	const clients, passes = 16, 2
	rowFor := func(phase string, samples []sample, elapsed time.Duration) fleetServingRow {
		wall := make([]float64, len(samples))
		for i, s := range samples {
			wall[i] = s.wallMillis
		}
		return fleetServingRow{
			Phase:          phase,
			Clients:        clients,
			Requests:       clients * passes * len(queries),
			FailedRequests: clients*passes*len(queries) - len(samples),
			ThroughputRPS:  float64(len(samples)) / elapsed.Seconds(),
			WallP50Millis:  percentile(wall, 0.50),
			WallP99Millis:  percentile(wall, 0.99),
		}
	}

	samples, elapsed := drive(t, srv.URL, queries, clients, passes)
	intact = rowFor("intact", samples, elapsed)

	// SIGKILL one replica of shard 0 and time until the first /reopt
	// succeeds again through failover.
	probe := queries[0]
	payload, _ := json.Marshal(galo.ReoptRequest{SQL: probe.SQL(), Name: probe.Name})
	recovery, err = harness.KillRecovery(0, 0, func() error {
		resp, err := http.Post(srv.URL+"/reopt", "application/json", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return errStatus(resp.StatusCode)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	samples, elapsed = drive(t, srv.URL, queries, clients, passes)
	killed = rowFor("one_replica_killed", samples, elapsed)

	var st struct {
		Fleet galo.FleetStats `json:"fleet"`
	}
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return intact, killed, recovery, st.Fleet
}

type errStatus int

func (e errStatus) Error() string { return "reopt status " + http.StatusText(int(e)) }

// TestEmitBenchServingJSON measures the serving benchmark at 1/4/16
// concurrent clients and records it in BENCH_serving.json. It only runs when
// GALO_BENCH_JSON=1 (CI's benchmark job sets it) so that a plain
// `go test ./...` stays hermetic. It fails when the Figure 12 amortization
// does not survive concurrency: routinized p50 match latency at 16 clients
// must stay within 2x of the single-client number (a small epsilon absorbs
// timer granularity at microsecond scale).
func TestEmitBenchServingJSON(t *testing.T) {
	if os.Getenv("GALO_BENCH_JSON") == "" {
		t.Skip("set GALO_BENCH_JSON=1 to (re)write BENCH_serving.json")
	}
	var rows []servingRow
	routinizedP50 := map[int]float64{}
	for _, clients := range []int{1, 4, 16} {
		cold, routinized := measureServing(t, clients)
		rows = append(rows, cold, routinized)
		routinizedP50[clients] = routinized.ProbeP50Millis
		t.Logf("clients=%2d cold: %.2f ms wall p50, %.3f ms match p50 | routinized: %.2f ms wall p50, %.3f ms match p50, %.0f req/s",
			clients, cold.WallP50Millis, cold.ProbeP50Millis,
			routinized.WallP50Millis, routinized.ProbeP50Millis, routinized.ThroughputRPS)
	}
	const epsilonMillis = 0.05
	if routinizedP50[16] > 2*routinizedP50[1]+epsilonMillis {
		t.Errorf("routinized p50 match latency at 16 clients (%.3f ms) exceeds 2x the single-client number (%.3f ms)",
			routinizedP50[16], routinizedP50[1])
	}

	// Fleet section: the same drive through a remote 2x2 replica fleet, with
	// one replica SIGKILLed between phases. Gates: zero failed requests in
	// either phase, and degraded p50 within 2x of intact (failover adds at
	// most one retry round trip per probe, not a multiplicative blowup).
	intact, killed, recovery, fleetStats := measureFleetServing(t)
	t.Logf("fleet: intact %.2f ms wall p50 | killed %.2f ms wall p50 | recovery %.1f ms | %d probes, %d failovers, %d retries",
		intact.WallP50Millis, killed.WallP50Millis, float64(recovery.Microseconds())/1000,
		fleetStats.Probes, fleetStats.Failovers, fleetStats.Retries)
	if intact.FailedRequests != 0 || killed.FailedRequests != 0 {
		t.Errorf("fleet phases dropped requests: intact %d, killed %d, want 0",
			intact.FailedRequests, killed.FailedRequests)
	}
	const fleetEpsilonMillis = 1.0 // absorbs scheduler noise at millisecond scale
	if killed.WallP50Millis > 2*intact.WallP50Millis+fleetEpsilonMillis {
		t.Errorf("p50 across the replica kill (%.2f ms) exceeds 2x the intact p50 (%.2f ms)",
			killed.WallP50Millis, intact.WallP50Millis)
	}
	if fleetStats.Failovers == 0 && fleetStats.Retries == 0 {
		t.Errorf("replica kill produced neither failovers nor retries — the fault was not exercised")
	}

	doc := map[string]any{
		"benchmark": "re-optimization serving: POST /reopt throughput and latency vs concurrent clients",
		"note":      "cold = first pass over the query pool (fragment fingerprints unseen; singleflight collapses concurrent duplicates); routinized = repeat passes through the sharded probe cache. match_* is server-side knowledge base probe time per request (the Figure 12 quantity); wall_* is client-observed request latency. The Figure 12 amortization must survive concurrency: routinized match p50 at 16 clients stays within 2x of 1 client.",
		"env":       benchEnv(),
		"rows":      rows,
		// The same emission on the commit before probes were prepared
		// (49b635a), same machine: there a local probe was rendered to
		// SPARQL text, and lexed and parsed on every cache miss.
		"before_pr15": servingBefore,
		"fleet": map[string]any{
			"note":             "16 clients through a remote shard fleet (2 shards x 2 replicas, probe cache disabled so every request probes over the network). intact = all replicas up; one_replica_killed = after SIGKILLing one replica of shard 0. kill_recovery_ms is SIGKILL to the first successful failover probe. Gates: zero failed requests in both phases, killed p50 within 2x of intact.",
			"rows":             []fleetServingRow{intact, killed},
			"kill_recovery_ms": float64(recovery.Microseconds()) / 1000,
			"probes":           fleetStats.Probes,
			"retries":          fleetStats.Retries,
			"failovers":        fleetStats.Failovers,
			"breaker_trips":    fleetStats.BreakerTrips,
		},
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_serving.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_serving.json:\n%s", data)
}

// fleetHarness is an in-process chaos fleet over a knowledge base dump:
// `shards` shard groups of `replicas` chaos replicas each, every replica a
// real HTTP server over that shard's slice of the dump. Point Config.Fleet at
// Options and kill replicas to measure the gateway's fault masking — the
// serving system under test cannot tell the harness from remote `galo shard`
// processes.
type fleetHarness struct {
	// Options is ready to assign to core.Config.Fleet: the replica URLs are
	// live as soon as newFleetHarness returns.
	Options fleet.Options

	replicas [][]*chaos.Replica
}

// newFleetHarness slices the N-Triples dump across the shard layout and
// starts every replica. A zero policy takes the fleet defaults.
func newFleetHarness(ntriples string, shards, replicas int, policy fleet.Policy) (*fleetHarness, error) {
	h := &fleetHarness{replicas: make([][]*chaos.Replica, shards)}
	h.Options.Policy = policy
	for si := 0; si < shards; si++ {
		slice, err := kb.ShardSlice(ntriples, si, shards)
		if err != nil {
			h.Close()
			return nil, err
		}
		knowledge := kb.New()
		if slice != "" {
			if err := knowledge.LoadNTriples(slice); err != nil {
				h.Close()
				return nil, err
			}
		}
		// Replicas of one shard share the handler: identical contents, the
		// way fleet replicas loaded from the same dump would serve.
		handler := fleet.NewShardServer(knowledge)
		urls := make([]string, replicas)
		for ri := 0; ri < replicas; ri++ {
			r := chaos.NewReplica(handler, chaos.NewFaults(int64(si*31+ri+1)))
			if err := r.Start(); err != nil {
				h.Close()
				return nil, err
			}
			h.replicas[si] = append(h.replicas[si], r)
			urls[ri] = r.URL()
		}
		h.Options.Shards = append(h.Options.Shards, urls)
	}
	return h, nil
}

// KillRecovery measures the gateway-visible recovery from a replica kill: it
// kills the replica (listener closed, connections cut) and repeatedly calls
// probe (a closure issuing one real request through the gateway under test)
// until it succeeds, returning the elapsed time from the kill to the first
// successful failover probe. The replica stays down.
func (h *fleetHarness) KillRecovery(shard, replica int, probe func() error) (time.Duration, error) {
	h.replicas[shard][replica].Kill()
	start := time.Now()
	deadline := start.Add(30 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if lastErr = probe(); lastErr == nil {
			return time.Since(start), nil
		}
	}
	return 0, fmt.Errorf("no successful probe within 30s of the kill: %w", lastErr)
}

// Close kills every replica.
func (h *fleetHarness) Close() {
	for _, group := range h.replicas {
		for _, r := range group {
			if r != nil {
				r.Kill()
			}
		}
	}
}
