// The re-optimization HTTP service: `galo serve` exposed not just the
// knowledge base (the Fuseki role of the paper's architecture) but the whole
// online workflow, so clients submit SQL and receive the re-optimized plan —
// GALO as an always-on service in front of the optimizer rather than a batch
// experiment.
package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"galo/internal/fleet"
	"galo/internal/fuseki"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/wal"
)

// AdmissionOptions configures serving-time admission control on the /reopt
// route, the backpressure layer beyond the online learner's bounded queue:
// matching work is shed *before* it starts, instead of queueing behind a
// saturated matcher. The zero value disables both mechanisms.
type AdmissionOptions struct {
	// ProbeBudget is the per-client token-bucket capacity, measured in
	// knowledge base probes. Each /reopt response debits the probes it
	// actually issued; a client whose bucket is empty receives 429 until
	// refill. 0 disables per-client budgets.
	ProbeBudget int
	// RefillPerSecond is the bucket refill rate in probes per second; 0
	// means a full bucket (ProbeBudget probes) per second.
	RefillPerSecond float64
	// MaxConcurrent caps in-flight /reopt requests — the matcher-saturation
	// guard. Requests beyond the cap are shed with 429 rather than queued.
	// 0 disables the cap.
	MaxConcurrent int
}

// admissionState is the runtime side of AdmissionOptions, embedded in System.
type admissionState struct {
	mu      sync.Mutex
	buckets map[string]*clientBucket

	inFlight  atomic.Int64
	throttled atomic.Int64 // requests rejected by a per-client probe budget
	shed      atomic.Int64 // requests rejected by the concurrency cap

	// serviceEWMA tracks an exponentially weighted moving average of /reopt
	// service time (nanoseconds, alpha 1/8) — the basis of the Retry-After
	// estimate on concurrency-cap rejections. Zero until the first request
	// completes.
	serviceEWMA atomic.Uint64
}

// observeService folds one completed /reopt's service time into the EWMA.
func (a *admissionState) observeService(d time.Duration) {
	if d <= 0 {
		return
	}
	for {
		old := a.serviceEWMA.Load()
		next := uint64(d)
		if old != 0 {
			next = uint64((7*time.Duration(old) + d) / 8)
		}
		if a.serviceEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// setRetryAfter stamps a wait estimate as the Retry-After header. The header
// carries whole delta-seconds (RFC 9110), so fractions round UP — a client
// honoring the hint must never retry before the wait has actually elapsed —
// with a floor of one second.
func setRetryAfter(w http.ResponseWriter, wait time.Duration) {
	secs := int64((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// clientBucket is one client's probe token bucket.
type clientBucket struct {
	tokens float64
	last   time.Time
}

// bucketSweepThreshold is the bucket-map size that triggers a sweep of
// fully refilled buckets. A bucket whose refill has brought it back to
// capacity carries no state a fresh bucket would not (new clients start
// full), so dropping it never changes an admission decision — the sweep
// bounds the map against clients that never return (or an attacker minting
// a fresh X-Galo-Client per request) without weakening any live budget.
const bucketSweepThreshold = 1024

// clientKey identifies the client a /reopt request charges: the
// X-Galo-Client header when present (deployments put an API key or tenant
// ID there), else the remote host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Galo-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admitProbes reports whether the client's probe bucket holds at least one
// whole probe token, refilling it for the time elapsed since its last use.
// A new client starts with a full bucket. On rejection the second return is
// how long the refill needs to bring the bucket back to one whole token —
// the client's Retry-After.
func (s *System) admitProbes(client string, now time.Time) (bool, time.Duration) {
	opts := s.Config.Admission
	if opts.ProbeBudget <= 0 {
		return true, 0
	}
	refill := opts.RefillPerSecond
	if refill <= 0 {
		refill = float64(opts.ProbeBudget)
	}
	a := &s.admission
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.buckets == nil {
		a.buckets = map[string]*clientBucket{}
	}
	if len(a.buckets) >= bucketSweepThreshold {
		for k, b := range a.buckets {
			if k != client && b.tokens+now.Sub(b.last).Seconds()*refill >= float64(opts.ProbeBudget) {
				delete(a.buckets, k)
			}
		}
	}
	b, ok := a.buckets[client]
	if !ok {
		b = &clientBucket{tokens: float64(opts.ProbeBudget), last: now}
		a.buckets[client] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * refill
	if b.tokens > float64(opts.ProbeBudget) {
		b.tokens = float64(opts.ProbeBudget)
	}
	b.last = now
	if b.tokens >= 1 {
		return true, 0
	}
	// A debited-below-zero bucket (chargeProbes) extends the wait: the
	// estimate covers the full climb from the current balance to one token.
	return false, time.Duration((1 - b.tokens) / refill * float64(time.Second))
}

// shedRetryAfter estimates how long a request shed by the concurrency cap
// should wait: the queue depth it would face, expressed in units of the
// observed per-request service time spread over MaxConcurrent lanes. Before
// any request has completed (no EWMA yet) it falls back to one second.
func (s *System) shedRetryAfter(inFlight int64) time.Duration {
	max := int64(s.Config.Admission.MaxConcurrent)
	ewma := time.Duration(s.admission.serviceEWMA.Load())
	if ewma <= 0 || max <= 0 {
		return time.Second
	}
	queued := inFlight - max + 1
	if queued < 1 {
		queued = 1
	}
	wait := ewma * time.Duration(queued) / time.Duration(max)
	if wait < time.Second {
		wait = time.Second
	}
	return wait
}

// chargeProbes debits the probes one answered request actually issued. The
// bucket may go negative — the request was admitted on the balance known
// before its cost was — which simply extends the refill time before the
// client is admitted again.
func (s *System) chargeProbes(client string, probes int) {
	if s.Config.Admission.ProbeBudget <= 0 || probes <= 0 {
		return
	}
	a := &s.admission
	a.mu.Lock()
	defer a.mu.Unlock()
	if b, ok := a.buckets[client]; ok {
		b.tokens -= float64(probes)
	}
}

// maxReoptBodyBytes bounds a POST /reopt body (one SQL statement in a small
// JSON envelope); a longer one is answered 413 without being decoded.
const maxReoptBodyBytes = 1 << 20

// bodyBufs recycles the buffers /reopt bodies are read into: json.Unmarshal
// copies every string it decodes, so nothing outlives the request.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readReoptRequest reads the body, at most maxReoptBodyBytes of it, into a
// pooled buffer and decodes it.
func readReoptRequest(w http.ResponseWriter, r *http.Request) (ReoptRequest, error) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= 64<<10 {
			buf.Reset()
			bodyBufs.Put(buf)
		}
	}()
	var req ReoptRequest
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxReoptBodyBytes)); err != nil {
		return req, err
	}
	return req, json.Unmarshal(buf.Bytes(), &req)
}

// ReoptRequest is the body of POST /reopt.
type ReoptRequest struct {
	// SQL is the query text to re-optimize (required).
	SQL string `json:"sql"`
	// Name optionally labels the query in the response.
	Name string `json:"name,omitempty"`
	// Execute additionally runs both plans on the simulated executor,
	// validates the rewrite the way ReoptimizeWorkload does, and — when
	// online learning is enabled — feeds the run to the incremental learner.
	Execute bool `json:"execute,omitempty"`
}

// ReoptMatch describes one matched template in a ReoptResponse.
type ReoptMatch struct {
	TemplateIRI string  `json:"template_iri"`
	Improvement float64 `json:"improvement"`
	MatchMillis float64 `json:"match_millis"`
	CacheHit    bool    `json:"cache_hit"`
}

// ReoptResponse is the body answering POST /reopt.
type ReoptResponse struct {
	Query   string `json:"query"`
	KBEpoch uint64 `json:"kb_epoch"`
	Matched bool   `json:"matched"`
	// Rewritten reports whether re-optimization produced a different plan.
	Rewritten bool         `json:"rewritten"`
	Matches   []ReoptMatch `json:"matches,omitempty"`
	// Guidelines is the merged OPTGUIDELINES document applied during
	// re-optimization.
	Guidelines      string `json:"guidelines,omitempty"`
	OriginalPlan    string `json:"original_plan"`
	ReoptimizedPlan string `json:"reoptimized_plan,omitempty"`
	// MatchMillis is the knowledge base time spent on the matched fragments;
	// ProbeMillis covers every probe issued; CacheHits counts probes answered
	// by the routinization cache.
	MatchMillis float64 `json:"match_millis"`
	ProbeMillis float64 `json:"probe_millis"`
	Probes      int     `json:"probes"`
	CacheHits   int     `json:"cache_hits"`
	// Execution results (only when the request asked to execute). The peak
	// fields report each validated run's high-water intermediate-row residency
	// (executor.RunStats.PeakIntermediateRows / Bytes). OriginalRows and
	// GaloRows are the row counts the two plans returned (equal when no
	// rewrite ran); RowsDiffer flags a rewrite that was refused because they
	// differ — it computed another query.
	Executed          bool    `json:"executed,omitempty"`
	Applied           bool    `json:"applied,omitempty"`
	OriginalMillis    float64 `json:"original_millis,omitempty"`
	GaloMillis        float64 `json:"galo_millis,omitempty"`
	OriginalRows      int     `json:"original_rows,omitempty"`
	GaloRows          int     `json:"galo_rows,omitempty"`
	RowsDiffer        bool    `json:"rows_differ,omitempty"`
	OriginalPeakRows  int64   `json:"original_peak_rows,omitempty"`
	OriginalPeakBytes int64   `json:"original_peak_bytes,omitempty"`
	GaloPeakRows      int64   `json:"galo_peak_rows,omitempty"`
	GaloPeakBytes     int64   `json:"galo_peak_bytes,omitempty"`
}

// APIHandler returns the system's full HTTP surface:
//
//	POST /reopt   — body {"sql": "...", "execute": true} → the re-optimized
//	                plan, matches, applied guidelines and timings.
//	POST /query   — SPARQL SELECT against the knowledge base (Fuseki role).
//	GET  /data    — knowledge base dump as N-Triples; POST loads triples.
//	GET  /version — knowledge base epoch (sum over shards), for cache
//	                invalidation.
//	GET  /stats   — serving counters: KB epoch and size, per-shard epochs
//	                and probe fan-out, cached and deduplicated probes,
//	                admission-control backpressure, online-learning
//	                progress, and (with a data dir) durability counters.
//	GET  /healthz — serve lifecycle: {"status","persistence","draining"},
//	                200 while serving (even persistence-degraded), 503 once
//	                draining.
//
// POST /reopt is subject to admission control (Config.Admission): requests
// beyond the concurrency cap, or from clients whose probe budget is spent,
// are rejected with 429 Too Many Requests and counted in /stats.
//
// Every route resolves the current knowledge base per request, so the
// handler keeps answering from the live shard stores across LoadKB
// replacements and online-learning epoch publications.
func (s *System) APIHandler() http.Handler {
	mux := http.NewServeMux()
	kbh := s.KBHandler()
	mux.Handle("/query", kbh)
	mux.Handle("/data", kbh)
	mux.Handle("/version", kbh)
	mux.Handle("/ping", kbh)
	mux.HandleFunc("/reopt", s.handleReopt)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return s.drainGate(mux)
}

// drainGate rejects new work with 503 + Retry-After once Shutdown has begun,
// while requests already past the gate finish normally. /healthz stays open
// so orchestrators can watch the drain.
func (s *System) drainGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() && r.URL.Path != "/healthz" {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server draining", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// handleHealthz answers GET /healthz with the serve lifecycle state:
//
//	{"status":"ok|degraded","persistence":"disabled|ok|degraded","draining":false}
//
// 200 while the system serves (including persistence-degraded in-memory
// mode — status says "degraded" but traffic is still welcome); 503 once
// draining, so load balancers stop routing here during shutdown.
func (s *System) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := struct {
		Status      string `json:"status"`
		Persistence string `json:"persistence"`
		Draining    bool   `json:"draining"`
	}{Status: "ok", Persistence: "disabled"}
	if st := s.PersistStats(); st != nil {
		if st.Degraded {
			resp.Status = "degraded"
			resp.Persistence = "degraded"
		} else {
			resp.Persistence = "ok"
		}
	}
	code := http.StatusOK
	if s.draining.Load() {
		resp.Draining = true
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(resp)
}

// newServer builds the http.Server Serve/ServeListener run: explicit header,
// read, write and idle timeouts, so a stalled client cannot hold a connection
// (and a graceful drain) open forever.
func (s *System) newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// Serve exposes the re-optimization API (and the knowledge base endpoint) on
// the given address; it blocks until the server stops (nil after a graceful
// Shutdown).
func (s *System) Serve(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeListener(l)
}

// ServeListener is Serve over an already-bound listener — callers that bind
// ":0" learn the real address before serving starts. It blocks; a graceful
// Shutdown returns nil.
func (s *System) ServeListener(l net.Listener) error {
	srv := s.newServer(s.APIHandler())
	s.srvMu.Lock()
	s.servers = append(s.servers, srv)
	s.srvMu.Unlock()
	err := srv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the system gracefully: new requests get 503 (the drain
// gate), in-flight requests finish within ctx's deadline, the online
// learner's backlog is flushed and published, and the write-ahead log gets
// its final fsync. Serve/ServeListener return nil once their server is
// drained.
func (s *System) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.srvMu.Lock()
	servers := s.servers
	s.servers = nil
	s.srvMu.Unlock()
	var err error
	for _, srv := range servers {
		if e := srv.Shutdown(ctx); e != nil && err == nil {
			err = e
		}
	}
	// Backlogged observations become templates (and WAL records) now rather
	// than dying with the process; Close then detaches the hooks and ends
	// with the final fsync.
	s.FlushOnlineLearning()
	s.Close()
	return err
}

func (s *System) handleReopt(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a JSON body {\"sql\": \"SELECT ...\"}", http.StatusMethodNotAllowed)
		return
	}
	// Admission control: shed before any matching work happens. The
	// concurrency cap guards the matcher (global saturation); the probe
	// budget guards fairness (one client cannot monopolize the probe
	// workers). Both reject with 429 + Retry-After, counted in /stats —
	// globally and on the client's tenant row.
	client := clientKey(r)
	slot := s.tenantSlot(client)
	if max := s.Config.Admission.MaxConcurrent; max > 0 {
		if n := s.admission.inFlight.Add(1); n > int64(max) {
			s.admission.inFlight.Add(-1)
			s.admission.shed.Add(1)
			slot.shed.Add(1)
			setRetryAfter(w, s.shedRetryAfter(n))
			http.Error(w, "matcher saturated, retry later", http.StatusTooManyRequests)
			return
		}
		defer s.admission.inFlight.Add(-1)
	}
	if ok, wait := s.admitProbes(client, time.Now()); !ok {
		s.admission.throttled.Add(1)
		slot.throttled.Add(1)
		setRetryAfter(w, wait)
		http.Error(w, "probe budget exhausted, retry later", http.StatusTooManyRequests)
		return
	}
	req, err := readReoptRequest(w, r)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), fuseki.BodyErrorStatus(err))
		return
	}
	if req.SQL == "" {
		http.Error(w, "missing \"sql\"", http.StatusBadRequest)
		return
	}
	q, err := sqlparser.Parse(req.SQL)
	if err != nil {
		http.Error(w, fmt.Sprintf("parse: %v", err), http.StatusBadRequest)
		return
	}
	q.Name = req.Name
	if q.Name == "" {
		q.Name = "HTTP"
	}
	start := time.Now()
	resp, err := s.reoptResponse(slot, q, req.Execute)
	if err != nil {
		// A query that parses but names a table or column the schema does not
		// have is the caller's mistake, like the parse error above; the first
		// Optimize finds it, so the request path resolves once.
		status := http.StatusInternalServerError
		var bad *sqlparser.ResolveError
		if errors.As(err, &bad) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	s.admission.observeService(time.Since(start))
	s.chargeProbes(client, resp.Probes)
	slot.requests.Add(1)
	slot.probes.Add(int64(resp.Probes))
	slot.cacheHits.Add(int64(resp.CacheHits))
	if resp.Matched {
		slot.matched.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// reoptResponse runs the online workflow for one request in the client's
// namespace (reoptimizeFor: the shared engine unless tenancy gives the slot
// its own). Probes/CacheHits include any discarded tenant-namespace pass, so
// admission charging and /stats sums see the full cost.
func (s *System) reoptResponse(slot *tenantSlot, q *sqlparser.Query, execute bool) (*ReoptResponse, error) {
	res, epoch, extraProbes, extraCacheHits, err := s.reoptimizeFor(slot, q)
	if err != nil {
		return nil, fmt.Errorf("reoptimize: %w", err)
	}
	resp := &ReoptResponse{
		Query:        q.Name,
		KBEpoch:      epoch,
		Matched:      len(res.Matches) > 0,
		Rewritten:    res.Rewritten(),
		OriginalPlan: qgm.Format(res.OriginalPlan),
		MatchMillis:  res.MatchMillis,
		ProbeMillis:  res.ProbeStats.TotalMillis,
		Probes:       res.ProbeStats.Probes + extraProbes,
		CacheHits:    res.ProbeStats.CacheHits + extraCacheHits,
	}
	for _, m := range res.Matches {
		resp.Matches = append(resp.Matches, ReoptMatch{
			TemplateIRI: m.TemplateIRI,
			Improvement: m.Improvement,
			MatchMillis: m.MatchMillis,
			CacheHit:    m.CacheHit,
		})
	}
	if res.Guidelines != nil {
		if xml, err := res.Guidelines.XML(); err == nil {
			resp.Guidelines = xml
		}
	}
	if res.ReoptimizedPlan != nil {
		resp.ReoptimizedPlan = qgm.Format(res.ReoptimizedPlan)
	}
	if !execute {
		return resp, nil
	}
	v, err := s.validate(res, q)
	if err != nil {
		return nil, err
	}
	resp.Executed = true
	resp.Applied = v.applied
	resp.OriginalMillis = v.orig.ElapsedMillis
	resp.GaloMillis = v.galo.ElapsedMillis
	resp.OriginalRows = v.orig.Rows
	resp.GaloRows = v.galoRows
	resp.RowsDiffer = v.rowsDiffer
	resp.OriginalPeakRows = v.orig.PeakIntermediateRows
	resp.OriginalPeakBytes = v.orig.PeakIntermediateBytes
	resp.GaloPeakRows = v.galo.PeakIntermediateRows
	resp.GaloPeakBytes = v.galo.PeakIntermediateBytes
	return resp, nil
}

// shardStat is one knowledge base shard's row in /stats.
type shardStat struct {
	// Shard is the shard index (the RouteShape target).
	Shard int `json:"shard"`
	// Epoch is the shard's own epoch counter; a template publication bumps
	// exactly one shard's epoch.
	Epoch uint64 `json:"epoch"`
	// Templates and Triples size the shard's slice of the knowledge base.
	Templates int `json:"templates"`
	Triples   int `json:"triples"`
	// Probes counts the fragment probes this shard has answered since the
	// matching engine was built — the fan-out profile.
	Probes int64 `json:"probes"`
}

// statsResponse is the body of GET /stats. Every field is documented in
// DESIGN.md, "Serving architecture".
type statsResponse struct {
	KBEpoch     uint64 `json:"kb_epoch"`
	KBTemplates int    `json:"kb_templates"`
	KBTriples   int    `json:"kb_triples"`
	KBShards    int    `json:"kb_shards"`
	// Shards breaks the knowledge base down per shard.
	Shards []shardStat `json:"shards"`
	// CachedProbes is the routinization cache's current entry count;
	// DedupedProbes counts probes that joined an identical in-flight probe.
	CachedProbes  int   `json:"cached_probes"`
	DedupedProbes int64 `json:"deduped_probes"`
	// Admission reports the backpressure counters of the /reopt admission
	// layer (AdmissionOptions).
	Admission struct {
		ProbeBudget    int   `json:"probe_budget"`
		MaxConcurrent  int   `json:"max_concurrent"`
		InFlight       int64 `json:"in_flight"`
		ThrottledTotal int64 `json:"throttled_total"`
		ShedTotal      int64 `json:"shed_total"`
	} `json:"admission"`
	// Executor reports the streaming executor's memory profile — the worst
	// single-execution intermediate-row residency seen on this system — plus
	// the memory governor's admission counters and the rewrites validation
	// refused (ExecStats).
	Executor struct {
		PeakIntermediateRows  int64 `json:"peak_intermediate_rows"`
		PeakIntermediateBytes int64 `json:"peak_intermediate_bytes"`
		ExecStats
	} `json:"executor"`
	Online struct {
		Enabled           bool  `json:"enabled"`
		Observed          int64 `json:"observed"`
		Triggered         int64 `json:"triggered"`
		Dropped           int64 `json:"dropped"`
		Analyzed          int64 `json:"analyzed"`
		TemplatesPromoted int64 `json:"templates_promoted"`
	} `json:"online"`
	// Durability reports the write-ahead log's counters (wal appends and
	// bytes, fsyncs, snapshots, disk errors, degraded flag, boot-time replay
	// stats); omitted when no data directory is open. Recovery summarizes
	// what OpenDataDir found at boot.
	Durability *durabilityStats `json:"durability,omitempty"`
	// Tenancy reports per-tenant accounting: one row per client identity
	// seen on /reopt (tenancy.go). Row counter sums — probes, throttled,
	// shed — equal the corresponding totals above.
	Tenancy tenancyStats `json:"tenancy"`
	// Fleet reports the remote-shard gateway's counters — per-replica
	// breaker states and epochs, retry/hedge/failover totals, migrations
	// and (when running) the rebalancer — omitted on single-process
	// deployments (no Config.Fleet).
	Fleet *fleet.Stats `json:"fleet,omitempty"`
}

// durabilityStats is the /stats durability section: the wal layer's live
// counters plus the boot-time recovery summary.
type durabilityStats struct {
	wal.Stats
	Recovery RecoveryInfo `json:"recovery"`
}

func (s *System) handleStats(w http.ResponseWriter, _ *http.Request) {
	knowledge := s.KB()
	var resp statsResponse
	resp.KBEpoch = knowledge.Epoch()
	resp.KBTemplates = knowledge.Size()
	resp.KBTriples = knowledge.Triples()
	resp.KBShards = knowledge.Shards()
	eng := s.matchingEngine()
	resp.CachedProbes = eng.CachedProbes()
	resp.DedupedProbes = eng.DedupedProbes()
	epochs := knowledge.Epochs()
	sizes := knowledge.ShardSizes()
	probes := eng.ProbesByShard()
	for i, st := range knowledge.Stores() {
		row := shardStat{Shard: i, Epoch: epochs[i], Templates: sizes[i], Triples: st.Len()}
		// A remote KB presents fewer engine shards than the local KB holds.
		if i < len(probes) {
			row.Probes = probes[i]
		}
		resp.Shards = append(resp.Shards, row)
	}
	resp.Admission.ProbeBudget = s.Config.Admission.ProbeBudget
	resp.Admission.MaxConcurrent = s.Config.Admission.MaxConcurrent
	resp.Admission.InFlight = s.admission.inFlight.Load()
	resp.Admission.ThrottledTotal = s.admission.throttled.Load()
	resp.Admission.ShedTotal = s.admission.shed.Load()
	resp.Executor.PeakIntermediateRows, resp.Executor.PeakIntermediateBytes = s.PeakIntermediate()
	resp.Executor.ExecStats = s.ExecutorStats()
	resp.Online.Enabled = s.Config.Online.Enabled
	st := s.OnlineStats()
	resp.Online.Observed = st.Observed
	resp.Online.Triggered = st.Triggered
	resp.Online.Dropped = st.Dropped
	resp.Online.Analyzed = st.Analyzed
	resp.Online.TemplatesPromoted = st.TemplatesPromoted
	if ps := s.PersistStats(); ps != nil {
		s.mu.Lock()
		recovery := s.recovered
		s.mu.Unlock()
		resp.Durability = &durabilityStats{Stats: *ps, Recovery: recovery}
	}
	resp.Tenancy = s.tenancySnapshot()
	if s.fleetG != nil {
		fs := s.fleetG.Stats()
		s.mu.Lock()
		rebal := s.rebal
		s.mu.Unlock()
		if rebal != nil {
			rs := rebal.Stats()
			fs.Rebalancer = &rs
		}
		resp.Fleet = &fs
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}
