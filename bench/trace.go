package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"galo/internal/core"
	"galo/internal/fleet"
	"galo/internal/fuseki"
	"galo/internal/guideline"
	"galo/internal/kb"
	"galo/internal/matching"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sparql"
	"galo/internal/sqlparser"
	"galo/internal/transform"
)

// span is one timed call into a layer. Spans of one request share its index;
// Parent is the ID of the span that caused this one (0 for a request's root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Request int     `json:"request"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tally is a running sum over the spans (or counts) of one name.
type tally struct {
	sum float64
	n   int
}

func (t *tally) add(v float64) {
	t.sum += v
	t.n++
}

func (t tally) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

// tracer keeps spans in memory; they are written out when the run ends.
// Nothing inside the program is instrumented: every span wraps a call the
// benchmark makes into a layer's public function.
type tracer struct {
	began time.Time
	spans []span
	us    map[string]*tally // span durations in µs, by span name
}

func newTracer() *tracer { return &tracer{began: time.Now(), us: map[string]*tally{}} }

// time runs fn as a span and returns the span's ID and duration in µs.
func (t *tracer) time(request, parent int, name string, fn func()) (int, float64) {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name})
	start := time.Since(t.began)
	fn()
	end := time.Since(t.began)
	s := &t.spans[id-1]
	s.StartUs, s.EndUs = micros(start), micros(end)
	t.add(name, s.EndUs-s.StartUs)
	return id, s.EndUs - s.StartUs
}

func (t *tracer) add(name string, v float64) {
	a := t.us[name]
	if a == nil {
		a = &tally{}
		t.us[name] = a
	}
	a.add(v)
}

// per returns the summed duration of the named spans divided by n: the mean
// per request when n is the number of requests.
func (t *tracer) per(name string, n int) float64 {
	if a := t.us[name]; a != nil && n > 0 {
		return a.sum / float64(n)
	}
	return 0
}

// stagedNames are the spans that together replay one /reopt request stage
// by stage; their per-request means sum to the staged request time.
var stagedNames = []string{
	"sqlparser.parse", "optimizer.first", "matching.match_plan", "guideline.merge", "optimizer.second",
	"qgm.format", "guideline.xml", "core.json_encode", "core.http_transport", "executor.execute_orig", "executor.execute_rewritten",
}

// reoptimizeNames are the staged spans that cover what System.Reoptimize does.
var reoptimizeNames = []string{"optimizer.first", "matching.match_plan", "guideline.merge", "optimizer.second"}

// joinTable tallies a duration by the query's join count.
type joinTable map[int]*tally

func (jt joinTable) add(joins int, us float64) {
	if jt[joins] == nil {
		jt[joins] = &tally{}
	}
	jt[joins].add(us)
}

// traced is what the traced pass measured besides the spans themselves.
type traced struct {
	requests        int
	wrong           int // staged answers that differ from System.Reoptimize's
	rewritten       int
	plansConsidered int
	fragments       int
	queryBytes      int
	probes          int
	cacheHits       int
	solutions       tally
	firstByJoins    joinTable // optimizer.first µs by join count
	selfUs          float64   // matching.match_plan minus its replayed children, summed
	simOrigMs       float64
	simGaloMs       float64
	execRows        int64
	peakRows        int64
	dumpMs          float64
	fleetRetries    int64
}

// tracedPass replays the first fx.spec.traced requests of the stream single-
// threaded and in process, one span per call into each layer, then replays
// the children of the matching span for attribution. core.System keeps its
// matching engine private, so the pass builds its own over the same shard
// stores the way experiments.RunExp4 does, and checks that its answers equal
// System.Reoptimize's.
func tracedPass(fx *fixture, reqs stream, pool []request, t *tracer) (*traced, error) {
	knowledge := fx.sys.KB()
	stores := knowledge.Stores()
	endpoints := make([]matching.Endpoint, len(stores))
	for i, st := range stores {
		endpoints[i] = fuseki.LocalEndpoint{Store: st}
	}
	opts := fx.sys.Config.Matching
	engine := matching.NewSharded(fx.db.Catalog, endpoints, knowledge.RouteShape, opts)
	newOptimizer := func(doc *guideline.Document) *optimizer.Optimizer {
		o := opts.OptimizerOptions
		o.Guidelines = doc
		return optimizer.New(fx.db.Catalog, o)
	}
	// A pool workload serves from a warm cache; warm this engine's the same way.
	for _, req := range pool {
		plan, _, err := newOptimizer(nil).Optimize(sqlparser.MustParse(req.sql))
		if err != nil {
			return nil, err
		}
		if _, err := engine.MatchPlan(plan); err != nil {
			return nil, err
		}
	}
	guidelineXML := map[string]string{}
	for _, tmpl := range knowledge.Templates() {
		guidelineXML[transform.TemplateIRI(tmpl.ID).Value] = tmpl.GuidelineXML
	}

	var stubBody atomic.Pointer[[]byte]
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in core.ReoptRequest
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(*stubBody.Load()) // a failed write surfaces as the client's decode error
	}))
	defer stub.Close()
	httpc := &http.Client{}
	defer httpc.CloseIdleConnections()

	out := &traced{requests: fx.spec.traced, firstByJoins: joinTable{}}
	var probeTexts []string
	var failure error
	fail := func(req request, stage string, err error) {
		if failure == nil && err != nil {
			failure = fmt.Errorf("traced %s: %s: %w", req.name, stage, err)
		}
	}
	for i := 0; i < fx.spec.traced && failure == nil; i++ {
		req := reqs(i)
		root := len(t.spans) + 1 // the ID time() is about to give the request's span
		t.time(i, 0, "request", func() {
			var q *sqlparser.Query
			var err error
			t.time(i, root, "sqlparser.parse", func() { q, err = sqlparser.Parse(req.sql) })
			if err != nil {
				fail(req, "parse", err)
				return
			}
			q.Name = req.name

			// The untraced reference — the same work as one call — runs before
			// the staged replay on even requests and after it on odd ones, so
			// neither side always finds the other's data warm in the CPU caches.
			var ref *matching.Result
			reference := func() {
				var refErr error
				t.time(i, root, "core.reoptimize", func() { ref, refErr = fx.sys.Reoptimize(q) })
				fail(req, "reoptimize", refErr)
			}
			if i%2 == 0 {
				reference()
			}

			var plan, replanned *qgm.Plan
			var report *optimizer.Report
			_, firstUs := t.time(i, root, "optimizer.first", func() { plan, report, err = newOptimizer(nil).Optimize(q) })
			if err != nil {
				fail(req, "optimize", err)
				return
			}
			out.plansConsidered += report.PlansConsidered
			out.firstByJoins.add(plan.NumJoins(), firstUs)

			var matches []matching.Match
			var stats matching.ProbeStats
			matchID, matchUs := t.time(i, root, "matching.match_plan", func() { matches, stats, err = engine.MatchPlanStats(plan) })
			if err != nil {
				fail(req, "match", err)
				return
			}
			out.probes += stats.Probes
			out.cacheHits += stats.CacheHits

			var doc *guideline.Document
			if len(matches) > 0 {
				t.time(i, root, "guideline.merge", func() {
					all := &guideline.Document{}
					for _, m := range matches {
						all.Add(m.Guideline)
					}
					doc = guideline.Merge(all)
				})
				t.time(i, root, "optimizer.second", func() { replanned, report, err = newOptimizer(doc).Optimize(q) })
				if err != nil {
					fail(req, "re-optimize", err)
					return
				}
				out.plansConsidered += report.PlansConsidered
			}
			if i%2 == 1 {
				reference()
			}
			if failure != nil {
				return
			}
			staged := &matching.Result{Query: q, OriginalPlan: plan, ReoptimizedPlan: replanned, Matches: matches}
			if answerOf(staged) != answerOf(ref) {
				out.wrong++
			}
			if staged.Rewritten() {
				out.rewritten++
			}

			resp := &core.ReoptResponse{Query: q.Name, KBEpoch: knowledge.Epoch(), Matched: len(matches) > 0,
				Rewritten: staged.Rewritten(), Probes: stats.Probes, CacheHits: stats.CacheHits, ProbeMillis: stats.TotalMillis}
			for _, m := range matches {
				resp.Matches = append(resp.Matches, core.ReoptMatch{TemplateIRI: m.TemplateIRI,
					Improvement: m.Improvement, MatchMillis: m.MatchMillis, CacheHit: m.CacheHit})
				resp.MatchMillis += m.MatchMillis
			}
			t.time(i, root, "qgm.format", func() {
				resp.OriginalPlan = qgm.Format(plan)
				if replanned != nil {
					resp.ReoptimizedPlan = qgm.Format(replanned)
				}
			})
			if doc != nil {
				t.time(i, root, "guideline.xml", func() { resp.Guidelines, err = doc.XML() })
				fail(req, "guideline xml", err)
			}
			if fx.spec.execute {
				t.time(i, root, "executor.execute_orig", func() {
					run, execErr := fx.sys.Execute(plan, q)
					if fail(req, "execute", execErr); execErr != nil {
						return
					}
					resp.Executed = true
					resp.OriginalMillis, resp.GaloMillis = run.Stats.ElapsedMillis, run.Stats.ElapsedMillis
					out.execRows += run.Stats.CPURows
					out.peakRows = max(out.peakRows, run.Stats.PeakIntermediateRows)
				})
				if staged.Rewritten() && failure == nil {
					t.time(i, root, "executor.execute_rewritten", func() {
						run, execErr := fx.sys.Execute(replanned, q)
						if fail(req, "execute rewritten", execErr); execErr != nil {
							return
						}
						out.execRows += run.Stats.CPURows
						out.peakRows = max(out.peakRows, run.Stats.PeakIntermediateRows)
						if run.Stats.ElapsedMillis <= resp.OriginalMillis {
							resp.Applied = true
							resp.GaloMillis = run.Stats.ElapsedMillis
						}
					})
				}
				out.simOrigMs += resp.OriginalMillis
				out.simGaloMs += resp.GaloMillis
			}
			var encoded []byte
			t.time(i, root, "core.json_encode", func() { encoded, err = json.Marshal(resp) })
			fail(req, "encode", err)
			// What HTTP and JSON cost around the handler's work: the same request
			// body posted to a stub that decodes it and answers the bytes just
			// encoded, decoded by the same client code as in the timed window.
			stubBody.Store(&encoded)
			t.time(i, root, "core.http_transport", func() { err = post(httpc, stub.URL, req.body, &response{}) })
			fail(req, "transport stub", err)

			// Children of the matching span, replayed on the same plan.
			children := 0.0
			var frags []qgm.SubPlan
			_, us := t.time(i, matchID, "qgm.enumerate", func() { frags = plan.EnumerateSubPlans(opts.MaxJoins) })
			children += us
			out.fragments += len(frags)
			uncached := 0.0
			if stats.Probes > 0 {
				uncached = float64(stats.Probes-stats.CacheHits) / float64(stats.Probes)
			}
			for _, frag := range frags {
				var text string
				_, us := t.time(i, matchID, "transform.fragment_query", func() { text, _, err = transform.FragmentMatchQuery(frag.Root) })
				fail(req, "fragment query", err)
				children += us
				out.queryBytes += len(text)
				if uncached == 0 || err != nil {
					continue
				}
				probeTexts = append(probeTexts, text)
				store := stores[knowledge.RouteShape(frag.Root.ShapeSignature(), frag.Joins)]
				selectID, us := t.time(i, matchID, "fuseki.local_select", func() { _, err = fuseki.LocalEndpoint{Store: store}.Select(text) })
				fail(req, "local select", err)
				children += us * uncached
				var parsed *sparql.Query
				t.time(i, selectID, "sparql.parse", func() { parsed, err = sparql.Parse(text) })
				if fail(req, "sparql parse", err); err != nil {
					continue
				}
				var sols []sparql.Solution
				t.time(i, selectID, "sparql.execute", func() { sols, err = sparql.Execute(parsed, store.Snapshot()) })
				fail(req, "sparql execute", err)
				out.solutions.add(float64(len(sols)))
			}
			for _, m := range matches {
				_, us := t.time(i, matchID, "guideline.parse", func() { _, err = guideline.Parse(guidelineXML[m.TemplateIRI]) })
				fail(req, "guideline parse", err)
				children += us
			}
			out.selfUs += matchUs - children
		})
	}
	if failure != nil {
		return nil, failure
	}

	start := time.Now()
	dump := knowledge.NTriples()
	out.dumpMs = millis(time.Since(start))
	if fx.spec.distinct {
		retries, err := replayThroughFleet(t, dump, probeTexts)
		if err != nil {
			return nil, err
		}
		out.fleetRetries = retries
	}
	if !fx.spec.distinct && !fx.spec.execute {
		// The per-join table's last row: 5-join queries are too slow for a
		// timed pool, so only their first optimization is timed here.
		for k, req := range fiveJoinExtras() {
			var err error
			_, us := t.time(fx.spec.traced+k, 0, "optimizer.first_j5", func() {
				_, _, err = newOptimizer(nil).Optimize(sqlparser.MustParse(req.sql))
			})
			if err != nil {
				return nil, err
			}
			out.firstByJoins.add(req.joins, us)
		}
	}
	return out, nil
}

// replayThroughFleet sends the pass's probe texts through a 1-shard ×
// 1-replica fleet.ShardEndpoint on loopback: what the remote path costs per
// probe beside fuseki.local_select on the same texts.
func replayThroughFleet(t *tracer, dump string, texts []string) (retries int64, err error) {
	replica := kb.New()
	if err := replica.LoadNTriples(dump); err != nil {
		return 0, err
	}
	srv := httptest.NewServer(fleet.NewShardServer(replica))
	defer srv.Close()
	gateway := fleet.New(fleet.Options{Shards: [][]string{{srv.URL}}})
	for i, text := range texts {
		t.time(-1-i, 0, "fleet.remote_select", func() { _, err = gateway.Endpoint(0).Select(text) })
		if err != nil {
			return 0, fmt.Errorf("fleet replay: %w", err)
		}
	}
	return gateway.Stats().Retries, nil
}
