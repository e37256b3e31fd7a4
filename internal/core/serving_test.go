package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"galo/internal/kb"
	"galo/internal/learning"
	"galo/internal/matching"
	"galo/internal/qgm"
	"galo/internal/sparql"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/transform"
	"galo/internal/workload/tpcds"
)

// TestNewSystemPreservesCustomConfig pins the fill-only-unset contract: a
// partially customized Config must keep its set fields while zero fields get
// defaults (the old behaviour clobbered the whole Matching/Learning structs
// whenever one sentinel field was zero).
func TestNewSystemPreservesCustomConfig(t *testing.T) {
	db := coreDBForConfig(t)
	cfg := Config{}
	cfg.Matching.TolerateProbeErrors = true
	cfg.Matching.ProbeCacheSize = 128
	cfg.Learning.Runs = 7
	cfg.Learning.Workload = "custom"
	sys := NewSystem(db, cfg)
	defer sys.Close()

	if !sys.Config.Matching.TolerateProbeErrors {
		t.Errorf("TolerateProbeErrors = false, want the customized true")
	}
	if got := sys.Config.Matching.ProbeCacheSize; got != 128 {
		t.Errorf("ProbeCacheSize = %d, want the customized 128", got)
	}
	if got := sys.Config.Matching.MaxJoins; got != matching.DefaultOptions().MaxJoins {
		t.Errorf("MaxJoins = %d, want the default", got)
	}
	if got := sys.Config.Learning.Runs; got != 7 {
		t.Errorf("Learning.Runs = %d, want the customized 7", got)
	}
	if got := sys.Config.Learning.Workload; got != "custom" {
		t.Errorf("Learning.Workload = %q, want custom", got)
	}
	if got := sys.Config.Learning.JoinThreshold; got != learning.DefaultOptions().JoinThreshold {
		t.Errorf("JoinThreshold = %d, want the default", got)
	}
	if got := sys.Config.Learning.Seed; got != learning.DefaultOptions().Seed {
		t.Errorf("Seed = %d, want the default", got)
	}
}

var configDB = struct {
	once sync.Once
	db   *storage.Database
}{}

// coreDBForConfig returns a small database without training, for tests that
// only need a schema.
func coreDBForConfig(t *testing.T) *storage.Database {
	t.Helper()
	configDB.once.Do(func() {
		db, err := tpcds.Generate(tpcds.GenOptions{Seed: 7, Scale: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		configDB.db = db
	})
	return configDB.db
}

// TestKBHandlerTracksLoadKB pins the stale-store fix: a handler built before
// LoadKB must serve the replaced knowledge base afterwards.
func TestKBHandlerTracksLoadKB(t *testing.T) {
	sys := trainedSystem(t)
	fresh := NewSystem(coreDB, sys.Config)
	defer fresh.Close()
	srv := httptest.NewServer(fresh.APIHandler()) // built over the EMPTY initial KB
	defer srv.Close()

	versionOf := func() uint64 {
		resp, err := http.Get(srv.URL + "/version")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]uint64
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc["version"]
	}
	if v := versionOf(); v != 0 {
		t.Fatalf("empty KB should serve version 0, got %d", v)
	}
	path := filepath.Join(t.TempDir(), "kb.nt")
	if err := sys.SaveKB(path); err != nil {
		t.Fatal(err)
	}
	if err := fresh.LoadKB(path); err != nil {
		t.Fatal(err)
	}
	if v := versionOf(); v == 0 {
		t.Error("handler still serves the pre-LoadKB store")
	}
	resp, err := http.Get(srv.URL + "/data")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	_, _ = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(body.String(), "hasGuideline") {
		t.Error("/data does not dump the loaded knowledge base")
	}
}

// reoptHTTP posts one /reopt request and decodes the response.
func reoptHTTP(t *testing.T, url, sql string, execute bool) *ReoptResponse {
	t.Helper()
	payload, _ := json.Marshal(ReoptRequest{SQL: sql, Execute: execute})
	resp, err := http.Post(url+"/reopt", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body := new(bytes.Buffer)
		_, _ = body.ReadFrom(resp.Body)
		t.Fatalf("/reopt: %s: %s", resp.Status, body.String())
	}
	var out ReoptResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestReoptHTTPAPI drives the serving surface end-to-end: a learned query
// posted to /reopt comes back matched with a rewritten plan and validated
// timings, /stats reports the probes, and bad requests fail cleanly.
func TestReoptHTTPAPI(t *testing.T) {
	sys := trainedSystem(t)
	srv := httptest.NewServer(sys.APIHandler())
	defer srv.Close()

	out := reoptHTTP(t, srv.URL, coreMatchedQuery.SQL(), true)
	if !out.Matched || len(out.Matches) == 0 {
		t.Fatalf("learned query did not match over HTTP: %+v", out)
	}
	if out.OriginalPlan == "" || !out.Executed {
		t.Errorf("missing plan or execution: %+v", out)
	}
	if out.Rewritten && out.ReoptimizedPlan == "" {
		t.Errorf("rewritten but no re-optimized plan rendered")
	}
	if out.Applied && out.GaloMillis > out.OriginalMillis {
		t.Errorf("applied rewrite regressed: %f -> %f", out.OriginalMillis, out.GaloMillis)
	}
	if out.RowsDiffer || out.OriginalRows <= 0 || out.GaloRows != out.OriginalRows {
		t.Errorf("validated execution reports %d rows from the original plan, %d from the rewrite (rows_differ %v)",
			out.OriginalRows, out.GaloRows, out.RowsDiffer)
	}
	if n := sys.ExecutorStats().RewriteRowMismatches; n != 0 {
		t.Errorf("%d rewrites returned a different row count than their original plan", n)
	}
	if out.OriginalPeakRows <= 0 || out.GaloPeakRows <= 0 {
		t.Errorf("validated execution did not report peak intermediate rows: %+v", out)
	}
	if out.Probes == 0 {
		t.Errorf("no probes reported")
	}
	for _, m := range out.Matches {
		if m.TemplateIRI == "" {
			t.Errorf("match without template IRI")
		}
	}

	// A query that parses but does not fit the schema is the caller's
	// mistake: 400 like a parse error, never 500.
	for _, sql := range []string{
		"SELECT x FROM not_a_table",
		"SELECT no_such_column FROM item",
		"SELECT ws_quantity FROM web_sales w1, web_sales w2 WHERE w1.ws_item_sk = w2.ws_item_sk", // ambiguous column
	} {
		payload, _ := json.Marshal(ReoptRequest{SQL: sql})
		resp, err := http.Post(srv.URL+"/reopt", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status %d (%s), want 400", sql, resp.StatusCode, bytes.TrimSpace(body))
		}
	}
	// Malformed requests.
	for _, body := range []string{"", "{", `{"sql": ""}`} {
		resp, err := http.Post(srv.URL+"/reopt", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// A body past the limit is refused unread, however well-formed.
	huge, _ := json.Marshal(ReoptRequest{SQL: coreMatchedQuery.SQL(), Name: strings.Repeat("n", maxReoptBodyBytes)})
	rec := httptest.NewRecorder()
	sys.APIHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reopt", bytes.NewReader(huge)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body: status %d, want 413", len(huge), rec.Code)
	}
	// GET is not allowed.
	resp, err := http.Get(srv.URL + "/reopt")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /reopt: status %d, want 405", resp.StatusCode)
	}

	// Stats surface.
	stats, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(stats.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc["kb_templates"].(float64) <= 0 {
		t.Errorf("/stats reports no templates: %v", doc)
	}
	execStats, ok := doc["executor"].(map[string]any)
	if !ok {
		t.Fatalf("/stats has no executor section: %v", doc)
	}
	if execStats["peak_intermediate_rows"].(float64) <= 0 {
		t.Errorf("/stats executor section reports no peak residency after executions: %v", execStats)
	}
}

// TestOnlineLearningThroughWorkload wires the loop at the System level:
// re-optimizing a workload containing the Figure 8 wide-range hazard with an
// empty KB and online learning enabled must promote templates into a new
// epoch, after which the same query matches — no batch Learn anywhere.
func TestOnlineLearningThroughWorkload(t *testing.T) {
	db, err := tpcds.Generate(tpcds.GenOptions{Seed: 31, Scale: 0.08, Hazards: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Learning.RandomPlans = 8
	cfg.Learning.PredicateVariants = 1
	cfg.Learning.Runs = 2
	cfg.Learning.Workers = 2
	cfg.Learning.MaxSubQueriesPerQuery = 10
	cfg.Online = learning.DefaultOnlineOptions()
	sys := NewSystem(db, cfg)
	defer sys.Close()

	q := tpcds.Fig8WideQuery(db)
	if _, _, err := sys.ReoptimizeWorkload([]*sqlparser.Query{q}); err != nil {
		t.Fatal(err)
	}
	sys.FlushOnlineLearning()
	stats := sys.OnlineStats()
	if stats.Triggered == 0 {
		t.Fatalf("misestimated workload run did not trigger online learning: %+v", stats)
	}
	if stats.TemplatesPromoted == 0 || sys.KB().Size() == 0 {
		t.Fatalf("no templates promoted online: %+v, KB size %d", stats, sys.KB().Size())
	}
	res, err := sys.Reoptimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Errorf("online-learned KB (size %d) does not match the offending query", sys.KB().Size())
	}
}

// TestConcurrentReoptimizeDuringKBPublication is the serving race gate (run
// in CI with -race and -cpu): at least 8 concurrent clients re-optimize —
// half in-process, half over the HTTP API — while the knowledge base is
// concurrently replaced wholesale (LoadKB) and extended incrementally
// (template publications into new epochs). No request may fail, and after
// the dust settles the matcher must answer from the final epoch only. The
// in-process knowledge base is probed with prepared queries, so beside the
// clients two auditors keep pinning an epoch and checking that the prepared
// query finds on it exactly what its text, parsed, finds.
func TestConcurrentReoptimizeDuringKBPublication(t *testing.T) {
	sys := trainedSystem(t)
	path := filepath.Join(t.TempDir(), "kb.nt")
	if err := sys.SaveKB(path); err != nil {
		t.Fatal(err)
	}
	serve := NewSystem(coreDB, sys.Config)
	defer serve.Close()
	if err := serve.LoadKB(path); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.APIHandler())
	defer srv.Close()

	const clients = 8
	const rounds = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if c%2 == 0 {
					res, err := serve.Reoptimize(coreMatchedQuery)
					if err != nil {
						t.Errorf("client %d round %d: %v", c, r, err)
						return
					}
					if res.OriginalPlan == nil {
						t.Errorf("client %d: missing original plan", c)
					}
					for _, m := range res.Matches {
						if m.TemplateIRI == "" {
							t.Errorf("client %d: match without template", c)
						}
					}
				} else {
					out := reoptHTTP(t, srv.URL, coreMatchedQuery.SQL(), false)
					if out.OriginalPlan == "" {
						t.Errorf("client %d: HTTP response missing plan", c)
					}
				}
			}
		}(c)
	}
	plan, err := serve.Optimize(coreMatchedQuery)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				auditPreparedProbes(t, serve.KB(), plan)
			}
		}()
	}
	// Publisher 1: wholesale KB replacement.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := serve.LoadKB(path); err != nil {
				t.Errorf("LoadKB: %v", err)
			}
		}
	}()
	// Publisher 2: incremental epoch publications racing the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := serve.KB().Add(syntheticTemplate(i)); err != nil {
				t.Errorf("Add: %v", err)
			}
		}
	}()
	wg.Wait()

	// Quiesced: every match served now must come from the current epoch —
	// its template IRI must exist in the live knowledge base (a cache entry
	// surviving across epochs would surface a template the current KB may
	// not hold).
	knowledge := serve.KB()
	res, err := serve.Reoptimize(coreMatchedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("trained query no longer matches after publications")
	}
	byIRI := map[string]bool{}
	for _, tmpl := range knowledge.Templates() {
		byIRI["http://galo/kb/template/"+tmpl.ID] = true
	}
	for _, m := range res.Matches {
		if !byIRI[m.TemplateIRI] {
			t.Errorf("match references template %s absent from the current epoch", m.TemplateIRI)
		}
	}
}

// auditPreparedProbes probes every fragment of the plan against one pinned
// epoch of its shard twice — the prepared query, and the probe's text parsed —
// and reports any difference in the solutions or their order.
func auditPreparedProbes(t *testing.T, knowledge *kb.KB, plan *qgm.Plan) {
	for _, frag := range plan.EnumerateSubPlans(4) {
		p, err := transform.NewProbe(frag.Root)
		if err != nil {
			t.Errorf("NewProbe: %v", err)
			return
		}
		parsed, err := sparql.Parse(p.Text())
		if err != nil {
			t.Errorf("probe text does not parse: %v", err)
			return
		}
		snap := knowledge.ShardStore(knowledge.RouteShape(frag.Root.ShapeSignature(), frag.Joins)).Snapshot()
		prepared, err := sparql.Execute(p.Query(), snap)
		if err != nil {
			t.Errorf("prepared probe: %v", err)
			return
		}
		fromText, err := sparql.Execute(parsed, snap)
		if err != nil {
			t.Errorf("text probe: %v", err)
			return
		}
		if !reflect.DeepEqual(prepared, fromText) {
			t.Errorf("epoch %d: prepared probe found %v, its text %v", snap.Version(), prepared, fromText)
		}
	}
}

// syntheticTemplate builds a small distinct template, the unit of
// incremental epoch publication.
func syntheticTemplate(i int) *kb.Template {
	outer := &qgm.Node{Op: qgm.OpTBSCAN, Table: fmt.Sprintf("PUB_A%d", i), TableInstance: fmt.Sprintf("PUB_A%d", i), EstCardinality: 1000}
	inner := &qgm.Node{Op: qgm.OpIXSCAN, Table: fmt.Sprintf("PUB_B%d", i), TableInstance: fmt.Sprintf("PUB_B%d", i), Index: "IX", EstCardinality: 50}
	join := &qgm.Node{Op: qgm.OpHSJOIN, Outer: outer, Inner: inner, EstCardinality: 5000}
	plan := qgm.NewPlan(join)
	problem := plan.Root.Outer
	bounds := map[int]kb.Range{}
	problem.Walk(func(n *qgm.Node) {
		bounds[n.ID] = kb.Range{Lo: n.EstCardinality / 10, Hi: n.EstCardinality * 10}
	})
	return &kb.Template{
		Problem:      problem,
		Bounds:       bounds,
		GuidelineXML: "<OPTGUIDELINES><HSJOIN><TBSCAN TABID='TABLE_1'/><TBSCAN TABID='TABLE_2'/></HSJOIN></OPTGUIDELINES>",
		Improvement:  0.3,
		Structural:   true,
	}
}
