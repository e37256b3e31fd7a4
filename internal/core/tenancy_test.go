package core

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"galo/internal/workload/trace"
)

// traceSystem builds a serving system over the multi-tenant trace workload.
func traceSystem(t *testing.T, cfg Config) (*System, *httptest.Server) {
	t.Helper()
	gen := trace.New().DefaultGen()
	gen.Scale = 0.25
	db, err := trace.New().Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(db, cfg)
	t.Cleanup(func() { sys.Close() })
	srv := httptest.NewServer(sys.APIHandler())
	t.Cleanup(srv.Close)
	return sys, srv
}

// postReopt posts one /reopt request under a client identity and returns the
// status code plus the decoded body (nil unless 200).
func postReopt(t *testing.T, url, client, sql, name string) (int, *ReoptResponse) {
	t.Helper()
	payload, _ := json.Marshal(ReoptRequest{SQL: sql, Name: name})
	req, err := http.NewRequest(http.MethodPost, url+"/reopt", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Galo-Client", client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var out ReoptResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &out
}

// tenantRows indexes a /stats tenancy section by tenant name.
func tenantRows(t *testing.T, url string) map[string]tenantStat {
	t.Helper()
	doc := statsOf(t, url)
	rows := make(map[string]tenantStat, len(doc.Tenancy.Tenants))
	for _, row := range doc.Tenancy.Tenants {
		rows[row.Tenant] = row
	}
	return rows
}

// TestBurstyTraceTenantIsolation replays a deterministic bursty multi-tenant
// arrival trace (trace.Arrivals) against `galo serve`'s HTTP surface with
// per-client probe budgets, concurrently (trace.Replay dispatches one
// goroutine per arrival — CI runs this under -race -cpu 1,4). The
// admission-control isolation contract: bursting tenants are throttled with
// 429 against their *own* buckets, a quiet tenant issuing spaced requests is
// never throttled, and the per-tenant /stats rows reconcile exactly with
// what the clients observed — probes sum to the sum of response probes,
// requests and throttles match per tenant.
func TestBurstyTraceTenantIsolation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Admission.ProbeBudget = 2
	cfg.Admission.RefillPerSecond = 1e-9 // no refill within the test
	_, srv := traceSystem(t, cfg)

	const quiet = "tenant-quiet"
	if code, _ := postReopt(t, srv.URL, quiet, trace.TenantJoinQuery(1).SQL(), "QUIET.1"); code != http.StatusOK {
		t.Fatalf("quiet tenant pre-storm request: status %d, want 200", code)
	}

	// 4 tenants, 96 arrivals in bursts of 16: every tenant fires multiple
	// bursts far beyond its 2-probe budget.
	arrivals := trace.Arrivals(trace.TraceOptions{Seed: 42, Tenants: 4, Arrivals: 96, BurstLen: 16})
	type tally struct {
		ok, throttled, probes int64
	}
	var mu sync.Mutex
	byTenant := map[string]*tally{}
	trace.Replay(arrivals, 50, func(a trace.Arrival) {
		code, resp := postReopt(t, srv.URL, a.Tenant, a.Query.SQL(), a.Query.Name)
		mu.Lock()
		defer mu.Unlock()
		tl := byTenant[a.Tenant]
		if tl == nil {
			tl = &tally{}
			byTenant[a.Tenant] = tl
		}
		switch code {
		case http.StatusOK:
			tl.ok++
			tl.probes += int64(resp.Probes)
		case http.StatusTooManyRequests:
			tl.throttled++
		default:
			t.Errorf("%s %s: unexpected status %d", a.Tenant, a.Query.Name, code)
		}
	})

	// After the storm the quiet tenant still has budget: per-client buckets
	// mean the bursters spent only their own tokens.
	if code, _ := postReopt(t, srv.URL, quiet, trace.TenantJoinQuery(1).SQL(), "QUIET.2"); code != http.StatusOK {
		t.Errorf("quiet tenant post-storm request: status %d, want 200 (bursting tenants must not drain other buckets)", code)
	}

	rows := tenantRows(t, srv.URL)
	var sumProbes, sumThrottled, wantProbes int64
	for tenant, tl := range byTenant {
		row, ok := rows[tenant]
		if !ok {
			t.Fatalf("no /stats tenancy row for %s", tenant)
		}
		if tl.throttled == 0 {
			t.Errorf("%s: fired bursts of %d against a budget of %d but was never throttled", tenant, 16, cfg.Admission.ProbeBudget)
		}
		if row.Requests != tl.ok {
			t.Errorf("%s: /stats requests = %d, client saw %d answered", tenant, row.Requests, tl.ok)
		}
		if row.Throttled != tl.throttled {
			t.Errorf("%s: /stats throttled = %d, client saw %d 429s", tenant, row.Throttled, tl.throttled)
		}
		if row.Probes != tl.probes {
			t.Errorf("%s: /stats probes = %d, client responses sum to %d", tenant, row.Probes, tl.probes)
		}
		wantProbes += tl.probes
	}
	qrow, ok := rows[quiet]
	if !ok {
		t.Fatal("no /stats tenancy row for the quiet tenant")
	}
	if qrow.Throttled != 0 || qrow.Shed != 0 {
		t.Errorf("quiet tenant throttled=%d shed=%d, want 0/0", qrow.Throttled, qrow.Shed)
	}
	wantProbes += qrow.Probes
	for _, row := range rows {
		sumProbes += row.Probes
		sumThrottled += row.Throttled
	}
	if sumProbes != wantProbes {
		t.Errorf("tenancy probe rows sum to %d, responses sum to %d", sumProbes, wantProbes)
	}
	doc := statsOf(t, srv.URL)
	if sumThrottled != doc.Admission.ThrottledTotal {
		t.Errorf("tenancy throttled rows sum to %d, admission throttled_total = %d", sumThrottled, doc.Admission.ThrottledTotal)
	}
}

// TestTenantNamespaceIsolation pins the per-tenant knowledge base contract:
// with Tenancy.Enabled, a template seeded into tenant A's namespace matches
// for A and is invisible to tenant B; with ShareTemplates, a tenant whose
// own namespace comes up empty falls back to the shared knowledge base.
func TestTenantNamespaceIsolation(t *testing.T) {
	trained := trainedSystem(t)

	cfg := trained.Config
	cfg.Tenancy = TenancyOptions{Enabled: true}
	sys := NewSystem(coreDB, cfg)
	defer sys.Close()
	srv := httptest.NewServer(sys.APIHandler())
	defer srv.Close()

	if err := sys.tenantSlot("tenant-a").kb.Merge(trained.KB()); err != nil {
		t.Fatal(err)
	}
	sql := coreMatchedQuery.SQL()
	if _, resp := postReopt(t, srv.URL, "tenant-a", sql, "TEN.A"); resp == nil || !resp.Matched {
		t.Fatalf("tenant-a did not match in its seeded namespace: %+v", resp)
	}
	if _, resp := postReopt(t, srv.URL, "tenant-b", sql, "TEN.B"); resp == nil || resp.Matched {
		t.Fatalf("tenant-b matched against tenant-a's templates: %+v", resp)
	}
	rows := tenantRows(t, srv.URL)
	if rows["tenant-a"].Templates == 0 {
		t.Error("/stats shows no templates in tenant-a's namespace")
	}
	if rows["tenant-b"].Templates != 0 {
		t.Errorf("/stats shows %d templates in tenant-b's empty namespace", rows["tenant-b"].Templates)
	}

	// ShareTemplates: a tenant-namespace miss falls back to the shared KB.
	cfg.Tenancy.ShareTemplates = true
	shared := NewSystem(coreDB, cfg)
	defer shared.Close()
	if err := shared.ImportKB(trained.KB()); err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(shared.APIHandler())
	defer srv2.Close()
	if _, resp := postReopt(t, srv2.URL, "tenant-b", sql, "TEN.B2"); resp == nil || !resp.Matched {
		t.Fatalf("ShareTemplates fallback did not reach the shared templates: %+v", resp)
	}
	rows = tenantRows(t, srv2.URL)
	if rows["tenant-b"].SharedMatches != 1 {
		t.Errorf("tenant-b shared_matches = %d, want 1", rows["tenant-b"].SharedMatches)
	}
}

// TestTenantOverflowSlot pins the MaxTenants bound: identities beyond the
// cap land on the single overflow row, and counter sums stay exact.
func TestTenantOverflowSlot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tenancy = TenancyOptions{Enabled: true, MaxTenants: 2}
	_, srv := traceSystem(t, cfg)

	sql := trace.TenantJoinQuery(1).SQL()
	var answered int
	for _, client := range []string{"t1", "t2", "t3", "t4", "t5"} {
		if code, _ := postReopt(t, srv.URL, client, sql, "OVF"); code == http.StatusOK {
			answered++
		}
	}
	rows := tenantRows(t, srv.URL)
	if len(rows) != 3 { // t1, t2, (overflow)
		t.Fatalf("got %d tenancy rows %v, want 2 tenants + overflow", len(rows), rows)
	}
	ovf, ok := rows[OverflowTenant]
	if !ok {
		t.Fatalf("no %s row in %v", OverflowTenant, rows)
	}
	if ovf.Requests != 3 {
		t.Errorf("overflow requests = %d, want 3", ovf.Requests)
	}
	var total int64
	for _, row := range rows {
		total += row.Requests
	}
	if total != int64(answered) {
		t.Errorf("tenancy request rows sum to %d, %d requests were answered", total, answered)
	}
}
