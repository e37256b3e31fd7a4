package core

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"galo/internal/sqlparser"
	"galo/internal/workload/tpcds"
)

// raceDetector is set by racedetector_test.go.
var raceDetector bool

// TestReoptAllocCeiling is the clock-free gate on the whole /reopt request:
// allocations per warm POST through APIHandler — body decoding, parsing, both
// plannings, matching from the routinization cache, guideline rebinding, plan
// and guideline rendering, response encoding — counted by
// testing.AllocsPerRun, which repeats where microseconds do not. The requests
// are two 3-join tpcds queries, one the trained knowledge base matches and one
// it does not. On the commit before the request envelope was rewritten
// (fmt-built plan text, encoding/xml guidelines parsed per probe answer, a
// json.Decoder per body, a regrown token slice, the SQL text rendered for
// every plan) the matched request took 833 allocations and the unmatched one
// 299; after it 310 and 154; and before the planner's front half stopped
// rendering and regrowing the query, and a plan's nodes and texts came from
// one array each, 262 and 151. Today they take 184 and 82, and the ceilings
// are 1.3x those: below 262 and 151, so going back fails both.
func TestReoptAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops pooled buffers at random under the race detector")
	}
	sys := trainedSystem(t)
	var matched, unmatched *sqlparser.Query
	for _, q := range tpcds.Queries() {
		if q.NumJoins() != 3 {
			continue
		}
		res, err := sys.Reoptimize(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) > 0 && matched == nil {
			matched = q
		} else if len(res.Matches) == 0 && unmatched == nil {
			unmatched = q
		}
	}
	if matched == nil || unmatched == nil {
		t.Fatalf("the trained knowledge base leaves no 3-join tpcds query matched (%v) or unmatched (%v)", matched, unmatched)
	}
	// One worker: a cache miss would fan out, and a warm request has none.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h := sys.APIHandler()
	for _, c := range []struct {
		name    string
		q       *sqlparser.Query
		ceiling float64
	}{{"matched", matched, 240}, {"unmatched", unmatched, 107}} {
		body, _ := json.Marshal(ReoptRequest{SQL: c.q.SQL(), Name: c.q.Name})
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reopt", bytes.NewReader(body)))
			return rec
		}
		var out ReoptResponse
		if rec := post(); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
			t.Fatalf("%s: %d %s", c.q.Name, rec.Code, rec.Body.String())
		}
		if out.Matched != (c.q == matched) || out.Probes == 0 || out.Probes != out.CacheHits {
			t.Fatalf("%s is not a warm %s request: %+v", c.q.Name, c.name, out)
		}
		allocs := testing.AllocsPerRun(50, func() { post() })
		t.Logf("%s, %s: %.0f allocations per request (ceiling %.0f)", c.q.Name, c.name, allocs, c.ceiling)
		if allocs > c.ceiling {
			t.Errorf("%s, %s: %.0f allocations per request, ceiling is %.0f", c.q.Name, c.name, allocs, c.ceiling)
		}
	}
}
