package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/joblike"
	"galo/internal/workload/ohlc"
	"galo/internal/workload/scenario"
	"galo/internal/workload/tpcds"
	"galo/internal/workload/trace"
)

var updateReopt = flag.Bool("update-reopt", false, "regenerate testdata/reopt_responses.json")

// timingFields are the wall-clock fields of a /reopt body, the only ones that
// may differ between two runs of the same request.
var timingFields = regexp.MustCompile(`"(match_millis|probe_millis)":[-0-9.e+]+`)

// reoptEntry is one request of the fixture: the digest of its /reopt body with
// the timing fields zeroed.
type reoptEntry struct {
	Name   string `json:"name"`
	Status int    `json:"status"`
	Digest string `json:"digest"`
}

// TestReoptResponsesMatchFixture posts every tpcds query to a system holding
// the trained knowledge base, and every zoo hazard query to one over the
// zoo's own database holding the same knowledge base (templates carry
// canonical tables only, so they can match there too), and compares each
// response body — plans, guidelines, matches, counters, byte for byte but for
// the timing fields — with testdata/reopt_responses.json. The fixture was
// generated on the commit before the request envelope was rewritten (parser,
// plan formatter, guideline printer, guideline cache, body decoding);
// -update-reopt regenerates it.
func TestReoptResponsesMatchFixture(t *testing.T) {
	trained := trainedSystem(t)
	kbPath := filepath.Join(t.TempDir(), "kb.nt")
	if err := trained.SaveKB(kbPath); err != nil {
		t.Fatal(err)
	}
	type workload struct {
		db      *storage.Database
		queries []*sqlparser.Query
	}
	workloads := []workload{{coreDB, tpcds.Queries()}}
	for _, sc := range []scenario.Scenario{ohlc.New(), joblike.New(), trace.New()} {
		opts := sc.DefaultGen()
		opts.Scale = 0.2
		db, err := sc.Generate(opts)
		if err != nil {
			t.Fatalf("generate %s: %v", sc.Name(), err)
		}
		workloads = append(workloads, workload{db, sc.HazardQueries(db, 0)})
	}

	var got []reoptEntry
	bodies := map[string]string{}
	matched := 0
	for _, w := range workloads {
		sys := NewSystem(w.db, trained.Config)
		if err := sys.LoadKB(kbPath); err != nil {
			t.Fatal(err)
		}
		h := sys.APIHandler()
		for _, q := range w.queries {
			body, _ := json.Marshal(ReoptRequest{SQL: q.SQL(), Name: q.Name})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reopt", bytes.NewReader(body)))
			stripped := timingFields.ReplaceAll(rec.Body.Bytes(), []byte(`"$1":0`))
			if bytes.Contains(stripped, []byte(`"matched":true`)) {
				matched++
			}
			sum := sha256.Sum256(stripped)
			got = append(got, reoptEntry{Name: q.Name, Status: rec.Code, Digest: hex.EncodeToString(sum[:])})
			bodies[q.Name] = string(stripped)
		}
		sys.Close()
	}
	if matched == 0 {
		t.Fatal("no request matched a template: the guideline path is not covered")
	}

	path := filepath.Join("testdata", "reopt_responses.json")
	if *updateReopt {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d responses (%d matched) to %s", len(got), matched, path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update-reopt)", err)
	}
	var want []reoptEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d requests, fixture has %d", len(got), len(want))
	}
	shown := 0
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		t.Errorf("%s: %+v, fixture has %+v", got[i].Name, got[i], want[i])
		if shown++; shown <= 2 {
			t.Logf("body:\n%s", bodies[got[i].Name])
		}
	}
}
