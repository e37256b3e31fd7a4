package fuseki

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"galo/internal/rdf"
)

func testStore() *rdf.Store {
	s := rdf.NewStore()
	s.Add(rdf.Triple{S: rdf.NewIRI("http://galo/qep/pop/2"), P: rdf.NewIRI("http://galo/qep/property/hasPopType"), O: rdf.NewLiteral("HSJOIN")})
	s.Add(rdf.Triple{S: rdf.NewIRI("http://galo/qep/pop/2"), P: rdf.NewIRI("http://galo/qep/property/hasEstimateCardinality"), O: rdf.NewNumericLiteral(128500)})
	s.Add(rdf.Triple{S: rdf.NewIRI("http://galo/qep/pop/3"), P: rdf.NewIRI("http://galo/qep/property/hasPopType"), O: rdf.NewLiteral("TBSCAN")})
	return s
}

const typeQuery = `PREFIX pr: <http://galo/qep/property/>
SELECT ?x WHERE { ?x pr:hasPopType "HSJOIN" . }`

func TestServerAndClientQuery(t *testing.T) {
	srv := httptest.NewServer(storeServer(testStore()))
	defer srv.Close()
	client := NewClient(srv.URL)

	sols, err := client.Select(typeQuery)
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if len(sols) != 1 {
		t.Fatalf("solutions = %v", sols)
	}
	term := sols[0]["x"]
	if !term.IsIRI() || !strings.HasSuffix(term.Value, "/pop/2") {
		t.Errorf("binding = %v", term)
	}
}

func TestClientLoadAndDump(t *testing.T) {
	store := rdf.NewStore()
	srv := httptest.NewServer(storeServer(store))
	defer srv.Close()
	client := NewClient(srv.URL)

	nt := testStore().NTriples()
	if err := client.Load(nt); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if store.Len() != 3 {
		t.Errorf("store has %d triples after load", store.Len())
	}
	dump, err := client.Dump()
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	if dump != nt {
		t.Errorf("dump differs from upload:\n%s\nvs\n%s", dump, nt)
	}
	// Loading garbage fails.
	if err := client.Load("<broken"); err == nil {
		t.Errorf("loading invalid N-Triples should fail")
	}
}

func TestServerQueryErrors(t *testing.T) {
	srv := httptest.NewServer(storeServer(testStore()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty query status = %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/query", "application/sparql-query", strings.NewReader("SELECT garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query status = %d", resp.StatusCode)
	}
	client := NewClient(srv.URL)
	if _, err := client.Select("not sparql at all"); err == nil {
		t.Errorf("client should surface server-side parse errors")
	}
	// GET with query parameter works.
	resp, err = http.Get(srv.URL + "/query?query=" + strings.ReplaceAll(
		"PREFIX pr: <http://galo/qep/property/> SELECT ?x WHERE { ?x pr:hasPopType \"TBSCAN\" . }", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET query status = %d", resp.StatusCode)
	}
}

// TestServerRejectsOversizedBodies pins the request-body limits: one byte
// past the limit is a 413, whatever the bytes are (blanks are a valid,
// empty N-Triples document and an empty query).
func TestServerRejectsOversizedBodies(t *testing.T) {
	srv := storeServer(rdf.NewStore())
	for _, c := range []struct {
		path, contentType string
		limit             int
	}{
		{"/query", "application/sparql-query", maxQueryBytes},
		{"/query", "application/x-www-form-urlencoded", maxQueryBytes},
		{"/data", "application/n-triples", maxDataBytes},
	} {
		for _, over := range []int{0, 1} {
			req := httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(bytes.Repeat([]byte(" "), c.limit+over)))
			req.Header.Set("Content-Type", c.contentType)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if tooLarge := rec.Code == http.StatusRequestEntityTooLarge; tooLarge != (over == 1) {
				t.Errorf("POST %s (%s), limit%+d bytes: status %d", c.path, c.contentType, over, rec.Code)
			}
		}
	}
}

func TestPingAndMethodNotAllowed(t *testing.T) {
	srv := httptest.NewServer(storeServer(testStore()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("ping status = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/data", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /data status = %d", resp.StatusCode)
	}
}

func TestLocalEndpointMatchesRemote(t *testing.T) {
	store := testStore()
	local := LocalEndpoint{Store: store}
	srv := httptest.NewServer(storeServer(store))
	defer srv.Close()
	remote := NewClient(srv.URL)

	localSols, err := local.Select(typeQuery)
	if err != nil {
		t.Fatal(err)
	}
	remoteSols, err := remote.Select(typeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(localSols) != len(remoteSols) {
		t.Fatalf("local %d vs remote %d solutions", len(localSols), len(remoteSols))
	}
	if localSols[0]["x"].Value != remoteSols[0]["x"].Value {
		t.Errorf("local and remote bindings differ: %v vs %v", localSols[0], remoteSols[0])
	}
}

// storeServer returns a server over one fixed store; POST /data loads
// triples into it additively.
func storeServer(store *rdf.Store) *Server {
	return NewShardedServer(func() []*rdf.Store { return []*rdf.Store{store} }, store.LoadNTriples)
}
