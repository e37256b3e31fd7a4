// Package fuseki implements a small SPARQL-over-HTTP endpoint and client in
// the spirit of Apache Jena's Fuseki server, which the paper uses to host the
// knowledge base. The server exposes:
//
//	POST /query   — body (or form field "query") is a SPARQL SELECT query;
//	                 the response is the SPARQL 1.1 JSON results format.
//	GET  /query   — same, with the query in the "query" URL parameter.
//	POST /data    — body is N-Triples to load into the store.
//	GET  /data    — dumps the store as N-Triples.
//	GET  /ping    — liveness check.
//	GET  /version — the store's mutation counter, for cache invalidation.
//
// The client side turns a remote endpoint back into the same Select/Load
// interface the local store offers, so the knowledge base can be consulted
// either in-process or over HTTP, exactly as GALO does with Fuseki.
package fuseki

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"galo/internal/rdf"
	"galo/internal/sparql"
)

// EpochHeader is the response header on which a server advertises its
// knowledge base epoch (the sum of its shard store versions) with every
// response. Fleet gateways read it to track replica freshness without extra
// /version round trips.
const EpochHeader = "X-Galo-Epoch"

// Server serves one or more triple stores (knowledge base shards) over
// HTTP. The stores are resolved per request, so a deployment that replaces
// its knowledge base (core.System.LoadKB) keeps serving the live stores
// rather than the ones the handler was built over. With several shards,
// /query fans out over a pinned snapshot of every shard and merges the
// solutions, /version reports the epoch sum, and /data dumps the merged
// graph — one Fuseki front door over a partitioned knowledge base.
type Server struct {
	stores func() []*rdf.Store
	load   func(ntriples string) error
	mux    *http.ServeMux
}

// NewShardedServer returns a server over a dynamic set of shard stores.
// load handles POST /data (a knowledge base passes kb.KB.LoadNTriples here,
// so posted templates are routed to their owning shards; nil rejects loads).
func NewShardedServer(resolve func() []*rdf.Store, load func(ntriples string) error) *Server {
	s := &Server{stores: resolve, load: load, mux: http.NewServeMux()}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/data", s.handleData)
	s.mux.HandleFunc("/ping", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/version", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]uint64{"version": s.Epoch()})
	})
	return s
}

// ServeHTTP implements http.Handler. Every response — including errors —
// carries the store's current epoch in EpochHeader.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(EpochHeader, strconv.FormatUint(s.Epoch(), 10))
	s.mux.ServeHTTP(w, r)
}

// Epoch returns the epoch advertised on responses: the sum of the served
// stores' mutation counters.
func (s *Server) Epoch() uint64 {
	var sum uint64
	for _, st := range s.stores() {
		sum += st.Version()
	}
	return sum
}

// jsonResults is the SPARQL JSON results document.
type jsonResults struct {
	Head    jsonHead    `json:"head"`
	Results jsonBinding `json:"results"`
}

type jsonHead struct {
	Vars []string `json:"vars"`
}

type jsonBinding struct {
	Bindings []map[string]jsonTerm `json:"bindings"`
}

type jsonTerm struct {
	Type  string `json:"type"` // "uri" or "literal"
	Value string `json:"value"`
}

// Request bodies come from outside the process, so each is read through an
// http.MaxBytesReader: a SPARQL query is text a person or a matcher wrote, a
// /data load is at most a whole knowledge base dump.
const (
	maxQueryBytes = 1 << 20
	maxDataBytes  = 64 << 20
)

// BodyErrorStatus is the status a failed request-body read is answered with:
// 413 when the body ran past its http.MaxBytesReader limit, 400 otherwise.
func BodyErrorStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var queryText string
	switch r.Method {
	case http.MethodGet:
		queryText = r.URL.Query().Get("query")
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, maxQueryBytes)
		if err := r.ParseForm(); err == nil && r.PostForm.Get("query") != "" {
			queryText = r.PostForm.Get("query")
		} else {
			// A body ParseForm could not read fails again here, the limit
			// error included.
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), BodyErrorStatus(err))
				return
			}
			queryText = string(body)
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if strings.TrimSpace(queryText) == "" {
		http.Error(w, "missing query", http.StatusBadRequest)
		return
	}
	q, err := sparql.Parse(queryText)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	pr, err := sparql.Prepare(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Compiled once, run on one pinned epoch per shard: a concurrent
	// knowledge base publication must not be half-visible to a
	// multi-pattern query. Each shard holds disjoint templates, so the
	// merged solution set is the union.
	params := pr.Params()
	var sols []sparql.Solution
	for _, st := range s.stores() {
		part, err := pr.Run(st.Snapshot(), params)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		sols = append(sols, part...)
	}
	if q.Limit > 0 && len(sols) > q.Limit {
		sols = sols[:q.Limit]
	}
	doc := jsonResults{Results: jsonBinding{Bindings: []map[string]jsonTerm{}}}
	if q.SelectAll {
		doc.Head.Vars = q.Vars()
	} else {
		doc.Head.Vars = q.Select
	}
	for _, sol := range sols {
		row := map[string]jsonTerm{}
		for v, term := range sol {
			jt := jsonTerm{Type: "literal", Value: term.Value}
			if term.IsIRI() {
				jt.Type = "uri"
			}
			row[v] = jt
		}
		doc.Results.Bindings = append(doc.Results.Bindings, row)
	}
	w.Header().Set("Content-Type", "application/sparql-results+json")
	_ = json.NewEncoder(w).Encode(doc)
}

func (s *Server) handleData(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/n-triples")
		fmt.Fprint(w, rdf.MergeNTriples(s.stores()))
	case http.MethodPost:
		if s.load == nil {
			http.Error(w, "loading not supported", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDataBytes))
		if err != nil {
			http.Error(w, err.Error(), BodyErrorStatus(err))
			return
		}
		if err := s.load(string(body)); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// Client talks to a Fuseki-style endpoint. Every method returns one of the
// typed errors in errors.go (*OpError, *StatusError, *DecodeError) on
// failure, and records the epoch the server advertises on each response
// (AdvertisedEpoch).
type Client struct {
	BaseURL string
	HTTP    *http.Client

	// advertised holds the last epoch seen in an EpochHeader, offset by one
	// so the zero value means "never seen".
	advertised atomic.Uint64
}

// NewClient returns a client for the endpoint base URL (e.g.
// "http://localhost:3030").
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/"), HTTP: &http.Client{Timeout: 30 * time.Second}}
}

// noteEpoch records the epoch a response advertises, if any.
func (c *Client) noteEpoch(resp *http.Response) {
	if v := resp.Header.Get(EpochHeader); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			c.advertised.Store(n + 1)
		}
	}
}

// AdvertisedEpoch returns the knowledge base epoch the endpoint most
// recently advertised on any response; ok is false until the first response
// carrying an EpochHeader arrives (e.g. a pre-fleet server).
func (c *Client) AdvertisedEpoch() (uint64, bool) {
	v := c.advertised.Load()
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// statusError drains up to a few hundred bytes of the body into a typed
// status error.
func statusError(op, url string, resp *http.Response) *StatusError {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return &StatusError{Op: op, URL: url, Code: resp.StatusCode, Status: resp.Status, Body: strings.TrimSpace(string(body))}
}

// Select runs a SPARQL SELECT query remotely and converts the JSON results
// back into solutions.
func (c *Client) Select(queryText string) ([]sparql.Solution, error) {
	target := c.BaseURL + "/query"
	form := url.Values{"query": {queryText}}
	resp, err := c.HTTP.PostForm(target, form)
	if err != nil {
		return nil, &OpError{Op: "query", URL: target, Err: err}
	}
	defer resp.Body.Close()
	c.noteEpoch(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, statusError("query", target, resp)
	}
	// Read the full body first so a connection cut mid-stream surfaces as a
	// typed decode error instead of a silently short solution set.
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &OpError{Op: "query", URL: target, Err: err}
	}
	var doc jsonResults
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, &DecodeError{Op: "query", URL: target, Err: err}
	}
	var out []sparql.Solution
	for _, b := range doc.Results.Bindings {
		sol := sparql.Solution{}
		for v, term := range b {
			if term.Type == "uri" {
				sol[v] = rdf.NewIRI(term.Value)
			} else {
				sol[v] = rdf.NewLiteral(term.Value)
			}
		}
		out = append(out, sol)
	}
	return out, nil
}

// Load uploads N-Triples into the remote store.
func (c *Client) Load(ntriples string) error {
	target := c.BaseURL + "/data"
	resp, err := c.HTTP.Post(target, "application/n-triples", strings.NewReader(ntriples))
	if err != nil {
		return &OpError{Op: "load", URL: target, Err: err}
	}
	defer resp.Body.Close()
	c.noteEpoch(resp)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return statusError("load", target, resp)
	}
	return nil
}

// Version fetches the remote store's mutation counter, surfacing transport,
// status and payload failures as their typed errors (a /version body that is
// not JSON or lacks the "version" key is a *DecodeError, not a zero value).
func (c *Client) Version() (uint64, error) {
	target := c.BaseURL + "/version"
	resp, err := c.HTTP.Get(target)
	if err != nil {
		return 0, &OpError{Op: "version", URL: target, Err: err}
	}
	defer resp.Body.Close()
	c.noteEpoch(resp)
	if resp.StatusCode != http.StatusOK {
		return 0, statusError("version", target, resp)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, &OpError{Op: "version", URL: target, Err: err}
	}
	var doc map[string]uint64
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, &DecodeError{Op: "version", URL: target, Err: err}
	}
	v, ok := doc["version"]
	if !ok {
		return 0, &DecodeError{Op: "version", URL: target, Err: fmt.Errorf("payload missing %q key", "version")}
	}
	return v, nil
}

// KBVersion adapts Version to the matching engine's VersionedEndpoint
// interface; ok is false when the endpoint is unreachable or predates the
// /version route, which disables probe-result caching rather than risking
// stale guidelines.
func (c *Client) KBVersion() (uint64, bool) {
	v, err := c.Version()
	return v, err == nil
}

// Dump downloads the remote store as N-Triples.
func (c *Client) Dump() (string, error) {
	target := c.BaseURL + "/data"
	resp, err := c.HTTP.Get(target)
	if err != nil {
		return "", &OpError{Op: "dump", URL: target, Err: err}
	}
	defer resp.Body.Close()
	c.noteEpoch(resp)
	if resp.StatusCode != http.StatusOK {
		return "", statusError("dump", target, resp)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", &OpError{Op: "dump", URL: target, Err: err}
	}
	return string(body), nil
}

// LocalEndpoint adapts an in-process store to the same Select interface the
// client offers, so callers can swap local and remote knowledge bases.
type LocalEndpoint struct {
	Store *rdf.Store
}

// Select parses the query and runs it (sparql.Execute: Prepare, then Run)
// against a pinned snapshot of the local store, so one probe sees one
// consistent knowledge base epoch even while learning publishes new templates
// concurrently.
func (l LocalEndpoint) Select(queryText string) ([]sparql.Solution, error) {
	q, err := sparql.Parse(queryText)
	if err != nil {
		return nil, err
	}
	return sparql.Execute(q, l.Store.Snapshot())
}

// PinEpoch pins the store's current epoch and returns it as a sparql.Pinned,
// which runs prepared queries on it with the parameters given, plus that
// epoch's version (matching the matching engine's EpochPinner interface).
// Every probe issued through it sees exactly the pinned epoch, so cache
// entries tagged with the returned version can never carry another epoch's
// solutions — and, being in process, it takes the query compiled: nothing is
// printed, parsed or compiled per probe. Pinning allocates nothing.
func (l LocalEndpoint) PinEpoch() (sparql.Pinned, uint64) {
	snap := l.Store.Snapshot()
	return (*pinnedSnapshot)(snap), snap.Version()
}

// pinnedSnapshot is a snapshot that answers prepared queries; as a pointer it
// fits in an interface value without an allocation.
type pinnedSnapshot rdf.Snapshot

// Select runs the prepared query on the snapshot.
func (p *pinnedSnapshot) Select(pr *sparql.Prepared, params []float64) ([]sparql.Solution, error) {
	return pr.Run((*rdf.Snapshot)(p), params)
}

// KBVersion returns the local store's mutation counter (matching the
// matching engine's VersionedEndpoint interface), enabling probe-result
// caching with exact invalidation.
func (l LocalEndpoint) KBVersion() (uint64, bool) { return l.Store.Version(), true }
