package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"galo/internal/core"
	"galo/internal/experiments"
	"galo/internal/kb"
	"galo/internal/learning"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/wal"
	"galo/internal/workload/tpcds"
)

// fixtureSeed generates the database and drives learning in every run. The
// deployment under test is a constant of the benchmark; --seed varies only
// the traffic sent to it, so two seeds load the same system differently
// instead of loading two different systems.
const fixtureSeed = 31

// spec is one named workload.
type spec struct {
	name string
	// scale is the TPC-DS-like data scale; execution needs data volume,
	// planning does not.
	scale float64
	// kbTemplates inflates the learned knowledge base with synthetic
	// templates up to this size (0 keeps the learned ones only).
	kbTemplates int
	execute     bool // requests carry "execute": true
	publish     bool // a durable KB with an open-loop writer beside the reader
	distinct    bool // the stream never repeats a query
	clients     int
	// traced is how many requests the traced pass replays.
	traced int
}

// specs are the four workloads, in BENCHMARK.json's order; README.md says
// why each exists and which layers it loads and bypasses.
var specs = []spec{
	{name: "routinized", scale: 0.08, clients: 2, traced: 240},
	{name: "cold_large_kb", scale: 0.08, kbTemplates: 1024, distinct: true, clients: 2, traced: 480},
	{name: "execute_validate", scale: 0.5, execute: true, clients: 2, traced: 80},
	{name: "publish_while_serving", scale: 0.08, kbTemplates: 512, publish: true, clients: 1, traced: 240},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// fixture is one set-up deployment: database, learned knowledge base and the
// real API handler listening on loopback.
type fixture struct {
	spec    spec
	db      *storage.Database
	sys     *core.System
	cfg     core.Config
	url     string
	dataDir string
	learn   *learning.Report
	// loadNTriplesMs is the time kb.LoadNTriples took to load the inflation
	// dump (0 when the workload does not inflate).
	loadNTriplesMs float64
	served         chan error
}

// setUp builds the deployment a workload runs against: generate the data,
// learn, inflate, open the data directory, start serving. Its wall time is
// the setup_s metric.
func setUp(s spec, outDir string) (*fixture, error) {
	db, err := tpcds.Generate(tpcds.GenOptions{Seed: fixtureSeed, Scale: s.scale, Hazards: true})
	if err != nil {
		return nil, fmt.Errorf("generate data: %w", err)
	}
	cfg := core.DefaultConfig()
	cfg.Learning.RandomPlans = 8
	cfg.Learning.PredicateVariants = 1
	cfg.Learning.Runs = 2
	cfg.Learning.Workers = 2
	cfg.Learning.MaxSubQueriesPerQuery = 10
	cfg.Learning.Workload = "tpcds"
	cfg.Learning.Seed = fixtureSeed
	cfg.Shards = 4
	fx := &fixture{spec: s, db: db, cfg: cfg}
	if s.publish {
		dir, err := os.MkdirTemp(outDir, "data-")
		if err != nil {
			return nil, err
		}
		fx.dataDir = dir
		fx.cfg.DataDir = dir
		fx.cfg.Sync = wal.SyncInterval
	}
	fx.sys = core.NewSystem(db, fx.cfg)

	// Learning a 3-join figure query costs tens of seconds at execution
	// scale, so execute_validate trains on the shape it serves. The others
	// train on Figures 7 and 8 and the wide variants; Figure 4 would double
	// the set-up time and yields no template at this scale.
	train := tpcds.Fig8WideVariants(db, 6)
	if !s.execute {
		train = append([]*sqlparser.Query{tpcds.Fig8Query(), tpcds.Fig7Query()}, tpcds.Fig8WideVariants(db, 4)...)
	}
	if fx.learn, err = fx.sys.Learn(train); err != nil {
		return nil, fmt.Errorf("learn: %w", err)
	}
	if s.kbTemplates > 0 {
		if err := fx.inflate(s.kbTemplates); err != nil {
			return nil, fmt.Errorf("inflate: %w", err)
		}
	}
	if s.publish {
		if _, err := fx.sys.OpenDataDir(); err != nil {
			return nil, fmt.Errorf("open data dir: %w", err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fx.url = "http://" + l.Addr().String()
	fx.served = make(chan error, 1)
	go func() { fx.served <- fx.sys.ServeListener(l) }()
	// Set-up ends when the server answers: ServeListener registers the server
	// for Shutdown before it accepts, so from here on stop() can drain it.
	for {
		resp, err := http.Get(fx.url + "/ping")
		if err == nil {
			resp.Body.Close()
			return fx, nil
		}
		select {
		case err := <-fx.served:
			return nil, fmt.Errorf("serve: %w", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// inflate grows the knowledge base to exactly n templates with
// experiments.InflateKB's synthetic problem patterns. kb.KB.Add re-publishes
// its shard per template, which makes adding — or merging — one by one
// quadratic (12 s to 1024 templates in sizing runs). So the patterns are drawn
// in 64-template scratch KBs, de-duplicated by signature here (InflateKB draws
// from ~2500 distinct ones), re-batched, and loaded as one N-Triples document.
func (fx *fixture) inflate(n int) error {
	const batchSize = 64
	knowledge := fx.sys.KB()
	seen := map[string]bool{}
	for _, t := range knowledge.Templates() {
		seen[t.Signature()] = true
	}
	var dump strings.Builder
	batch := kb.New()
	for chunk := int64(0); len(seen) < n; chunk++ {
		scratch := kb.New()
		if err := experiments.InflateKB(scratch, batchSize, fixtureSeed*1000+chunk); err != nil {
			return err
		}
		for _, t := range scratch.Templates() {
			if seen[t.Signature()] || len(seen) == n {
				continue
			}
			seen[t.Signature()] = true
			if _, err := batch.Add(t); err != nil {
				return err
			}
			if batch.Size() == batchSize || len(seen) == n {
				dump.WriteString(batch.NTriples())
				batch = kb.New()
			}
		}
	}
	start := time.Now()
	err := knowledge.LoadNTriples(dump.String())
	fx.loadNTriplesMs = millis(time.Since(start))
	return err
}

// stop drains the server and closes the system gracefully (final WAL fsync).
func (fx *fixture) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fx.sys.Shutdown(ctx); err != nil {
		return err
	}
	return <-fx.served
}

// discard stops a fixture that will not be measured and removes its data.
func (fx *fixture) discard() error {
	err := fx.stop()
	if fx.dataDir != "" {
		if rmErr := os.RemoveAll(fx.dataDir); err == nil {
			err = rmErr
		}
	}
	return err
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
