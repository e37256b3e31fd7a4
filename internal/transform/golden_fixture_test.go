// Fixture of the golden probe suite (golden_test.go): the frozen queries, the
// two knowledge bases they are probed against, and the generator behind
// `go test ./internal/transform/ -run GoldenProbes -update`. Everything here
// goes through the text path alone (FragmentMatchQuery, LocalEndpoint.Select),
// so the file compiles on the commit the fixtures were generated on: the one
// *before* probes were prepared (PR 15).
package transform_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"galo/internal/core"
	"galo/internal/experiments"
	"galo/internal/fuseki"
	"galo/internal/kb"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sparql"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/transform"
	"galo/internal/workload/tpcds"
)

var update = flag.Bool("update", false, "regenerate testdata/golden_probes.json and testdata/golden_kb.nt")

const (
	goldenProbesPath = "testdata/golden_probes.json"
	goldenKBPath     = "testdata/golden_kb.nt"
	// goldenSeed and goldenScale are bench/setup.go's fixtureSeed and the data
	// scale of its planning workloads.
	goldenSeed      = 31
	goldenScale     = 0.08
	goldenInflateTo = 1024
)

// goldenFile is testdata/golden_probes.json.
type goldenFile struct {
	Note    string        `json:"note"`
	Queries []goldenQuery `json:"queries"`
}

// goldenQuery is one planned query. SQL is frozen for the bench queries —
// bench/ is its own module, so what routinizedPool() and coldStream(1) draw
// is kept here as data — and empty for tpcds.Queries(), found by Name.
type goldenQuery struct {
	Name      string           `json:"name"`
	SQL       string           `json:"sql,omitempty"`
	Fragments []goldenFragment `json:"fragments"`
}

// goldenFragment is one fragment of the query's plan, in EnumerateSubPlans
// order: the probe text and the solutions, in evaluation order, from the
// learned knowledge base and from the inflated one. A solution maps variable
// to term in N-Triples syntax.
type goldenFragment struct {
	Text     string              `json:"text"`
	Learned  []map[string]string `json:"learned"`
	Inflated []map[string]string `json:"inflated"`
}

func renderSolutions(sols []sparql.Solution) []map[string]string {
	out := make([]map[string]string, len(sols))
	for i, sol := range sols {
		out[i] = make(map[string]string, len(sol))
		for v, term := range sol {
			out[i][v] = term.String()
		}
	}
	return out
}

var (
	goldenDBOnce sync.Once
	goldenDBVal  *storage.Database
	goldenDBErr  error
)

// goldenDB is the database every golden query is planned against.
func goldenDB(tb testing.TB) *storage.Database {
	tb.Helper()
	goldenDBOnce.Do(func() {
		goldenDBVal, goldenDBErr = tpcds.Generate(tpcds.GenOptions{Seed: goldenSeed, Scale: goldenScale, Hazards: true})
	})
	if goldenDBErr != nil {
		tb.Fatal(goldenDBErr)
	}
	return goldenDBVal
}

// learnGoldenKB learns the knowledge base the way bench/setup.go does for its
// planning workloads, on one worker: template ids hash the insertion
// sequence, which follows worker timing.
func learnGoldenKB(tb testing.TB) string {
	tb.Helper()
	db := goldenDB(tb)
	cfg := core.DefaultConfig()
	cfg.Learning.RandomPlans = 8
	cfg.Learning.PredicateVariants = 1
	cfg.Learning.Runs = 2
	cfg.Learning.Workers = 1
	cfg.Learning.MaxSubQueriesPerQuery = 10
	cfg.Learning.Workload = "tpcds"
	cfg.Learning.Seed = goldenSeed
	sys := core.NewSystem(db, cfg)
	train := append([]*sqlparser.Query{tpcds.Fig8Query(), tpcds.Fig7Query()}, tpcds.Fig8WideVariants(db, 4)...)
	if _, err := sys.Learn(train); err != nil {
		tb.Fatal(err)
	}
	return sys.KB().NTriples()
}

// goldenKBs loads the learned knowledge base from its dump and builds the
// inflated one from it: experiments.InflateKB patterns drawn in 64-template
// scratch KBs, de-duplicated by signature and loaded as one document, as
// bench/setup.go's inflate does, so that the two build the same knowledge
// base. (Adding one by one would not be slow: BenchmarkKBAdd reads 0.14 to
// 0.25 ms per Add at 256 to 1024 templates on a 2-CPU x86-64 machine.)
func goldenKBs(tb testing.TB) (learned, inflated *kb.KB) {
	tb.Helper()
	dump, err := os.ReadFile(goldenKBPath)
	if err != nil {
		tb.Fatal(err)
	}
	learned, inflated = kb.New(), kb.New()
	for _, k := range []*kb.KB{learned, inflated} {
		if err := k.LoadNTriples(string(dump)); err != nil {
			tb.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, t := range inflated.Templates() {
		seen[t.Signature()] = true
	}
	const batchSize = 64
	var doc strings.Builder
	batch := kb.New()
	for chunk := int64(0); len(seen) < goldenInflateTo; chunk++ {
		scratch := kb.New()
		if err := experiments.InflateKB(scratch, batchSize, goldenSeed*1000+chunk); err != nil {
			tb.Fatal(err)
		}
		for _, t := range scratch.Templates() {
			if seen[t.Signature()] || len(seen) == goldenInflateTo {
				continue
			}
			seen[t.Signature()] = true
			if _, err := batch.Add(t); err != nil {
				tb.Fatal(err)
			}
			if batch.Size() == batchSize || len(seen) == goldenInflateTo {
				doc.WriteString(batch.NTriples())
				batch = kb.New()
			}
		}
	}
	if err := inflated.LoadNTriples(doc.String()); err != nil {
		tb.Fatal(err)
	}
	return learned, inflated
}

func readGolden(tb testing.TB) goldenFile {
	tb.Helper()
	data, err := os.ReadFile(goldenProbesPath)
	if err != nil {
		tb.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		tb.Fatal(err)
	}
	return g
}

// goldenPlans plans every golden query and returns each plan's fragments in
// EnumerateSubPlans order.
func goldenPlans(tb testing.TB, g goldenFile) [][]qgm.SubPlan {
	tb.Helper()
	byName := map[string]*sqlparser.Query{}
	for _, q := range tpcds.Queries() {
		byName[q.Name] = q
	}
	opt := optimizer.New(goldenDB(tb).Catalog, optimizer.DefaultOptions())
	out := make([][]qgm.SubPlan, len(g.Queries))
	for i, gq := range g.Queries {
		q := byName[gq.Name]
		if gq.SQL != "" {
			var err error
			if q, err = sqlparser.Parse(gq.SQL); err != nil {
				tb.Fatalf("%s: %v", gq.Name, err)
			}
		}
		if q == nil {
			tb.Fatalf("%s: no SQL and not a tpcds.Queries() name", gq.Name)
		}
		plan, _, err := opt.Optimize(q)
		if err != nil {
			tb.Fatalf("%s: %v", gq.Name, err)
		}
		out[i] = plan.EnumerateSubPlans(4)
	}
	return out
}

// regenerateGolden rewrites both fixtures, keeping the query list of the
// existing golden_probes.json.
func regenerateGolden(t *testing.T) {
	if err := os.MkdirAll(filepath.Dir(goldenKBPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenKBPath, []byte(learnGoldenKB(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	g := readGolden(t)
	learned, inflated := goldenKBs(t)
	for i, frags := range goldenPlans(t, g) {
		g.Queries[i].Fragments = nil
		for _, frag := range frags {
			text, _, err := transform.FragmentMatchQuery(frag.Root)
			if err != nil {
				t.Fatal(err)
			}
			solve := func(knowledge *kb.KB) []map[string]string {
				sols, err := fuseki.LocalEndpoint{Store: knowledge.Store()}.Select(text)
				if err != nil {
					t.Fatal(err)
				}
				return renderSolutions(sols)
			}
			g.Queries[i].Fragments = append(g.Queries[i].Fragments,
				goldenFragment{Text: text, Learned: solve(learned), Inflated: solve(inflated)})
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenProbesPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
