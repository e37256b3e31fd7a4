package learning

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"galo/internal/kb"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/tpcds"
)

// The frozen template fingerprint: what learning put into the knowledge base
// for the two bench/setup.go fixtures and for the fastOptions() workloads of
// learning_test.go. The fixture file was generated on the commit before the
// learner executed each plan once and stopped hopeless candidates early, so
// passing it untouched is the proof that the cheaper learner learns the same
// knowledge base. Its keys end in noise_0, the measurement-noise setting of
// the learner that generated them. -update-fingerprints
// regenerates it; on an unchanged learner it reproduces the file byte for byte
// except for simulated_work_millis, the one number allowed to move (down).
var updateFingerprints = flag.Bool("update-fingerprints", false, "regenerate testdata/fingerprints.json")

const fingerprintFile = "testdata/fingerprints.json"

type fingerprint struct {
	SubQueriesAnalyzed  int      `json:"sub_queries_analyzed"`
	SimulatedWorkMillis float64  `json:"simulated_work_millis"`
	Templates           []string `json:"templates"`
}

// templateLine is one template, in every field learning decides, without the
// sequence-salted ID.
func templateLine(t *kb.Template) string {
	ids := make([]int, 0, len(t.Bounds))
	for id := range t.Bounds {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	bounds := make([]string, len(ids))
	for i, id := range ids {
		r := t.Bounds[id]
		bounds[i] = fmt.Sprintf("%d:%s..%s", id, exactFloat(r.Lo), exactFloat(r.Hi))
	}
	return strings.Join([]string{
		t.Signature(), t.GuidelineXML, exactFloat(t.Improvement), strconv.FormatBool(t.Structural),
		t.SourceQuery, t.SourceWorkload, strconv.Itoa(t.Joins), strings.Join(bounds, ","),
	}, " | ")
}

func exactFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func fingerprintOf(knowledge *kb.KB, subQueries int, work float64) fingerprint {
	fp := fingerprint{SubQueriesAnalyzed: subQueries, SimulatedWorkMillis: work, Templates: []string{}}
	for _, t := range knowledge.Templates() {
		fp.Templates = append(fp.Templates, templateLine(t))
	}
	sort.Strings(fp.Templates)
	return fp
}

// benchOptions is bench/setup.go's learning configuration.
func benchOptions() Options {
	o := DefaultOptions()
	o.RandomPlans = 8
	o.PredicateVariants = 1
	o.Runs = 2
	o.Workers = 2
	o.MaxSubQueriesPerQuery = 10
	o.Workload = "tpcds"
	o.Seed = 31
	return o
}

// benchFixture is the database and training workload of bench/setup.go:
// execute_validate trains on six wide Figure 8 variants at scale 0.5, the
// other three workloads on Figures 8 and 7 plus four variants at scale 0.08.
func benchFixture(t testing.TB, execute bool) (*storage.Database, []*sqlparser.Query) {
	t.Helper()
	scale := 0.08
	if execute {
		scale = 0.5
	}
	db, err := tpcds.Generate(tpcds.GenOptions{Seed: 31, Scale: scale, Hazards: true})
	if err != nil {
		t.Fatal(err)
	}
	if execute {
		return db, tpcds.Fig8WideVariants(db, 6)
	}
	return db, append([]*sqlparser.Query{tpcds.Fig8Query(), tpcds.Fig7Query()}, tpcds.Fig8WideVariants(db, 4)...)
}

type fingerprintCase struct {
	name    string
	opts    Options
	fixture func(t *testing.T) (*storage.Database, []*sqlparser.Query)
	// single learns queries[0] through LearnQuery instead of LearnWorkload.
	single bool
}

func fingerprintCases() []fingerprintCase {
	fast := func(name string, single bool, plans int, queries func(db *storage.Database) []*sqlparser.Query) fingerprintCase {
		opts := fastOptions()
		opts.RandomPlans = plans
		return fingerprintCase{name: name, opts: opts, single: single, fixture: func(t *testing.T) (*storage.Database, []*sqlparser.Query) {
			db := learnDB(t)
			return db, queries(db)
		}}
	}
	return []fingerprintCase{
		{name: "bench_scale_0.08", opts: benchOptions(), fixture: func(t *testing.T) (*storage.Database, []*sqlparser.Query) { return benchFixture(t, false) }},
		{name: "bench_scale_0.5", opts: benchOptions(), fixture: func(t *testing.T) (*storage.Database, []*sqlparser.Query) { return benchFixture(t, true) }},
		fast("fast_learnquery_fig8", true, 6, func(*storage.Database) []*sqlparser.Query {
			return []*sqlparser.Query{tpcds.Fig8Query()}
		}),
		fast("fast_fig8wide_12_plans", false, 12, func(db *storage.Database) []*sqlparser.Query {
			return []*sqlparser.Query{tpcds.Fig8WideQuery(db)}
		}),
		fast("fast_fig3_fig8wide_fig7", false, 6, func(db *storage.Database) []*sqlparser.Query {
			return []*sqlparser.Query{tpcds.Fig3Query(), tpcds.Fig8WideQuery(db), tpcds.Fig7Query()}
		}),
		fast("fast_fig3_fig8_fig7", false, 6, func(*storage.Database) []*sqlparser.Query {
			return []*sqlparser.Query{tpcds.Fig3Query(), tpcds.Fig8Query(), tpcds.Fig7Query()}
		}),
	}
}

func (c fingerprintCase) learn(t *testing.T, db *storage.Database, queries []*sqlparser.Query) fingerprint {
	t.Helper()
	knowledge := kb.New()
	eng := New(db, knowledge, c.opts)
	if c.single {
		qr, err := eng.LearnQuery(queries[0])
		if err != nil {
			t.Fatal(err)
		}
		return fingerprintOf(knowledge, qr.SubQueries, qr.SimulatedWorkMillis)
	}
	report, err := eng.LearnWorkload(queries)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprintOf(knowledge, report.SubQueriesAnalyzed, report.SimulatedWorkMillis)
}

func TestFrozenTemplateFingerprint(t *testing.T) {
	frozen := map[string]fingerprint{}
	if !*updateFingerprints {
		data, err := os.ReadFile(fingerprintFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &frozen); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range fingerprintCases() {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.name == "bench_scale_0.5" {
				t.Skip("scale 0.5 fixture skipped in -short")
			}
			db, queries := c.fixture(t)
			t.Run("noise_0", func(t *testing.T) {
				name := c.name + "/noise_0"
				got := c.learn(t, db, queries)
				if *updateFingerprints {
					frozen[name] = got
					return
				}
				want, ok := frozen[name]
				if !ok {
					t.Fatalf("no frozen fingerprint %q in %s", name, fingerprintFile)
				}
				if got.SubQueriesAnalyzed != want.SubQueriesAnalyzed {
					t.Errorf("sub-queries analyzed = %d, frozen %d", got.SubQueriesAnalyzed, want.SubQueriesAnalyzed)
				}
				if len(got.Templates) != len(want.Templates) {
					t.Fatalf("learned %d templates, frozen %d:\n%s", len(got.Templates), len(want.Templates), strings.Join(got.Templates, "\n"))
				}
				for i := range want.Templates {
					if got.Templates[i] != want.Templates[i] {
						t.Errorf("template %d differs:\n got  %s\n want %s", i, got.Templates[i], want.Templates[i])
					}
				}
				// Executing a plan once, billing an aborted run at its budget
				// and ranking each plan on its one run can only lower the
				// simulated work.
				if got.SimulatedWorkMillis > want.SimulatedWorkMillis*(1+1e-9) {
					t.Errorf("simulated work rose: %.3f ms, frozen %.3f ms", got.SimulatedWorkMillis, want.SimulatedWorkMillis)
				}
				t.Logf("%d templates, %d sub-queries, simulated work %.1f ms (frozen %.1f ms)",
					len(got.Templates), got.SubQueriesAnalyzed, got.SimulatedWorkMillis, want.SimulatedWorkMillis)
			})
		})
	}
	if *updateFingerprints {
		data, err := json.MarshalIndent(frozen, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
