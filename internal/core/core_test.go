package core

import (
	"net/http/httptest"
	"path/filepath"
	"testing"

	"galo/internal/executor"
	"galo/internal/fleet"
	"galo/internal/learning"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/tpcds"
)

var (
	coreDB  *storage.Database
	coreSys *System
	// coreMatchedQuery is a learned query that the trained knowledge base is
	// known to match again online; found once in the fixture.
	coreMatchedQuery *sqlparser.Query
)

func trainedSystem(t *testing.T) *System {
	t.Helper()
	if coreSys == nil {
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
		cfg.Learning.Workload = "tpcds"
		sys := NewSystem(db, cfg)
		report, err := sys.Learn([]*sqlparser.Query{tpcds.Fig8Query(), tpcds.Fig7Query(), tpcds.Fig4Query()})
		if err != nil {
			t.Fatal(err)
		}
		if report.TemplatesAdded == 0 {
			t.Fatal("learning produced no templates")
		}
		for _, q := range []*sqlparser.Query{tpcds.Fig8Query(), tpcds.Fig7Query(), tpcds.Fig4Query()} {
			res, err := sys.Reoptimize(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) > 0 {
				coreMatchedQuery = q
				break
			}
		}
		if coreMatchedQuery == nil {
			t.Fatalf("knowledge base (size %d) matched none of the learned queries", sys.KB().Size())
		}
		coreDB, coreSys = db, sys
	}
	return coreSys
}

func TestLearnThenReoptimizeWorkflow(t *testing.T) {
	sys := trainedSystem(t)
	res, err := sys.Reoptimize(coreMatchedQuery)
	if err != nil {
		t.Fatalf("Reoptimize: %v", err)
	}
	if res.OriginalPlan == nil {
		t.Fatal("no original plan")
	}
	if len(res.Matches) == 0 {
		t.Fatalf("knowledge base (size %d) did not match the learned query", sys.KB().Size())
	}
	base, err := sys.Optimize(coreMatchedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if base.Signature() != res.OriginalPlan.Signature() {
		t.Errorf("Optimize and Reoptimize disagree on the baseline plan")
	}
	run, err := sys.Execute(res.OriginalPlan, coreMatchedQuery)
	if err != nil || run.Stats.ElapsedMillis <= 0 {
		t.Errorf("Execute failed: %v %+v", err, run)
	}
}

func TestReoptimizeWorkloadSummary(t *testing.T) {
	sys := trainedSystem(t)
	queries := []*sqlparser.Query{coreMatchedQuery, tpcds.Fig7Query(),
		sqlparser.MustParse(`SELECT i_item_desc FROM item WHERE i_category = 'Music'`)}
	outcomes, summary, err := sys.ReoptimizeWorkload(queries)
	if err != nil {
		t.Fatalf("ReoptimizeWorkload: %v", err)
	}
	if len(outcomes) != 3 || summary.Queries != 3 {
		t.Fatalf("outcomes = %d, summary = %+v", len(outcomes), summary)
	}
	if summary.Matched == 0 {
		t.Errorf("no query matched")
	}
	for _, o := range outcomes {
		if o.OriginalMillis <= 0 {
			t.Errorf("missing baseline time for %s", o.Query)
		}
		if !o.Applied && o.Improvement() != 0 {
			t.Errorf("query without an applied rewrite reports improvement: %+v", o)
		}
	}
	if summary.Applied > 0 && summary.AvgImprovement < 0 {
		t.Errorf("applied rewrites but negative average improvement: %+v", summary)
	}
	if summary.TotalGalo > summary.TotalOriginal*1.001 {
		t.Errorf("validated re-optimization must never regress the workload: %+v", summary)
	}
}

// TestVerdictRefusesRowCountMismatch table-tests the validation decision. A
// rewrite that returns another number of rows cannot be provoked through the
// API — the executor's differential suite exists so that it cannot — which is
// why the decision is a pure function of the two runs' statistics.
func TestVerdictRefusesRowCountMismatch(t *testing.T) {
	run := func(rows int, millis float64) executor.RunStats {
		return executor.RunStats{Rows: rows, ElapsedMillis: millis}
	}
	cases := []struct {
		name                string
		orig, galo          executor.RunStats
		applied, rowsDiffer bool
	}{
		{"faster, same rows", run(183, 900), run(183, 40), true, false},
		{"as fast, same rows", run(183, 900), run(183, 900), true, false},
		{"slower, same rows", run(183, 40), run(183, 900), false, false},
		{"faster, one row short", run(183, 900), run(182, 40), false, true},
		{"faster, one row over", run(183, 900), run(184, 40), false, true},
		{"faster, no rows at all", run(183, 900), run(0, 1), false, true},
		{"slower and different", run(183, 40), run(7, 900), false, true},
		{"both empty", run(0, 5), run(0, 4), true, false},
	}
	for _, tc := range cases {
		applied, rowsDiffer := verdict(tc.orig, tc.galo)
		if applied != tc.applied || rowsDiffer != tc.rowsDiffer {
			t.Errorf("%s: verdict = (applied %v, rowsDiffer %v), want (%v, %v)",
				tc.name, applied, rowsDiffer, tc.applied, tc.rowsDiffer)
		}
	}
}

func TestKBSaveLoadRoundtrip(t *testing.T) {
	sys := trainedSystem(t)
	path := filepath.Join(t.TempDir(), "kb.nt")
	if err := sys.SaveKB(path); err != nil {
		t.Fatalf("SaveKB: %v", err)
	}
	fresh := NewSystem(coreDB, sys.Config)
	if err := fresh.LoadKB(path); err != nil {
		t.Fatalf("LoadKB: %v", err)
	}
	if fresh.KB().Size() != sys.KB().Size() {
		t.Errorf("reloaded KB size %d, want %d", fresh.KB().Size(), sys.KB().Size())
	}
	res, err := fresh.Reoptimize(coreMatchedQuery)
	if err != nil {
		t.Fatalf("Reoptimize with reloaded KB: %v", err)
	}
	if len(res.Matches) == 0 {
		t.Errorf("reloaded KB does not match")
	}
	if err := fresh.LoadKB(filepath.Join(t.TempDir(), "missing.nt")); err == nil {
		t.Errorf("loading a missing file should fail")
	}
}

func TestRemoteKBEndpoint(t *testing.T) {
	sys := trainedSystem(t)
	srv := httptest.NewServer(sys.KBHandler())
	defer srv.Close()
	remoteCfg := sys.Config
	remoteCfg.Fleet = fleet.Options{Shards: [][]string{{srv.URL}}}
	remote := NewSystem(coreDB, remoteCfg)
	res, err := remote.Reoptimize(coreMatchedQuery)
	if err != nil {
		t.Fatalf("Reoptimize via HTTP endpoint: %v", err)
	}
	if len(res.Matches) == 0 {
		t.Errorf("remote endpoint returned no matches")
	}
}

func TestImportKBMergesTemplates(t *testing.T) {
	sys := trainedSystem(t)
	other := NewSystem(coreDB, Config{Learning: learning.DefaultOptions(), Matching: sys.Config.Matching})
	before := other.KB().Size()
	if err := other.ImportKB(sys.KB()); err != nil {
		t.Fatalf("ImportKB: %v", err)
	}
	if other.KB().Size() != before+sys.KB().Size() {
		t.Errorf("ImportKB size = %d, want %d", other.KB().Size(), before+sys.KB().Size())
	}
}
