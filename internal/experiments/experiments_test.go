package experiments

import (
	"strings"
	"testing"

	"galo/internal/kb"
)

// tinyConfig keeps the harness tests fast; the benchmarks in the repository
// root run the fuller configurations.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.06
	cfg.TPCDSQueries = 20
	cfg.ClientQueries = 30
	cfg.Learning.RandomPlans = 6
	cfg.Learning.Workers = 2
	return cfg
}

func TestRunExp1ShowsThresholdGrowth(t *testing.T) {
	rows, err := RunExp1(tinyConfig(), []int{1, 3})
	if err != nil {
		t.Fatalf("RunExp1: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].JoinThreshold != 1 || rows[1].JoinThreshold != 3 {
		t.Errorf("thresholds = %+v", rows)
	}
	// A larger threshold analyzes at least as many sub-queries.
	if rows[1].SubQueries < rows[0].SubQueries {
		t.Errorf("sub-queries did not grow with the threshold: %+v", rows)
	}
	if rows[0].AvgMsPerQuery <= 0 || rows[1].AvgMsPerSubQuery <= 0 {
		t.Errorf("timings missing: %+v", rows)
	}
	text := RenderExp1(rows)
	if !strings.Contains(text, "Figure 9") || !strings.Contains(text, "join-threshold") {
		t.Errorf("render output malformed:\n%s", text)
	}
}

func TestRunExp2ImprovesWorkloads(t *testing.T) {
	res, err := RunExp2(tinyConfig())
	if err != nil {
		t.Fatalf("RunExp2: %v", err)
	}
	if res.TPCDS.Summary.Queries == 0 || res.Client.Summary.Queries == 0 {
		t.Fatalf("workloads not executed: %+v", res)
	}
	if res.TPCDS.Templates == 0 {
		t.Errorf("no templates learned on TPC-DS")
	}
	if res.TPCDS.Summary.Matched == 0 {
		t.Errorf("no TPC-DS queries matched for re-optimization")
	}
	if res.TPCDS.Summary.Applied > 0 && res.TPCDS.Summary.AvgImprovement < 0 {
		t.Errorf("applied rewrites but negative improvement: %+v", res.TPCDS.Summary)
	}
	if res.TPCDS.Summary.TotalGalo > res.TPCDS.Summary.TotalOriginal*1.001 {
		t.Errorf("validated re-optimization must never regress the workload: %+v", res.TPCDS.Summary)
	}
	text := RenderExp2(res)
	if !strings.Contains(text, "Figure 10a") || !strings.Contains(text, "cross-workload reuse") {
		t.Errorf("render output malformed:\n%s", text)
	}
}

func TestRunExp3MatchingTimeGrowsGently(t *testing.T) {
	rows, err := RunExp3(tinyConfig(), []int{2, 8, 16})
	if err != nil {
		t.Fatalf("RunExp3: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Tables >= 4 && r.Fragments == 0 {
			t.Errorf("no fragments for %d tables", r.Tables)
		}
		if r.MatchMillisPerCall < 0 {
			t.Errorf("negative match time: %+v", r)
		}
	}
	if !strings.Contains(RenderExp3(rows), "Figure 11") {
		t.Errorf("render output malformed")
	}
}

func TestRunExp4ScalesWithKBAndWorkload(t *testing.T) {
	rows, err := RunExp4(tinyConfig(), []int{4, 8}, []int{20, 60})
	if err != nil {
		t.Fatalf("RunExp4: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More queries against the same KB must not be cheaper.
	if rows[1].TotalMillis < rows[0].TotalMillis*0.5 {
		t.Errorf("doubling the workload halved the time: %+v", rows[:2])
	}
	if !strings.Contains(RenderExp4(rows), "Figure 12") {
		t.Errorf("render output malformed")
	}
}

func TestInflateKB(t *testing.T) {
	knowledge := kb.New()
	if err := InflateKB(knowledge, 40, 7); err != nil {
		t.Fatalf("InflateKB: %v", err)
	}
	if knowledge.Size() != 40 {
		t.Errorf("Size = %d, want 40", knowledge.Size())
	}
	for _, tmpl := range knowledge.Templates() {
		if tmpl.GuidelineXML == "" || tmpl.Problem == nil {
			t.Errorf("synthetic template incomplete")
		}
	}
}

func TestRunExp56ComparesExpertAndGalo(t *testing.T) {
	rows, err := RunExp56(tinyConfig())
	if err != nil {
		t.Fatalf("RunExp56: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 problem patterns", len(rows))
	}
	galoCheaperCount := 0
	galoBetterOrEqual := 0
	for _, r := range rows {
		if r.ExpertMinutes <= 0 {
			t.Errorf("expert time missing: %+v", r)
		}
		if r.GaloMinutes < r.ExpertMinutes {
			galoCheaperCount++
		}
		if r.GaloImprovement >= r.ExpertImprovement {
			galoBetterOrEqual++
		}
	}
	// The paper's qualitative findings: automatic learning is cheaper than
	// manual diagnosis and at least as effective for most patterns.
	if galoCheaperCount < 3 {
		t.Errorf("GALO should be cheaper than the expert for most patterns: %+v", rows)
	}
	if galoBetterOrEqual < 2 {
		t.Errorf("GALO should match or beat the expert's plans for most patterns: %+v", rows)
	}
	text := RenderExp56(rows)
	if !strings.Contains(text, "Figure 13") || !strings.Contains(text, "Figure 14") {
		t.Errorf("render output malformed:\n%s", text)
	}
}
