// Benchmarks that regenerate every table and figure of the paper's
// evaluation (Section 4): one benchmark per experiment, built on the harness
// in internal/experiments. Each benchmark reports the figure's headline
// quantities as custom metrics (b.ReportMetric), and the galo-experiments
// command prints the full row/series data as text.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The harness uses laptop-scale data; README.md's "Experiments" section says
// what each experiment prints and records the measured numbers.
package galo_test

import (
	"testing"

	"galo"
	"galo/internal/executor"
	"galo/internal/experiments"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/workload/client"
	"galo/internal/workload/tpcds"
)

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.10
	cfg.TPCDSQueries = 24
	cfg.ClientQueries = 30
	cfg.Learning.RandomPlans = 6
	cfg.Learning.Runs = 2
	cfg.Learning.Workers = 4
	return cfg
}

// --- Figure-level problem patterns (Figures 1, 4, 7, 8) ----------------------

// benchFigure learns a knowledge base from one problem query and reports the
// improvement GALO's re-optimization achieves on it, which is the content of
// the corresponding figure: the optimizer's plan versus the plan GALO finds.
func benchFigure(b *testing.B, db *galo.Database, query *galo.Query, workload string) {
	b.Helper()
	cfg := galo.DefaultConfig()
	cfg.Learning.Workload = workload
	cfg.Learning.RandomPlans = 12
	cfg.Learning.MinImprovement = 0.10
	cfg.Learning.Runs = 2
	cfg.Learning.Workers = 4
	sys := galo.NewSystem(db, cfg)
	if _, err := sys.Learn([]*galo.Query{query}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var lastImprovement float64
	for i := 0; i < b.N; i++ {
		outcomes, _, err := sys.ReoptimizeWorkload([]*galo.Query{query})
		if err != nil {
			b.Fatal(err)
		}
		lastImprovement = outcomes[0].Improvement()
	}
	b.ReportMetric(sysKBSize(sys), "templates")
	b.ReportMetric(lastImprovement*100, "%improvement")
}

func sysKBSize(sys *galo.System) float64 { return float64(sys.KB().Size()) }

// BenchmarkFig01ClientJoinRewrite regenerates Figure 1: the client workload's
// OPEN_IN / ENTRY_IDX join, comparing the problematic plan of Figure 1a (a
// merge join reading ENTRY_IDX through a spilling sort, with OPEN_IN as the
// outer) against the GALO rewrite of Figure 1b (a hash join with the inputs
// swapped). The problematic plan is constructed explicitly — our simulated
// optimizer does not repeat DB2's mistake on this query — so the benchmark
// measures the speedup the Figure 1 rewrite itself delivers.
func BenchmarkFig01ClientJoinRewrite(b *testing.B) {
	db, err := galo.GenerateClient(galo.ClientOptions{Seed: 3, Scale: 0.3, Hazards: true})
	if err != nil {
		b.Fatal(err)
	}
	q := client.Fig1Query()
	opt := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	problematic, err := opt.BuildPlan(q, optimizer.Join(qgm.OpMSJOIN,
		optimizer.LeafAccess("OPEN_IN", qgm.OpIXSCAN, "OI_ENTRY_IDX"),
		optimizer.LeafAccess("ENTRY_IDX", qgm.OpTBSCAN, "")))
	if err != nil {
		b.Fatal(err)
	}
	rewritten, err := opt.BuildPlan(q, optimizer.Join(qgm.OpHSJOIN,
		optimizer.LeafAccess("ENTRY_IDX", qgm.OpTBSCAN, ""),
		optimizer.LeafAccess("OPEN_IN", qgm.OpTBSCAN, "")))
	if err != nil {
		b.Fatal(err)
	}
	ex := executor.New(db)
	b.ResetTimer()
	var before, after float64
	for i := 0; i < b.N; i++ {
		r1, err := ex.Execute(problematic, q)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := ex.Execute(rewritten, q)
		if err != nil {
			b.Fatal(err)
		}
		before, after = r1.Stats.ElapsedMillis, r2.Stats.ElapsedMillis
	}
	b.ReportMetric(before, "msjoin-plan-ms")
	b.ReportMetric(after, "hsjoin-rewrite-ms")
	if after > 0 {
		b.ReportMetric(before/after, "speedup-factor")
	}
}

// BenchmarkFig04BloomFilterPattern regenerates Figure 4: the catalog_sales
// self-join star whose nested-loop / poorly-clustered-index plan GALO
// rewrites into bloom-filtered hash joins over table scans.
func BenchmarkFig04BloomFilterPattern(b *testing.B) {
	db, err := galo.GenerateTPCDS(galo.TPCDSOptions{Seed: 4, Scale: 0.12, Hazards: true})
	if err != nil {
		b.Fatal(err)
	}
	benchFigure(b, db, tpcds.Fig4Query(), "tpcds")
}

// BenchmarkFig07TransferRatePattern regenerates Figure 7: the store_sales /
// customer_demographics query whose scan costs the optimizer overestimates
// because of the configured transfer rate.
func BenchmarkFig07TransferRatePattern(b *testing.B) {
	db, err := galo.GenerateTPCDS(galo.TPCDSOptions{Seed: 7, Scale: 0.12, Hazards: true})
	if err != nil {
		b.Fatal(err)
	}
	benchFigure(b, db, tpcds.Fig7Query(), "tpcds")
}

// BenchmarkFig08SortPattern regenerates Figure 8: the store_sales / date_dim
// join over a date range far wider than the data, repaired by a merge join
// that stops early.
func BenchmarkFig08SortPattern(b *testing.B) {
	db, err := galo.GenerateTPCDS(galo.TPCDSOptions{Seed: 9, Scale: 0.12, Hazards: true})
	if err != nil {
		b.Fatal(err)
	}
	benchFigure(b, db, tpcds.Fig8Query(), "tpcds")
}

// --- Exp-1 / Figure 9: learning scalability ----------------------------------

// BenchmarkExp1LearningScalability regenerates Figure 9: offline learning
// time per query and per sub-query as the join-number threshold grows.
func BenchmarkExp1LearningScalability(b *testing.B) {
	cfg := benchConfig()
	cfg.TPCDSQueries = 16
	b.ResetTimer()
	var rows []experiments.Exp1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunExp1(cfg, []int{1, 2, 3, 4})
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.AvgMsPerQuery, "ms/query@4joins")
	b.ReportMetric(last.AvgMsPerSubQuery, "ms/subquery@4joins")
	b.ReportMetric(float64(last.TemplatesLearned), "templates")
	b.ReportMetric(last.AvgImprovement*100, "%avg-improvement")
}

// --- Exp-2 / Figure 10: matching performance improvement ---------------------

// BenchmarkExp2TPCDSImprovement regenerates Figure 10a (and the TPC-DS half
// of Exp-2): learn on the TPC-DS workload and re-optimize it.
func BenchmarkExp2TPCDSImprovement(b *testing.B) {
	cfg := benchConfig()
	b.ResetTimer()
	var res *experiments.Exp2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunExp2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TPCDS.Summary.Matched), "matched")
	b.ReportMetric(float64(res.TPCDS.Summary.Applied), "rewritten")
	b.ReportMetric(res.TPCDS.Summary.AvgImprovement*100, "%avg-improvement")
	b.ReportMetric(float64(res.TPCDS.Templates), "templates")
}

// BenchmarkExp2ClientImprovement regenerates Figure 10b and the
// cross-workload reuse count of Exp-2: the client workload re-optimized with
// its own knowledge plus the knowledge learned on TPC-DS.
func BenchmarkExp2ClientImprovement(b *testing.B) {
	cfg := benchConfig()
	b.ResetTimer()
	var res *experiments.Exp2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunExp2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Client.Summary.Matched), "matched")
	b.ReportMetric(float64(res.Client.Summary.Applied), "rewritten")
	b.ReportMetric(res.Client.Summary.AvgImprovement*100, "%avg-improvement")
	b.ReportMetric(float64(res.CrossWorkloadMatches), "cross-workload-reuse")
}

// --- Exp-3 / Figure 11: matching scalability ----------------------------------

// BenchmarkExp3MatchingScalability regenerates Figure 11: knowledge base probe
// time per rewrite as the number of joined tables grows from 2 to 32.
func BenchmarkExp3MatchingScalability(b *testing.B) {
	cfg := benchConfig()
	b.ResetTimer()
	var rows []experiments.Exp3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunExp3(cfg, []int{2, 4, 8, 15, 24, 32})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Tables == 15 {
			b.ReportMetric(r.MatchMillisPerCall, "ms/probe@15tables")
			b.ReportMetric(r.TextMillisPerCall, "ms/text-probe@15tables")
		}
		if r.Tables == 32 {
			b.ReportMetric(r.MatchMillisPerCall, "ms/probe@32tables")
			b.ReportMetric(r.TextMillisPerCall, "ms/text-probe@32tables")
		}
	}
}

// --- Exp-4 / Figure 12: routinization ------------------------------------------

// BenchmarkExp4Routinization regenerates Figure 12: total matching time as
// the workload size and the knowledge base size grow (up to 1,000 problem
// patterns).
func BenchmarkExp4Routinization(b *testing.B) {
	cfg := benchConfig()
	b.ResetTimer()
	var rows []experiments.Exp4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunExp4(cfg, []int{10, 20, 40}, []int{100, 1000})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.KBTemplates >= 1000 && r.Queries == 40 {
			b.ReportMetric(r.TotalMillis/1000, "s/40queries@1000patterns")
		}
	}
}

// --- Exp-5 and Exp-6 / Figures 13 and 14: versus manual experts --------------

// BenchmarkExp5CostOfLearning regenerates Figure 13: the time to learn the
// four problem patterns manually (simulated experts) versus automatically.
func BenchmarkExp5CostOfLearning(b *testing.B) {
	cfg := benchConfig()
	b.ResetTimer()
	var rows []experiments.Exp56Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunExp56(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var expert, galoTime float64
	for _, r := range rows {
		expert += r.ExpertMinutes
		galoTime += r.GaloMinutes
	}
	b.ReportMetric(expert/float64(len(rows)), "expert-min/pattern")
	b.ReportMetric(galoTime/float64(len(rows)), "galo-min/pattern")
}

// BenchmarkExp6Quality regenerates Figure 14: the quality (improvement over
// the optimizer's plan) of the fixes found manually versus by GALO.
func BenchmarkExp6Quality(b *testing.B) {
	cfg := benchConfig()
	b.ResetTimer()
	var rows []experiments.Exp56Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunExp56(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var expert, galoImp float64
	missed := 0
	for _, r := range rows {
		expert += r.ExpertImprovement
		galoImp += r.GaloImprovement
		if !r.ExpertFoundFix {
			missed++
		}
	}
	b.ReportMetric(expert/float64(len(rows))*100, "%expert-improvement")
	b.ReportMetric(galoImp/float64(len(rows))*100, "%galo-improvement")
	b.ReportMetric(float64(missed), "patterns-expert-missed")
}

// --- Ablations (design choices called out in DESIGN.md) -----------------------

// BenchmarkAblationBoundsSlack measures how widening the learned cardinality
// bounds trades match coverage against precision, the design knob behind the
// paper's "lower and upper-bound cardinalities can be updated over time".
func BenchmarkAblationBoundsSlack(b *testing.B) {
	for _, slack := range []float64{1.5, 4, 16} {
		b.Run(slackName(slack), func(b *testing.B) {
			db, err := galo.GenerateTPCDS(galo.TPCDSOptions{Seed: 5, Scale: 0.1, Hazards: true})
			if err != nil {
				b.Fatal(err)
			}
			cfg := galo.DefaultConfig()
			cfg.Learning.BoundsSlack = slack
			cfg.Learning.Workers = 4
			cfg.Learning.Runs = 2
			sys := galo.NewSystem(db, cfg)
			workload := galo.TPCDSQueries()[8:24]
			if _, err := sys.Learn(workload); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var matched int
			for i := 0; i < b.N; i++ {
				_, summary, err := sys.ReoptimizeWorkload(workload)
				if err != nil {
					b.Fatal(err)
				}
				matched = summary.Matched
			}
			b.ReportMetric(float64(matched), "matched")
		})
	}
}

func slackName(s float64) string {
	switch {
	case s < 2:
		return "tight"
	case s < 8:
		return "default"
	default:
		return "loose"
	}
}

// BenchmarkAblationJoinThreshold measures learning cost and knowledge base
// yield as the sub-query join threshold varies — the trade-off the paper
// resolves at four joins.
func BenchmarkAblationJoinThreshold(b *testing.B) {
	for _, th := range []int{2, 4, 6} {
		b.Run(thresholdName(th), func(b *testing.B) {
			cfg := benchConfig()
			cfg.TPCDSQueries = 12
			b.ResetTimer()
			var rows []experiments.Exp1Row
			for i := 0; i < b.N; i++ {
				var err error
				rows, err = experiments.RunExp1(cfg, []int{th})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rows[0].AvgMsPerQuery, "ms/query")
			b.ReportMetric(float64(rows[0].TemplatesLearned), "templates")
		})
	}
}

func thresholdName(th int) string {
	return map[int]string{2: "joins2", 4: "joins4", 6: "joins6"}[th]
}
