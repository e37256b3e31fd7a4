package experiments

import (
	"fmt"
	"math"
	"sort"

	"galo/internal/executor"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/client"
	"galo/internal/workload/joblike"
	"galo/internal/workload/ohlc"
	"galo/internal/workload/scenario"
	"galo/internal/workload/tpcds"
	"galo/internal/workload/trace"
)

// Scenarios returns the workload zoo in registry order. Each scenario is an
// adversarial workload: a deterministic generator with a built-in estimation
// hazard, hazard queries, and a statistical remedy (scenario.Scenario).
func Scenarios() []scenario.Scenario {
	return []scenario.Scenario{ohlc.New(), joblike.New(), trace.New()}
}

// workloads returns every workload: TPC-DS, client and the zoo.
func workloads() []scenario.Scenario {
	return append([]scenario.Scenario{tpcds.New(), client.New()}, Scenarios()...)
}

// ScenarioByName looks any workload up by its registry name: tpcds, client or
// a zoo scenario.
func ScenarioByName(name string) (scenario.Scenario, bool) {
	for _, sc := range workloads() {
		if sc.Name() == name {
			return sc, true
		}
	}
	return nil, false
}

// ScanQErrors optimizes and executes each query and returns the sorted
// per-scan q-errors max(est/act, act/est) — the same metric
// BENCH_optimizer.json tracks, shared here so the zoo gates and benchmarks
// measure identically.
func ScanQErrors(db *storage.Database, opts optimizer.Options, queries []*sqlparser.Query) ([]float64, error) {
	opt := optimizer.New(db.Catalog, opts)
	ex := executor.New(db)
	var errs []float64
	for _, q := range queries {
		plan, _, err := opt.Optimize(q)
		if err != nil {
			return nil, fmt.Errorf("optimize %s: %w", q.Name, err)
		}
		if _, err := ex.Execute(plan, q); err != nil {
			return nil, fmt.Errorf("execute %s: %w", q.Name, err)
		}
		plan.Root.Walk(func(n *qgm.Node) {
			if !n.Op.IsScan() {
				return
			}
			est := math.Max(n.EstCardinality, 1)
			act := math.Max(n.ActCardinality, 1)
			errs = append(errs, math.Max(est/act, act/est))
		})
	}
	sort.Float64s(errs)
	return errs, nil
}

// QErrorQuantile reads quantile q from a sorted q-error slice.
func QErrorQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// ZooResult is one scenario's pre/post-learning estimation quality.
type ZooResult struct {
	Scenario   string
	Hazard     string
	Scans      int
	PreMedian  float64
	PreP90     float64
	PreMax     float64
	PostMedian float64
	PostP90    float64
	PostMax    float64
}

// RunZoo generates every zoo scenario as the harness does (Config.generate),
// measures per-scan q-error over the hazard queries under
// default statistics, applies the scenario's Learn remedy, and measures
// again. The pre/post gap is the tier-1 gate: pre p90 > 10 (the hazard
// fires), post p90 < 2 (the remedy works).
func RunZoo(cfg Config) ([]ZooResult, error) {
	var out []ZooResult
	for _, sc := range Scenarios() {
		db, queries, err := cfg.generate(sc)
		if err != nil {
			return nil, err
		}
		pre, err := ScanQErrors(db, optimizer.DefaultOptions(), queries)
		if err != nil {
			return nil, fmt.Errorf("%s: pre-learning: %w", sc.Name(), err)
		}
		learned, err := sc.Learn(db)
		if err != nil {
			return nil, fmt.Errorf("%s: learn: %w", sc.Name(), err)
		}
		post, err := ScanQErrors(db, learned, queries)
		if err != nil {
			return nil, fmt.Errorf("%s: post-learning: %w", sc.Name(), err)
		}
		out = append(out, ZooResult{
			Scenario:   sc.Name(),
			Hazard:     sc.Hazard(),
			Scans:      len(pre),
			PreMedian:  QErrorQuantile(pre, 0.5),
			PreP90:     QErrorQuantile(pre, 0.9),
			PreMax:     QErrorQuantile(pre, 1.0),
			PostMedian: QErrorQuantile(post, 0.5),
			PostP90:    QErrorQuantile(post, 0.9),
			PostMax:    QErrorQuantile(post, 1.0),
		})
	}
	return out, nil
}
