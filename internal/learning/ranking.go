package learning

import (
	"math"
	"math/rand"

	"galo/internal/executor"
	"galo/internal/kmeans"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
)

// Measurement is the ranked runtime profile of one candidate plan.
type Measurement struct {
	Plan *qgm.Plan
	// Runs holds the raw per-run elapsed measurements (after noise), and
	// Prospective the subset kept after k-means outlier removal.
	Runs        []float64
	Prospective []float64
	// MeanMillis is the mean of the prospective runs — the ranking score.
	MeanMillis float64
	// Tie-break resource features (Section 3.2's ranking module).
	PhysicalReads int64
	LogicalReads  int64
	CPURows       int64
	SortHeapPages int64
	// SimulatedWorkMillis is the total simulated execution time spent
	// obtaining this measurement (all runs), used for the Exp-5 cost study.
	SimulatedWorkMillis float64
	// Aborted records that the plan was stopped at its budget (see
	// execution.Budget): it costs more than the budget and is ranked after
	// every plan that finished. Its counters are partial and never compared.
	Aborted bool
	// Err records an execution failure (the plan is then unrankable).
	Err error

	of *execution // what was measured, for the confirmation round's re-draw
}

// execution is one plan's one run: the executor is a pure function of (plan,
// query, database), so a plan is executed once and every repetition of its
// measurement re-draws only the noise.
type execution struct {
	Plan  *qgm.Plan
	Query *sqlparser.Query
	// Budget is the simulated time the run was bounded to (0 = unbounded): a
	// plan booking more is aborted and billed Budget per repetition — what
	// db2batch under that timeout would have spent.
	Budget float64
	Stats  executor.RunStats
	Err    error

	wallMillis float64 // the wall time of the run
}

// tieBand is the relative elapsed-time difference below which Rank breaks a
// tie on resource usage instead.
const tieBand = 0.02

// Ranker measures candidate plans, removes anomalous runs with k-means
// clustering and ranks plans by mean elapsed time, breaking ties with
// resource-usage features — the paper's ranking module, with db2batch
// replaced by the executor's simulated runtime.
//
// By default measurements are the executor's deterministic simulated cost, so
// rankings — and everything the learning engine derives from them — are
// reproducible. The optional noise model (Noise > 0 with a NoiseRNG) layers
// multiplicative jitter plus occasional spikes on top, giving the k-means
// outlier removal realistic work; it is a jitter knob, not the source of the
// learned patterns.
type Ranker struct {
	Exec *executor.Executor
	// Runs is the number of repetitions per plan: noise draws over the plan's
	// one execution.
	Runs int
	// Noise scales the optional measurement jitter; 0 (the default) keeps
	// measurements deterministic, 1.0 reproduces a noisy shared host.
	Noise float64
	// NoiseRNG drives the jitter deterministically; nil disables it even when
	// Noise is set.
	NoiseRNG *rand.Rand
}

// noiseCeiling is the largest factor one noise draw can multiply an elapsed
// time by (the smallest is 1: noise only ever slows a run down).
func noiseCeiling(noise float64) float64 {
	if noise <= 0 {
		return 1
	}
	return (1 + 0.04*noise) * (1 + 2.5*noise)
}

// Measure runs one plan and returns its measurement.
func (r *Ranker) Measure(plan *qgm.Plan, q *sqlparser.Query) Measurement {
	x := execution{Plan: plan, Query: q}
	x.Stats, x.Err = r.Exec.Run(plan, q)
	return r.draw(&x)
}

// draw turns a stored execution into a measurement: Runs noise draws over its
// elapsed time. An aborted execution draws too (its repetitions would have
// run, up to the timeout), so the noise stream does not depend on budgets.
func (r *Ranker) draw(x *execution) Measurement {
	m := Measurement{Plan: x.Plan, Aborted: x.Stats.Aborted, Err: x.Err, of: x}
	if x.Err != nil {
		return m
	}
	runs := max(r.Runs, 1)
	billed := x.Stats.ElapsedMillis
	if m.Aborted {
		billed = x.Budget
	}
	m.SimulatedWorkMillis = billed * float64(runs)
	for i := 0; i < runs; i++ {
		elapsed := x.Stats.ElapsedMillis
		if r.NoiseRNG != nil && r.Noise > 0 {
			noise := 1 + r.NoiseRNG.Float64()*0.04*r.Noise
			if r.NoiseRNG.Float64() < 0.12 {
				noise *= 1 + (1.5+r.NoiseRNG.Float64())*r.Noise
			}
			elapsed *= noise
		}
		m.Runs = append(m.Runs, elapsed)
	}
	m.PhysicalReads = x.Stats.PhysicalReads
	m.LogicalReads = x.Stats.LogicalReads
	m.CPURows = x.Stats.CPURows
	m.SortHeapPages = x.Stats.SortHeapPages
	m.Prospective = kmeans.Prospective(m.Runs)
	m.MeanMillis = kmeans.Mean(m.Prospective)
	return m
}

// Rank measures every plan and returns the measurements with the best plan
// first. Ties within 2% of elapsed time are broken by physical reads, then
// CPU rows, then sort-heap usage.
func (r *Ranker) Rank(plans []*qgm.Plan, q *sqlparser.Query) []Measurement {
	ms := make([]Measurement, 0, len(plans))
	for _, p := range plans {
		ms = append(ms, r.Measure(p, q))
	}
	sortMeasurements(ms)
	return ms
}

func sortMeasurements(ms []Measurement) {
	unranked := func(m *Measurement) bool { return m.Err != nil || m.Aborted }
	less := func(a, b *Measurement) bool {
		if unranked(a) || unranked(b) {
			return !unranked(a)
		}
		hi := max(a.MeanMillis, b.MeanMillis)
		if hi > 0 && math.Abs(a.MeanMillis-b.MeanMillis)/hi > tieBand {
			return a.MeanMillis < b.MeanMillis
		}
		if a.PhysicalReads != b.PhysicalReads {
			return a.PhysicalReads < b.PhysicalReads
		}
		if a.CPURows != b.CPURows {
			return a.CPURows < b.CPURows
		}
		if a.SortHeapPages != b.SortHeapPages {
			return a.SortHeapPages < b.SortHeapPages
		}
		return a.MeanMillis < b.MeanMillis
	}
	// Insertion sort keeps this dependency-free and stable for small slices.
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && less(&ms[j], &ms[j-1]); j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}
