package learning

import (
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
	// Err records an execution failure (the plan is then unrankable).
	Err error
}

// Ranker executes candidate plans repeatedly, removes anomalous runs with
// k-means clustering and ranks plans by mean elapsed time, breaking ties with
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
	// Runs is the number of repetitions per plan.
	Runs int
	// Noise scales the optional measurement jitter; 0 (the default) keeps
	// measurements deterministic, 1.0 reproduces a noisy shared host.
	Noise float64
	// NoiseRNG drives the jitter deterministically; nil disables it even when
	// Noise is set.
	NoiseRNG *rand.Rand
}

// Measure runs one plan and returns its measurement.
func (r *Ranker) Measure(plan *qgm.Plan, q *sqlparser.Query) Measurement {
	runs := r.Runs
	if runs < 1 {
		runs = 1
	}
	m := Measurement{Plan: plan}
	for i := 0; i < runs; i++ {
		stats, err := r.Exec.Run(plan, q)
		if err != nil {
			m.Err = err
			return m
		}
		elapsed := stats.ElapsedMillis
		m.SimulatedWorkMillis += elapsed
		if r.NoiseRNG != nil && r.Noise > 0 {
			noise := 1 + r.NoiseRNG.Float64()*0.04*r.Noise
			if r.NoiseRNG.Float64() < 0.12 {
				noise *= 1 + (1.5+r.NoiseRNG.Float64())*r.Noise
			}
			elapsed *= noise
		}
		m.Runs = append(m.Runs, elapsed)
		if i == 0 {
			m.PhysicalReads = stats.PhysicalReads
			m.LogicalReads = stats.LogicalReads
			m.CPURows = stats.CPURows
			m.SortHeapPages = stats.SortHeapPages
		}
	}
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
	less := func(a, b Measurement) bool {
		if a.Err != nil || b.Err != nil {
			return a.Err == nil
		}
		hi := a.MeanMillis
		if b.MeanMillis > hi {
			hi = b.MeanMillis
		}
		if hi > 0 && absF(a.MeanMillis-b.MeanMillis)/hi > 0.02 {
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
		for j := i; j > 0 && less(ms[j], ms[j-1]); j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

func absF(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
