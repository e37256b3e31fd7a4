package learning

import (
	"math"

	"galo/internal/executor"
	"galo/internal/qgm"
)

// execution is one plan's one run — the paper's ranking module, with db2batch
// replaced by the executor's simulated runtime. The executor is a pure
// function of (plan, query, database), so each of a plan's Runs repetitions
// would time the same number: the plan is executed once and ranked on that
// run, and the repetitions are only billed (see billed).
type execution struct {
	Plan *qgm.Plan
	// Query is the variant the plan answers, prepared once for the baseline
	// and every alternative of it.
	Query *executor.Prepared
	// Budget is the simulated time the run was bounded to (0 = unbounded): a
	// plan booking more is aborted and billed Budget per repetition — what
	// db2batch under that timeout would have spent.
	Budget float64
	Stats  executor.RunStats
	Err    error

	wallMillis float64 // the wall time of the run
}

// billed is the simulated time runs repetitions of the execution would have
// cost, the quantity compared against experts in Exp-5: runs times its elapsed
// time, or runs times its budget when it was aborted there. A failed
// execution costs nothing.
func (x *execution) billed(runs int) float64 {
	if x.Err != nil {
		return 0
	}
	if x.Stats.Aborted {
		return x.Budget * float64(runs)
	}
	return x.Stats.ElapsedMillis * float64(runs)
}

// unranked reports whether the execution has no time to rank on: it failed,
// or it was stopped at its budget (its counters are partial and never
// compared).
func (x *execution) unranked() bool { return x.Err != nil || x.Stats.Aborted }

// tieBand is the relative elapsed-time difference below which sortExecutions
// breaks a tie on resource usage instead.
const tieBand = 0.02

// sortExecutions ranks executions best first by elapsed time. Ties within 2%
// are broken by physical reads, then CPU rows, then sort-heap usage; failed
// and aborted executions go last.
func sortExecutions(xs []*execution) {
	less := func(a, b *execution) bool {
		if a.unranked() || b.unranked() {
			return !a.unranked()
		}
		at, bt := a.Stats.ElapsedMillis, b.Stats.ElapsedMillis
		hi := max(at, bt)
		if hi > 0 && math.Abs(at-bt)/hi > tieBand {
			return at < bt
		}
		if a.Stats.PhysicalReads != b.Stats.PhysicalReads {
			return a.Stats.PhysicalReads < b.Stats.PhysicalReads
		}
		if a.Stats.CPURows != b.Stats.CPURows {
			return a.Stats.CPURows < b.Stats.CPURows
		}
		if a.Stats.SortHeapPages != b.Stats.SortHeapPages {
			return a.Stats.SortHeapPages < b.Stats.SortHeapPages
		}
		return at < bt
	}
	// Insertion sort keeps this dependency-free and stable for small slices.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
