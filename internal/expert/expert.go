// Package expert simulates the manual problem determination the paper
// compares GALO against in Exp-5 and Exp-6: an experienced engineer reading
// the QGM, trying a handful of local plan changes (swap a join's inputs,
// change a join method, change an access method) and measuring them, with a
// limited exploration budget and a realistic chance of misreading the plan
// (the paper notes decimal vs exponential cardinality formats were a common
// source of confusion).
//
// The real study used four IBM experts; this simulation stands in for them so
// the cost (Figure 13) and quality (Figure 14) comparisons can be
// regenerated.
package expert

import (
	"math/rand"

	"galo/internal/executor"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// Options configures the simulated expert.
type Options struct {
	// Budget is how many alternative plans the expert is willing to try by
	// hand before settling.
	Budget int
	// AnalysisMinutesPerPlan is the manual effort (reading the QGM, editing
	// guidelines, re-running, comparing) charged per alternative examined.
	AnalysisMinutesPerPlan float64
	// MisreadProbability is the chance the expert misreads a plan property
	// and discards a genuinely better alternative.
	MisreadProbability float64
	// Seed drives the expert's (deterministic) choices.
	Seed int64
}

// DefaultOptions models a capable but time-constrained expert.
func DefaultOptions() Options {
	return Options{Budget: 6, AnalysisMinutesPerPlan: 45, MisreadProbability: 0.25, Seed: 42}
}

// Result is the outcome of one manual diagnosis.
type Result struct {
	// Found reports whether the expert found any plan better than the
	// optimizer's.
	Found bool
	// BestPlan is the best plan the expert settled on (the optimizer's plan
	// when nothing better was found).
	BestPlan *qgm.Plan
	// Improvement is the relative runtime improvement over the optimizer's
	// plan (0 when none).
	Improvement float64
	// PlansExamined is how many alternatives were tried.
	PlansExamined int
	// ManualMinutes is the simulated human effort spent.
	ManualMinutes float64
	// MachineMillis is the simulated execution time of the plans that were
	// run while diagnosing.
	MachineMillis float64
}

// Expert simulates one engineer.
type Expert struct {
	DB   *storage.Database
	Opts Options
}

// New returns a simulated expert over the database.
func New(db *storage.Database, opts Options) *Expert {
	if opts.Budget <= 0 {
		opts.Budget = 6
	}
	return &Expert{DB: db, Opts: opts}
}

// Diagnose performs the manual tuning session for one query.
func (e *Expert) Diagnose(q *sqlparser.Query) (*Result, error) {
	opt := optimizer.New(e.DB.Catalog, optimizer.DefaultOptions())
	exec := executor.New(e.DB)
	rng := rand.New(rand.NewSource(e.Opts.Seed + int64(len(q.SQL()))))

	baseline, _, err := opt.Optimize(q)
	if err != nil {
		return nil, err
	}
	prep, err := exec.Prepare(q)
	if err != nil {
		return nil, err
	}
	baseRes, err := prep.Execute(baseline)
	if err != nil {
		return nil, err
	}
	res := &Result{BestPlan: baseline, MachineMillis: baseRes.Stats.ElapsedMillis}
	bestMillis := baseRes.Stats.ElapsedMillis

	alternatives := e.alternatives(q, baseline, rng)
	for _, alt := range alternatives {
		if res.PlansExamined >= e.Opts.Budget {
			break
		}
		plan, err := opt.BuildPlan(q, alt)
		if err != nil {
			continue
		}
		res.PlansExamined++
		res.ManualMinutes += e.Opts.AnalysisMinutesPerPlan
		run, err := prep.Execute(plan)
		if err != nil {
			continue
		}
		res.MachineMillis += run.Stats.ElapsedMillis
		if run.Stats.ElapsedMillis < bestMillis {
			// The expert sometimes misreads the comparison (e.g. confusing
			// 1.441e+06 with 1.441) and discards the better plan.
			if rng.Float64() < e.Opts.MisreadProbability {
				continue
			}
			bestMillis = run.Stats.ElapsedMillis
			res.BestPlan = plan
			res.Found = true
		}
	}
	if res.Found && baseRes.Stats.ElapsedMillis > 0 {
		res.Improvement = (baseRes.Stats.ElapsedMillis - bestMillis) / baseRes.Stats.ElapsedMillis
	}
	// Reading the original QGM and writing up findings costs time even when
	// nothing is tried.
	res.ManualMinutes += e.Opts.AnalysisMinutesPerPlan
	return res, nil
}

// alternatives enumerates the local tweaks an expert typically tries: flip
// the join order of the topmost joins, switch join methods, and force table
// scans instead of index access.
func (e *Expert) alternatives(q *sqlparser.Query, baseline *qgm.Plan, rng *rand.Rand) []*optimizer.Spec {
	refs := make([]string, len(q.From))
	for i, tr := range q.From {
		refs[i] = tr.Name()
	}
	if len(refs) < 2 {
		return nil
	}
	var specs []*optimizer.Spec
	methods := []qgm.OpType{qgm.OpHSJOIN, qgm.OpMSJOIN, qgm.OpNLJOIN}
	// Left-deep plans over the original reference order and one shuffled
	// order, with each join method, plus a "force table scans" variant.
	orders := [][]string{refs}
	shuffled := append([]string(nil), refs...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	orders = append(orders, shuffled)
	for _, order := range orders {
		for _, m := range methods {
			specs = append(specs, leftDeep(order, m, false))
		}
		specs = append(specs, leftDeep(order, qgm.OpHSJOIN, true))
	}
	_ = baseline
	return specs
}

func leftDeep(order []string, method qgm.OpType, forceScans bool) *optimizer.Spec {
	leaf := func(ref string) *optimizer.Spec {
		if forceScans {
			return optimizer.LeafAccess(ref, qgm.OpTBSCAN, "")
		}
		return optimizer.Leaf(ref)
	}
	tree := leaf(order[0])
	for _, ref := range order[1:] {
		tree = optimizer.Join(method, tree, leaf(ref))
	}
	return tree
}
