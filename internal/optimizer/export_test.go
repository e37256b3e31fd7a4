package optimizer

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"galo/internal/catalog"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
)

// RaceDetector is set by race_test.go. Under the race detector sync.Pool drops
// a quarter of what is Put, on purpose, so allocations per call measure the
// detector.
var RaceDetector bool

// The tests that plan over the TPC-DS workload are external (package
// optimizer_test): the workload package reaches this one through the scenario
// contract. What they inspect of the planner's internals is exported below.
const (
	DefaultEqSel  = defaultEqSel
	MaxKeptChunks = maxKeptChunks
	MaxKeptTable  = maxKeptTable
)

// PlanCand is the candidate slab's element type.
type PlanCand = planCand

func (o *Optimizer) PredicateSelectivity(ts *catalog.TableStats, p sqlparser.Predicate) float64 {
	return o.predicateSelectivity(ts, p)
}

func (o *Optimizer) LocalSelectivity(table string, preds []*sqlparser.Predicate) float64 {
	return o.localSelectivity(table, preds)
}

// InterestingOrders returns p's interesting orders in id order, and the id
// ordOf finds for each.
func InterestingOrders(p *Prepared) (names []string, ids []int32) {
	for _, k := range p.orders {
		names, ids = append(names, k.String()), append(ids, p.ordOf(k))
	}
	return names, ids
}

// UnboundedPeakChunks searches p's dynamic program without a bound and returns
// the most slab chunks it held, then releases its arena to the pool.
func UnboundedPeakChunks(o *Optimizer, p *Prepared) (int, error) {
	pc := o.newPlanCtx(p)
	defer pc.release()
	_, _, err := pc.dpEnumerate(math.Inf(1))
	return len(pc.slab), err
}

// PooledArena takes an arena out of the pool, for good, and returns how many
// chunks and table entries it keeps.
func PooledArena() (chunks, tableEntries int) {
	a := arenaPool.Get().(*planArena)
	return len(a.slab), cap(a.table.slots)
}

// Rewrite runs the rewrite tier over a resolved query, in place, and returns
// its notes as a report reads them.
func Rewrite(o *Optimizer, q *sqlparser.Query) []string {
	return (&Report{notes: o.rewrite(q, nil), where: q.Where}).RewriteNotes()
}

// Unbounded is a query planned by UnboundedSearch.
type Unbounded struct {
	Plan   *qgm.Plan
	Report *Report
	Err    error
	// DP is false, and nothing was planned, for a query the dynamic program
	// does not plan: one table, or more than JoinEnumDPLimit.
	DP bool
	// Pruned counts the attempts whose search at the greedy bound pruned every
	// plan: where enumerateWith's safety net searches again.
	Pruned int
}

// UnboundedSearch plans a prepared query as OptimizePrepared does, but with
// every dynamic program unbounded: it replays enumerate's drop-and-retry loop
// one attempt at a time. Each attempt's dynamic program also runs at the
// greedy bound, and unless the bound pruned every plan it must come out
// identical — the plan, every estimate and the error — in at most as many
// considered combinations; and its reach must say of every subset exactly
// whether the unbounded search froze a list for it.
func UnboundedSearch(t testing.TB, o *Optimizer, p *Prepared) Unbounded {
	t.Helper()
	if n := len(p.quants); n < 2 || n > o.Opts.JoinEnumDPLimit {
		return Unbounded{}
	}
	pc := o.newPlanCtx(p)
	defer pc.release()
	perGuideline := pc.buildConstraints()
	active := make([]bool, len(perGuideline))
	for i := range active {
		active[i] = true
	}
	out := Unbounded{Report: &Report{UsedDP: true, notes: p.notes, where: p.q.Where}, DP: true}
	for attempt := 0; ; attempt++ {
		pc.cons = filterConstraints(perGuideline, active)
		bound := pc.greedyBound()
		root, considered, err := pc.dpEnumerate(bound)
		pruned, bounded := errors.Is(err, errPruned), renderSearch(o, p, root, err)
		reach := slices.Clone(pc.table.reach)
		root, all, err := pc.dpEnumerate(math.Inf(1))
		for s, r := range reach {
			if planned := pc.table.frozen[s] != 0; r != planned && s != 0 {
				t.Errorf("%s attempt %d: reach[%b] is %v at bound %v, and the unbounded search planned it: %v", p.q.Name, attempt, s, r, bound, planned)
			}
		}
		switch unbounded := renderSearch(o, p, root, err); {
		case pruned:
			out.Pruned++
		case bounded != unbounded:
			t.Errorf("%s attempt %d: the search at bound %v differs from the unbounded one\nbounded:\n%s\nunbounded:\n%s", p.q.Name, attempt, bound, bounded, unbounded)
		case considered > all:
			t.Errorf("%s attempt %d: %d combinations considered at bound %v, %d unbounded", p.q.Name, attempt, considered, bound, all)
		}
		out.Report.PlansConsidered += all
		if err == nil {
			pc.reportGuidelineOutcome(root, perGuideline, active, out.Report)
			out.Plan = o.finishPlan(p, root)
			return out
		}
		last := len(active) - 1
		for last >= 0 && !active[last] {
			last--
		}
		if last < 0 {
			out.Report, out.Err = nil, err
			return out
		}
		active[last] = false
	}
}

// renderSearch renders one dynamic program's outcome: the plan text and the
// bits of every operator's estimates, or the error.
func renderSearch(o *Optimizer, p *Prepared, root *qgm.Node, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	plan := o.finishPlan(p, root)
	out := qgm.Format(plan)
	plan.Root.Walk(func(n *qgm.Node) {
		out += fmt.Sprintf("%d cost=%016x card=%016x\n", n.ID, math.Float64bits(n.EstCost), math.Float64bits(n.EstCardinality))
	})
	return out
}

// SQL renders the query as planned: resolved, and rewritten by the first tier.
func (p *Prepared) SQL() string { return p.q.SQL() }

// RewriteNotes describes the tier-1 rewrites that fired, nil for none. The
// notes are rendered on every call, into a slice the caller owns.
func (r *Report) RewriteNotes() []string {
	if len(r.notes) == 0 {
		return nil
	}
	out := make([]string, len(r.notes))
	for i, n := range r.notes {
		out[i] = n.render(r.where)
	}
	return out
}

// render writes the note as Report.RewriteNotes reads it.
func (n rewriteNote) render(where []sqlparser.Predicate) string {
	switch n.kind {
	case noteDuplicate:
		return "removed duplicate predicate " + where[n.pred].String()
	case noteInferred:
		return "inferred " + where[n.pred].String() + " from " + where[n.join].String() + " and " + where[n.local].String()
	default:
		return "predicate " + where[n.pred].String() + " can never be satisfied"
	}
}
