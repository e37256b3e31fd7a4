package qgm

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
)

// instanceNames holds the names of the first 64 table instances, as many as
// the optimizer plans in one query.
var instanceNames = func() (names [64]string) {
	for i := range names {
		names[i] = "Q" + strconv.Itoa(i+1)
	}
	return names
}()

// InstanceName returns the name of the table instance at position i (from 0)
// of a query's FROM clause: Q1, Q2, ... — the TABID plans and guidelines use.
func InstanceName(i int) string {
	if i < len(instanceNames) {
		return instanceNames[i]
	}
	return "Q" + strconv.Itoa(i+1)
}

// Plan is a complete query execution plan: a tree of LOLEPOPs rooted at a
// RETURN operator, plus whole-plan properties.
type Plan struct {
	Root *Node
	// QueryName labels the originating workload query (e.g. "TPCDS.Q08").
	QueryName string
	// TotalCost is the optimizer's cumulative cost estimate in timerons.
	TotalCost float64
	// EstimatedMillis is the optimizer's runtime estimate.
	EstimatedMillis float64
	// ActualMillis is filled after execution.
	ActualMillis float64
}

// NewPlan wraps a root operator into a Plan, adding a RETURN node on top if
// one is not already present, and assigns operator IDs.
func NewPlan(root *Node) *Plan {
	if root == nil {
		return &Plan{}
	}
	if root.Op != OpRETURN {
		root = &Node{Op: OpRETURN, Outer: root, EstCardinality: root.EstCardinality, EstCost: root.EstCost}
	}
	p := &Plan{Root: root, TotalCost: root.EstCost}
	p.AssignIDs()
	return p
}

// AssignIDs numbers the operators the way DB2's explain output does: the
// RETURN is #1 and the remaining operators are numbered in pre-order
// (outer before inner).
func (p *Plan) AssignIDs() {
	if p.Root == nil {
		return
	}
	id := 0
	p.Root.Walk(func(n *Node) {
		id++
		n.ID = id
	})
}

// Clone deep-copies the plan.
func (p *Plan) Clone() *Plan {
	if p == nil {
		return nil
	}
	cp := *p
	cp.Root = p.Root.Clone()
	return &cp
}

// Operators returns all LOLEPOPs in pre-order.
func (p *Plan) Operators() []*Node {
	var out []*Node
	if p.Root != nil {
		p.Root.Walk(func(n *Node) { out = append(out, n) })
	}
	return out
}

// NumJoins returns the number of join operators in the plan.
func (p *Plan) NumJoins() int {
	if p.Root == nil {
		return 0
	}
	return p.Root.CountJoins()
}

// TableInstances returns the table-instance map of the whole plan.
func (p *Plan) TableInstances() map[string]string {
	if p.Root == nil {
		return map[string]string{}
	}
	return p.Root.TableInstances()
}

// Signature returns the structural fingerprint of the whole plan.
func (p *Plan) Signature() string {
	if p.Root == nil {
		return ""
	}
	return p.Root.Signature()
}

// ResetActuals clears the execution annotations (per-operator ActMillis and
// ActCardinality, and the plan's ActualMillis) so a re-execution — or one a
// bounded consumer stopped early, leaving deep operators unvisited — never
// reads a previous run's actuals into MaxEstimationGap.
func (p *Plan) ResetActuals() {
	if p == nil {
		return
	}
	p.ActualMillis = 0
	if p.Root == nil {
		return
	}
	p.Root.Walk(func(n *Node) {
		n.ActMillis = 0
		n.ActCardinality = 0
	})
}

// MaxEstimationGap returns the largest per-operator ratio between actual and
// estimated cardinality over the operators the executor ran (ActMillis set),
// in whichever direction the estimate erred; 1 means every estimate was
// exact, and plans that never executed report 1. This is the signal the
// online learning loop triggers on: a plan whose runtime truth diverged from
// the optimizer's beliefs is a candidate problem pattern.
func (p *Plan) MaxEstimationGap() float64 {
	worst := 1.0
	if p == nil || p.Root == nil {
		return worst
	}
	p.Root.Walk(func(n *Node) {
		if n.ActMillis <= 0 {
			return
		}
		est := n.EstCardinality
		if est < 1 {
			est = 1
		}
		act := n.ActCardinality
		if act < 1 {
			act = 1
		}
		ratio := act / est
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > worst {
			worst = ratio
		}
	})
	return worst
}

// EstPeakResidencyBytes estimates the peak intermediate-row residency of
// executing the plan, in bytes: the sum over pipeline breakers of the rows
// they buffer (join builds hold the inner input, SORT holds its input, GRPBY
// holds its distinct output). The executor's memory governor admits
// executions against this estimate. A sum (rather than a max over
// concurrently-live breakers) is deliberately conservative: a join holds its
// build side until the pipeline closes, so the builds of a join chain are
// resident at once.
func (p *Plan) EstPeakResidencyBytes() int64 {
	if p == nil || p.Root == nil {
		return 0
	}
	width := func(n *Node) float64 {
		if n == nil || n.RowSize <= 0 {
			return 64
		}
		return float64(n.RowSize)
	}
	card := func(n *Node) float64 {
		if n == nil || n.EstCardinality < 1 {
			return 1
		}
		return n.EstCardinality
	}
	var total float64
	p.Root.Walk(func(n *Node) {
		switch {
		case n.Op.IsJoin() && n.Op != OpNLJOIN:
			// Hash build / merge buffer holds the inner input.
			total += card(n.Inner) * width(n.Inner)
		case n.Op == OpSORT:
			total += card(n.Outer) * width(n.Outer)
		case n.Op == OpGRPBY:
			// Key set: output rows plus per-entry map overhead.
			total += card(n) * (width(n) + 24)
		}
	})
	const maxEst = 1 << 40 // clamp runaway estimates to 1 TiB
	if total > maxEst {
		total = maxEst
	}
	return int64(total)
}

// Validate checks structural invariants: joins have two children, scans have
// none, unary operators have exactly one, IDs are unique, and every scan
// names a table and instance.
func (p *Plan) Validate() error {
	if p.Root == nil {
		return fmt.Errorf("qgm: plan has no root")
	}
	if p.Root.Op != OpRETURN {
		return fmt.Errorf("qgm: plan root must be RETURN, got %s", p.Root.Op)
	}
	seen := map[int]bool{}
	var err error
	p.Root.Walk(func(n *Node) {
		if err != nil {
			return
		}
		if seen[n.ID] {
			err = fmt.Errorf("qgm: duplicate operator ID %d", n.ID)
			return
		}
		seen[n.ID] = true
		switch {
		case n.Op.IsJoin():
			if n.Outer == nil || n.Inner == nil {
				err = fmt.Errorf("qgm: join %s(%d) must have two inputs", n.Op, n.ID)
			}
		case n.Op.IsScan():
			if n.Outer != nil || n.Inner != nil {
				err = fmt.Errorf("qgm: scan %s(%d) must be a leaf", n.Op, n.ID)
			}
			if n.Table == "" || n.TableInstance == "" {
				err = fmt.Errorf("qgm: scan %s(%d) missing table or instance", n.Op, n.ID)
			}
			if (n.Op == OpIXSCAN || n.Op == OpFETCH) && n.Index == "" {
				err = fmt.Errorf("qgm: %s(%d) missing index name", n.Op, n.ID)
			}
		default:
			if n.Outer == nil || n.Inner != nil {
				err = fmt.Errorf("qgm: %s(%d) must have exactly one input", n.Op, n.ID)
			}
		}
	})
	return err
}

// SubPlan describes one contiguous fragment of a plan considered for
// matching or learning: the subtree rooted at Root.
type SubPlan struct {
	Root  *Node
	Joins int
	Ops   int
}

// EnumerateSubPlans returns the sub-QGMs of the plan: every subtree rooted at
// a join operator whose join count is between 1 and maxJoins. This is the
// segmentation the matching engine climbs (Section 3.3): fragments are
// considered bottom-up, capped by the same join-number threshold used during
// learning.
func (p *Plan) EnumerateSubPlans(maxJoins int) []SubPlan {
	if p.Root == nil {
		return nil
	}
	// One walk counts every subtree's joins and operators: a join node takes
	// its slot in pre-order on the way down and its counts on the way up.
	var out []SubPlan
	var count func(n *Node) (joins, ops int)
	count = func(n *Node) (joins, ops int) {
		if n == nil {
			return 0, 0
		}
		slot := -1
		if n.Op.IsJoin() {
			slot, joins = len(out), 1
			out = append(out, SubPlan{Root: n})
		}
		oj, oo := count(n.Outer)
		ij, io := count(n.Inner)
		joins, ops = joins+oj+ij, 1+oo+io
		if slot >= 0 {
			out[slot].Joins, out[slot].Ops = joins, ops
		}
		return joins, ops
	}
	count(p.Root)
	out = slices.DeleteFunc(out, func(s SubPlan) bool { return s.Joins > maxJoins })
	// Bottom-up order: smaller fragments first, then by operator ID for
	// determinism.
	slices.SortStableFunc(out, func(a, b SubPlan) int {
		if a.Joins != b.Joins {
			return cmp.Compare(a.Joins, b.Joins)
		}
		return cmp.Compare(b.Root.ID, a.Root.ID)
	})
	return out
}
