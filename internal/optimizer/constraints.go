package optimizer

import (
	"strings"

	"galo/internal/guideline"
	"galo/internal/qgm"
)

// accessConstraint forces the access method (and optionally the index) used
// for one table instance.
type accessConstraint struct {
	instance string
	method   qgm.OpType // OpTBSCAN, or OpIXSCAN meaning "index access"
	index    string
}

// joinConstraint forces one join: the quantifiers of all (bitmasks over
// planCtx.quants) must be joined with method, with outer as the first input
// and inner as the second.
type joinConstraint struct {
	method       qgm.OpType
	outer, inner uint64
	all          uint64
}

// constraintSet is the combination of constraints from the active guidelines.
type constraintSet struct {
	access map[string]accessConstraint
	joins  []joinConstraint
}

// allowsJoin reports whether joining left (outer) and right (inner) with the
// given method is compatible with the constraints for the combined set.
func (c constraintSet) allowsJoin(set, left, right uint64, method qgm.OpType) bool {
	for _, jc := range c.joins {
		if jc.all == set && (jc.method != method || jc.outer != left || jc.inner != right) {
			return false
		}
	}
	return true
}

// allowsPartition reports whether splitting set into (left, right) keeps every
// constrained sub-join intact: a guideline join over a subset of set must not
// be split across the two inputs, otherwise it could never be built.
func (c constraintSet) allowsPartition(set, left, right uint64) bool {
	for _, jc := range c.joins {
		if jc.all&^set == 0 && jc.all != set && jc.all&^left != 0 && jc.all&^right != 0 {
			return false
		}
	}
	return true
}

// guidelineConstraints is the decomposition of one top-level guideline.
type guidelineConstraints struct {
	access  []accessConstraint
	joins   []joinConstraint
	invalid bool // references instances or tables not present in the query
}

// satisfiedBy checks whether the final plan honours every constraint of the
// guideline.
func (g guidelineConstraints) satisfiedBy(root *qgm.Node, pc *planCtx) bool {
	if g.invalid || root == nil {
		return false
	}
	for _, ac := range g.access {
		if !accessSatisfied(root, ac) {
			return false
		}
	}
	for _, jc := range g.joins {
		if !pc.joinSatisfied(root, jc) {
			return false
		}
	}
	return true
}

func accessSatisfied(root *qgm.Node, ac accessConstraint) bool {
	ok := false
	root.Walk(func(n *qgm.Node) {
		if ok || !n.Op.IsScan() || !strings.EqualFold(n.TableInstance, ac.instance) {
			return
		}
		switch ac.method {
		case qgm.OpTBSCAN:
			ok = n.Op == qgm.OpTBSCAN
		default: // index access
			if n.Op != qgm.OpIXSCAN && n.Op != qgm.OpFETCH {
				return
			}
			ok = ac.index == "" || strings.EqualFold(ac.index, n.Index)
		}
	})
	return ok
}

// instance returns the quantifier with the given instance name (Q1..Qn).
func (pc *planCtx) instance(name string) *Quantifier {
	for _, qt := range pc.quants {
		if qt.Instance == name {
			return qt
		}
	}
	return nil
}

// nodeMask returns the quantifiers the subtree reads.
func (pc *planCtx) nodeMask(n *qgm.Node) uint64 {
	var mask uint64
	n.Walk(func(x *qgm.Node) {
		if qt := pc.instance(x.TableInstance); qt != nil {
			mask |= qt.bit
		}
	})
	return mask
}

func (pc *planCtx) joinSatisfied(root *qgm.Node, jc joinConstraint) bool {
	ok := false
	root.Walk(func(n *qgm.Node) {
		if ok || !n.Op.IsJoin() || n.Op != jc.method {
			return
		}
		if n.Outer == nil || n.Inner == nil {
			return
		}
		ok = pc.nodeMask(n.Outer) == jc.outer && pc.nodeMask(n.Inner) == jc.inner
	})
	return ok
}

// buildConstraints decomposes the guideline document (if any) against the
// query's quantifiers, one entry per top-level guideline; filterConstraints
// combines the still-active ones for a planning attempt.
func (pc *planCtx) buildConstraints() []guidelineConstraints {
	doc := pc.o.Opts.Guidelines
	if doc.Empty() {
		return nil
	}
	tableToInstances := map[string][]*Quantifier{}
	for _, qt := range pc.quants {
		tbl := strings.ToUpper(qt.Ref.Table)
		tableToInstances[tbl] = append(tableToInstances[tbl], qt)
	}
	resolveInstance := func(e *guideline.Element) *Quantifier {
		if e.TabID != "" {
			return pc.instance(strings.ToUpper(e.TabID))
		}
		if insts := tableToInstances[strings.ToUpper(e.Table)]; e.Table != "" && len(insts) == 1 {
			return insts[0]
		}
		return nil
	}

	perGuideline := make([]guidelineConstraints, len(doc.Guidelines))
	for gi, g := range doc.Guidelines {
		gc := &perGuideline[gi]
		// collect returns the quantifiers under e, 0 once the guideline is invalid.
		var collect func(e *guideline.Element) uint64
		collect = func(e *guideline.Element) uint64 {
			if gc.invalid || e == nil {
				return 0
			}
			if e.IsAccess() {
				qt := resolveInstance(e)
				if qt == nil {
					gc.invalid = true
					return 0
				}
				method := qgm.OpTBSCAN
				if e.Op == guideline.ElemIXSCAN {
					method = qgm.OpIXSCAN
				}
				gc.access = append(gc.access, accessConstraint{instance: qt.Instance, method: method, index: e.Index})
				return qt.bit
			}
			// Join element.
			if len(e.Children) != 2 {
				gc.invalid = true
				return 0
			}
			outer := collect(e.Children[0])
			inner := collect(e.Children[1])
			if gc.invalid {
				return 0
			}
			method := qgm.OpHSJOIN
			switch e.Op {
			case guideline.ElemNLJOIN:
				method = qgm.OpNLJOIN
			case guideline.ElemMSJOIN:
				method = qgm.OpMSJOIN
			}
			gc.joins = append(gc.joins, joinConstraint{method: method, outer: outer, inner: inner, all: outer | inner})
			return outer | inner
		}
		collect(g)
	}
	return perGuideline
}

// filterConstraints combines the constraints of the guidelines that are still
// active and valid.
func filterConstraints(perGuideline []guidelineConstraints, active []bool) constraintSet {
	var out constraintSet
	for i, gc := range perGuideline {
		if gc.invalid || !active[i] {
			continue
		}
		for _, ac := range gc.access {
			if out.access == nil {
				out.access = map[string]accessConstraint{}
			}
			out.access[ac.instance] = ac
		}
		out.joins = append(out.joins, gc.joins...)
	}
	return out
}
