package optimizer

import (
	"fmt"
	"strings"

	"galo/internal/qgm"
	"galo/internal/sqlparser"
)

// Spec describes an explicit plan shape: a binary tree of joins over base
// table accesses. Specs are how the Random Plan Generator (internal/randplan)
// and tests ask the optimizer to cost and materialize a particular plan
// without running enumeration.
type Spec struct {
	// Access is set on leaves.
	Access *AccessSpec
	// Method, Outer, Inner are set on join nodes.
	Method qgm.OpType
	Outer  *Spec
	Inner  *Spec
}

// AccessSpec names a table reference and how to read it.
type AccessSpec struct {
	// Ref is the FROM reference name (alias when present, table name
	// otherwise).
	Ref string
	// Method is OpTBSCAN, OpIXSCAN or OpFETCH; empty means "cheapest".
	Method qgm.OpType
	// Index optionally names the index for index accesses.
	Index string
}

// Leaf returns a leaf spec for the given reference.
func Leaf(ref string) *Spec { return &Spec{Access: &AccessSpec{Ref: ref}} }

// LeafAccess returns a leaf spec with an explicit access method.
func LeafAccess(ref string, method qgm.OpType, index string) *Spec {
	return &Spec{Access: &AccessSpec{Ref: ref, Method: method, Index: index}}
}

// Join returns a join spec node.
func Join(method qgm.OpType, outer, inner *Spec) *Spec {
	return &Spec{Method: method, Outer: outer, Inner: inner}
}

// Refs returns the reference names used by the spec, in-order.
func (s *Spec) Refs() []string {
	if s == nil {
		return nil
	}
	if s.Access != nil {
		return []string{strings.ToUpper(s.Access.Ref)}
	}
	return append(s.Outer.Refs(), s.Inner.Refs()...)
}

// Validate checks the spec covers every FROM reference of the query exactly
// once.
func (s *Spec) Validate(q *sqlparser.Query) error {
	refs := s.Refs()
	seen := map[string]int{}
	for _, r := range refs {
		seen[r]++
	}
	if len(refs) != len(q.From) {
		return fmt.Errorf("optimizer: spec covers %d references, query has %d", len(refs), len(q.From))
	}
	for _, tr := range q.From {
		name := strings.ToUpper(tr.Name())
		if seen[name] != 1 {
			return fmt.Errorf("optimizer: spec must reference %s exactly once (found %d)", name, seen[name])
		}
	}
	return nil
}

// BuildPlan materializes the plan described by the spec for the query,
// costing it with the optimizer's estimator. The resulting plan is annotated
// with estimated cardinalities and costs exactly like an enumerated plan, so
// it can be compared or executed directly.
func (o *Optimizer) BuildPlan(q *sqlparser.Query, spec *Spec) (*qgm.Plan, error) {
	if spec == nil {
		return nil, fmt.Errorf("optimizer: nil plan spec")
	}
	p, err := o.Prepare(q)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(&p.q); err != nil {
		return nil, err
	}
	pc := o.newPlanCtx(p)
	defer pc.release()
	cand, err := pc.buildSpecCand(spec)
	if err != nil {
		return nil, err
	}
	return o.finishPlan(p, pc.node(cand)), nil
}

// buildSpecCand costs the spec bottom-up and returns the slab index of its
// root candidate.
func (pc *planCtx) buildSpecCand(spec *Spec) (int32, error) {
	if spec.Access != nil {
		i := pc.quant(strings.ToUpper(spec.Access.Ref))
		if i < 0 {
			return 0, fmt.Errorf("optimizer: spec references unknown table %s", spec.Access.Ref)
		}
		qt := pc.quants[i]
		paths := pc.accessPaths(qt)
		var chosen *accessPath
		for i := range paths {
			p := &paths[i]
			if spec.Access.Method != "" {
				if p.op() != spec.Access.Method {
					// Treat IXSCAN/FETCH as interchangeable requests for
					// "index access" as guidelines do.
					wantIdx := spec.Access.Method == qgm.OpIXSCAN || spec.Access.Method == qgm.OpFETCH
					haveIdx := p.usesIndex()
					if !wantIdx || !haveIdx {
						continue
					}
				}
				if spec.Access.Index != "" && (!p.usesIndex() || !strings.EqualFold(spec.Access.Index, qt.Table.Indexes[p.index].Name)) {
					continue
				}
			}
			if chosen == nil || p.cost < chosen.cost {
				chosen = p
			}
		}
		if chosen == nil {
			return 0, fmt.Errorf("optimizer: no access path matches spec %+v for %s", spec.Access, qt.Ref.Name())
		}
		return pc.accessCand(qt, *chosen), nil
	}
	if spec.Outer == nil || spec.Inner == nil || !spec.Method.IsJoin() {
		return 0, fmt.Errorf("optimizer: malformed spec node (method=%q)", spec.Method)
	}
	li, err := pc.buildSpecCand(spec.Outer)
	if err != nil {
		return 0, err
	}
	ri, err := pc.buildSpecCand(spec.Inner)
	if err != nil {
		return 0, err
	}
	left, right := pc.cand(li), pc.cand(ri)
	sp := pc.split(left.mask, right.mask)
	var jc planCand
	if !pc.buildJoinCand(&jc, spec.Method, left, right, &sp) {
		return 0, fmt.Errorf("optimizer: %s is not applicable to this input combination", spec.Method)
	}
	return pc.pushJoin(&jc, li, ri), nil
}
