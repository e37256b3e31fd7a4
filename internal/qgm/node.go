// Package qgm implements the Query Graph Model: the plan representation the
// minidb optimizer produces and GALO manipulates.
//
// As in IBM DB2, a plan is a tree of low-level plan operators (LOLEPOPs) such
// as TBSCAN, IXSCAN, HSJOIN or MSJOIN, each annotated with the optimizer's
// estimated cardinality and cost, and — after execution — with the runtime
// actuals. The paper's Figures 1, 4, 7 and 8 are drawings of such trees; this
// package can render the same shape as text (see Format).
package qgm

import (
	"fmt"
	"sort"
	"strings"
)

// OpType identifies a LOLEPOP operator.
type OpType string

// Operator types. The names follow DB2's LOLEPOP vocabulary used in the
// paper.
const (
	OpTBSCAN OpType = "TBSCAN"   // full table scan
	OpIXSCAN OpType = "IXSCAN"   // index-only / index-driven scan
	OpFETCH  OpType = "F-IXSCAN" // fetch rows via an index (FETCH over IXSCAN)
	OpNLJOIN OpType = "NLJOIN"   // nested-loop join
	OpHSJOIN OpType = "HSJOIN"   // hash join
	OpMSJOIN OpType = "MSJOIN"   // sort-merge join
	OpSORT   OpType = "SORT"     // explicit sort (rendered TB-SORT when read by a scan)
	OpFILTER OpType = "FILTER"   // residual predicate application
	OpGRPBY  OpType = "GRPBY"    // grouping / aggregation
	OpRETURN OpType = "RETURN"   // plan root
)

// IsJoin reports whether the operator is one of the three join methods.
func (o OpType) IsJoin() bool {
	return o == OpNLJOIN || o == OpHSJOIN || o == OpMSJOIN
}

// IsScan reports whether the operator reads a base table.
func (o OpType) IsScan() bool {
	return o == OpTBSCAN || o == OpIXSCAN || o == OpFETCH
}

var joinMethods = [...]OpType{OpNLJOIN, OpHSJOIN, OpMSJOIN}

// JoinMethods lists the join operators in a stable order. The slice is
// shared (the enumerator asks once per candidate pair): read it, do not
// modify it.
func JoinMethods() []OpType { return joinMethods[:len(joinMethods):len(joinMethods)] }

// Node is one LOLEPOP in a plan tree.
type Node struct {
	ID int
	Op OpType

	// Base-table access fields (scans only).
	Table         string // base table name, e.g. CATALOG_SALES
	TableInstance string // table reference / qualifier, e.g. Q4
	Index         string // index name for IXSCAN / F-IXSCAN

	// Estimated properties (set by the optimizer).
	EstCardinality float64
	EstCost        float64 // cumulative cost of the subtree, in timerons
	RowSize        int     // estimated output row width in bytes
	Pages          float64 // estimated pages touched by this operator

	// OrderedOn is the plan property naming the instance-qualified column
	// ("Qi.COL") the operator's output is sorted on, or "" when the output
	// carries no useful order. It is produced by index scans and SORTs,
	// preserved by joins that keep their outer input's order (HSJOIN, NLJOIN)
	// and claimed by MSJOIN for its merge column — which is how a merge join
	// proves sort-avoidance at plan time.
	OrderedOn string

	// Actual properties (set by the executor after a run).
	ActCardinality float64
	ActMillis      float64

	// Join-specific annotations.
	BloomFilter bool     // hash join builds a bloom filter on the inner
	EarlyOut    bool     // merge join may stop early on sorted inputs
	JoinCols    []string // "left=right" descriptions of the join predicate(s)

	// Predicates describes local predicates applied at this operator.
	Predicates []string

	// Children. Joins use Outer (first input) and Inner (second input);
	// unary operators use Outer only.
	Outer *Node
	Inner *Node
}

// Walk visits the subtree rooted at n in pre-order.
func (n *Node) Walk(fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	n.Outer.Walk(fn)
	n.Inner.Walk(fn)
}

// CountJoins returns the number of join operators in the subtree.
func (n *Node) CountJoins() int {
	count := 0
	n.Walk(func(x *Node) {
		if x.Op.IsJoin() {
			count++
		}
	})
	return count
}

// CountOps returns the number of LOLEPOPs in the subtree.
func (n *Node) CountOps() int {
	if n == nil {
		return 0
	}
	return 1 + n.Outer.CountOps() + n.Inner.CountOps()
}

// Tables returns the distinct base table names referenced in the subtree,
// sorted.
func (n *Node) Tables() []string {
	seen := map[string]struct{}{}
	n.Walk(func(x *Node) {
		if x.Table != "" {
			seen[x.Table] = struct{}{}
		}
	})
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// TableInstances returns instance → table name for every base-table access in
// the subtree.
func (n *Node) TableInstances() map[string]string {
	out := map[string]string{}
	n.Walk(func(x *Node) {
		if x.TableInstance != "" {
			out[x.TableInstance] = x.Table
		}
	})
	return out
}

// Scans returns the scan nodes of the subtree in pre-order.
func (n *Node) Scans() []*Node {
	var out []*Node
	n.Walk(func(x *Node) {
		if x.Op.IsScan() {
			out = append(out, x)
		}
	})
	return out
}

// Joins returns the join nodes of the subtree in pre-order.
func (n *Node) Joins() []*Node {
	var out []*Node
	n.Walk(func(x *Node) {
		if x.Op.IsJoin() {
			out = append(out, x)
		}
	})
	return out
}

// Find returns the first node in the subtree with the given operator ID.
func (n *Node) Find(id int) *Node {
	var found *Node
	n.Walk(func(x *Node) {
		if found == nil && x.ID == id {
			found = x
		}
	})
	return found
}

// Clone deep-copies the subtree.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	cp := *n
	cp.JoinCols = append([]string(nil), n.JoinCols...)
	cp.Predicates = append([]string(nil), n.Predicates...)
	cp.Outer = n.Outer.Clone()
	cp.Inner = n.Inner.Clone()
	return &cp
}

// OpLabel returns the operator label as drawn in the paper's figures:
// a SORT read by a table scan appears as TB-SORT.
func (n *Node) OpLabel() string {
	if n.Op == OpSORT {
		return "TB-SORT"
	}
	return string(n.Op)
}

// Signature returns a structural fingerprint of the subtree that ignores
// operator IDs and cardinalities but keeps operator types, shape and the
// order of inputs. Two plans with the same join methods, join order and
// access methods have the same signature.
func (n *Node) Signature() string { return n.signature(true) }

// ShapeSignature is like Signature but abstracts away table instances, so
// that the same plan shape over different tables compares equal. This is the
// canonical-symbol abstraction the knowledge base relies on.
func (n *Node) ShapeSignature() string { return n.signature(false) }

func (n *Node) signature(instances bool) string {
	if n == nil {
		return "_"
	}
	var b strings.Builder
	n.writeSignature(&b, instances)
	return b.String()
}

func (n *Node) writeSignature(b *strings.Builder, instances bool) {
	b.WriteString(string(n.Op))
	if instances && n.Table != "" {
		b.WriteString(":")
		b.WriteString(n.TableInstance)
	}
	if n.BloomFilter {
		b.WriteString("+BF")
	}
	if n.Outer != nil || n.Inner != nil {
		b.WriteString("(")
		if n.Outer != nil {
			n.Outer.writeSignature(b, instances)
		}
		if n.Inner != nil {
			b.WriteString(",")
			n.Inner.writeSignature(b, instances)
		}
		b.WriteString(")")
	}
}

// String renders a single-node summary, e.g. "HSJOIN(2) card=13.17".
func (n *Node) String() string {
	s := fmt.Sprintf("%s(%d)", n.OpLabel(), n.ID)
	if n.Table != "" {
		s += " " + n.Table
		if n.TableInstance != "" {
			s += "[" + n.TableInstance + "]"
		}
	}
	return s
}
