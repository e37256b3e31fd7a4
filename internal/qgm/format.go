package qgm

import (
	"fmt"
	"strings"
)

// Format renders the plan as an indented operator tree in the style of the
// paper's figures (and of db2exfmt): estimated cardinality on top, operator
// label and ID, and — for base table accesses — the table cardinality, name
// and instance below.
//
//	2.94925e+06
//	MSJOIN
//	(   2)
//	 |-- 1.1832e+07
//	 |   IXSCAN
//	 |   (   3)
//	 |     6.72337e+07 OPEN_IN [Q1]
//	 ...
func Format(p *Plan) string {
	if p == nil || p.Root == nil {
		return "<empty plan>\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Access Plan:\n")
	if p.QueryName != "" {
		fmt.Fprintf(&b, "Query: %s\n", p.QueryName)
	}
	fmt.Fprintf(&b, "Total Cost: %.4f timerons\n\n", p.TotalCost)
	formatNode(&b, p.Root, "")
	return b.String()
}

func formatNode(b *strings.Builder, n *Node, indent string) {
	fmt.Fprintf(b, "%s%s\n", indent, formatCard(n.EstCardinality))
	fmt.Fprintf(b, "%s%s\n", indent, n.OpLabel())
	fmt.Fprintf(b, "%s(%4d)\n", indent, n.ID)
	if n.BloomFilter {
		fmt.Fprintf(b, "%s[bloom filter]\n", indent)
	}
	for _, pred := range n.Predicates {
		fmt.Fprintf(b, "%spredicate: %s\n", indent, pred)
	}
	if n.Table != "" {
		detail := n.Table
		if n.TableInstance != "" {
			detail += " [" + n.TableInstance + "]"
		}
		if n.Index != "" {
			detail += " via " + n.Index
		}
		fmt.Fprintf(b, "%s  %s\n", indent, detail)
	}
	children := n.Children()
	for i, c := range children {
		role := "outer"
		if i == 1 {
			role = "inner"
		}
		if len(children) > 1 {
			fmt.Fprintf(b, "%s%s:\n", indent+"  ", role)
		}
		formatNode(b, c, indent+"    ")
	}
}

func formatCard(card float64) string {
	if card >= 1e6 {
		return fmt.Sprintf("%.5e", card)
	}
	return fmt.Sprintf("%g", card)
}

// DiffPlans renders a compact textual diff of the operator structure of two
// plans: the signature of each plan and the operators that changed type or
// position.
func DiffPlans(before, after *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "before: %s\n", before.Signature())
	fmt.Fprintf(&b, "after:  %s\n", after.Signature())
	beforeJoins := joinMethodsByTables(before)
	afterJoins := joinMethodsByTables(after)
	for tables, method := range beforeJoins {
		if am, ok := afterJoins[tables]; ok && am != method {
			fmt.Fprintf(&b, "join over {%s}: %s -> %s\n", tables, method, am)
		}
	}
	return b.String()
}

func joinMethodsByTables(p *Plan) map[string]OpType {
	out := map[string]OpType{}
	if p == nil || p.Root == nil {
		return out
	}
	p.Root.Walk(func(n *Node) {
		if n.Op.IsJoin() {
			out[strings.Join(n.Tables(), ",")] = n.Op
		}
	})
	return out
}
