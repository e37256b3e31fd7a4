package qgm

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// Format renders the plan as an indented operator tree in the style of the
// paper's figures (and of db2exfmt): estimated cardinality on top, operator
// label and ID, and — for base table accesses — the table name, instance and
// index below; a join labels its two inputs.
//
//	2.94925e+06
//	MSJOIN
//	(   2)
//	  outer:
//	    1.18320e+07
//	    IXSCAN
//	    (   3)
//	      OPEN_IN [Q1] via OPEN_IN_IDX
//	  inner:
//	 ...
//
// The text is appended into one pooled buffer: every /reopt answer carries
// one or two plans.
func Format(p *Plan) string {
	if p == nil || p.Root == nil {
		return "<empty plan>\n"
	}
	buf := formatBufs.Get().(*[]byte)
	b := append((*buf)[:0], "Access Plan:\n"...)
	if p.QueryName != "" {
		b = append(append(append(b, "Query: "...), p.QueryName...), '\n')
	}
	b = strconv.AppendFloat(append(b, "Total Cost: "...), p.TotalCost, 'f', 4, 64)
	b = appendNode(append(b, " timerons\n\n"...), p.Root, 0)
	s := string(b)
	if cap(b) <= 64<<10 {
		*buf = b
		formatBufs.Put(buf)
	}
	return s
}

var formatBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendNode appends the subtree, indented four spaces per depth.
func appendNode(b []byte, n *Node, depth int) []byte {
	indent := func(b []byte) []byte {
		for range depth {
			b = append(b, "    "...)
		}
		return b
	}
	format, prec := byte('g'), -1
	if n.EstCardinality >= 1e6 {
		format, prec = 'e', 5
	}
	b = strconv.AppendFloat(indent(b), n.EstCardinality, format, prec, 64)
	b = append(append(indent(append(b, '\n')), n.OpLabel()...), '\n')
	var num [20]byte
	id := strconv.AppendInt(num[:0], int64(n.ID), 10) // right-aligned in four columns, as %4d
	b = append(append(append(indent(b), "(    "[:1+max(0, 4-len(id))]...), id...), ")\n"...)
	if n.BloomFilter {
		b = append(indent(b), "[bloom filter]\n"...)
	}
	for _, pred := range n.Predicates {
		b = append(append(append(indent(b), "predicate: "...), pred...), '\n')
	}
	if n.Table != "" {
		b = append(append(indent(b), "  "...), n.Table...)
		if n.TableInstance != "" {
			b = append(append(append(b, " ["...), n.TableInstance...), ']')
		}
		if n.Index != "" {
			b = append(append(b, " via "...), n.Index...)
		}
		b = append(b, '\n')
	}
	for i, c := range [2]*Node{n.Outer, n.Inner} {
		if c == nil {
			continue
		}
		if n.Outer != nil && n.Inner != nil {
			b = append(indent(b), [2]string{"  outer:\n", "  inner:\n"}[i]...)
		}
		b = appendNode(b, c, depth+1)
	}
	return b
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
