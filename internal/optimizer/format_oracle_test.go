package optimizer_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/randplan"
)

// fmtFormat is qgm.Format as it was written before it became an append
// renderer, kept as the oracle the renderer is held to. Only Node.Children,
// deleted with it, is spelled out.
func fmtFormat(p *qgm.Plan) string {
	if p == nil || p.Root == nil {
		return "<empty plan>\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Access Plan:\n")
	if p.QueryName != "" {
		fmt.Fprintf(&b, "Query: %s\n", p.QueryName)
	}
	fmt.Fprintf(&b, "Total Cost: %.4f timerons\n\n", p.TotalCost)
	fmtFormatNode(&b, p.Root, "")
	return b.String()
}

func fmtFormatNode(b *strings.Builder, n *qgm.Node, indent string) {
	fmt.Fprintf(b, "%s%s\n", indent, fmtFormatCard(n.EstCardinality))
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
	var children []*qgm.Node
	for _, c := range []*qgm.Node{n.Outer, n.Inner} {
		if c != nil {
			children = append(children, c)
		}
	}
	for i, c := range children {
		role := "outer"
		if i == 1 {
			role = "inner"
		}
		if len(children) > 1 {
			fmt.Fprintf(b, "%s%s:\n", indent+"  ", role)
		}
		fmtFormatNode(b, c, indent+"    ")
	}
}

func fmtFormatCard(card float64) string {
	if card >= 1e6 {
		return fmt.Sprintf("%.5e", card)
	}
	return fmt.Sprintf("%g", card)
}

// TestFormatMatchesFmtOracle holds qgm.Format to fmtFormat byte for byte over
// every plan of the golden corpora (each query planned plain, under its
// guidelines, greedily, and greedily under its guidelines), four randplan
// plans per query, and hand-built plans with what the planner never emits:
// cardinalities of 0, 1e6-1, 1e6, 1e300, NaN and ±Inf, operator IDs of every
// width, negative costs, a node with only an inner input.
func TestFormatMatchesFmtOracle(t *testing.T) {
	check := func(name string, p *qgm.Plan) {
		t.Helper()
		if got, want := qgm.Format(p), fmtFormat(p); got != want {
			t.Fatalf("%s: Format differs from the fmt oracle\n got: %q\nwant: %q", name, got, want)
		}
	}
	plans, specPlans := 0, 0
	for _, c := range goldenCorpora(t) {
		gen := randplan.New(optimizer.New(c.db.Catalog, optimizer.DefaultOptions()), 20190522)
		gr := rand.New(rand.NewSource(int64(len(c.name)) + 7))
		for _, q := range c.queries {
			doc := randomGuidelines(gr, c.db.Catalog, q)
			for _, dpLimit := range []int{0, 3} {
				for _, guided := range []bool{false, true} {
					opts := optimizer.DefaultOptions()
					if dpLimit > 0 {
						opts.JoinEnumDPLimit = dpLimit
					}
					if guided {
						opts.Guidelines = doc
					}
					p, _, err := optimizer.New(c.db.Catalog, opts).Optimize(q)
					if err != nil {
						continue
					}
					check(q.Name, p)
					plans++
				}
			}
			for k := 0; k < 4 && len(q.From) <= 12; k++ {
				spec, err := gen.RandomSpec(q)
				if err != nil {
					continue
				}
				p, err := optimizer.New(c.db.Catalog, optimizer.DefaultOptions()).BuildPlan(q, spec)
				if err != nil {
					continue
				}
				check(fmt.Sprintf("%s spec %d", q.Name, k), p)
				specPlans++
			}
		}
	}
	t.Logf("%d planned and %d randplan plans render as the oracle renders them", plans, specPlans)
	if plans < 1000 || specPlans < 1000 {
		t.Fatalf("compared %d planned and %d randplan plans, want at least 1000 of each", plans, specPlans)
	}

	check("nil plan", nil)
	check("empty plan", &qgm.Plan{})
	for i, card := range []float64{0, 1e6 - 1, 1e6, 1e300, math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 123.456, 2.5e-7} {
		scan := &qgm.Node{Op: qgm.OpIXSCAN, Table: "T", TableInstance: "Q2", Index: "IX", EstCardinality: card,
			Predicates: []string{"T.A = 1", "T.B <> 'x'"}}
		probe := &qgm.Node{Op: qgm.OpTBSCAN, Table: "U", EstCardinality: card / 3}
		join := &qgm.Node{Op: qgm.OpHSJOIN, Outer: scan, Inner: probe, BloomFilter: true, EstCardinality: card * 7}
		innerOnly := &qgm.Node{Op: qgm.OpFILTER, Inner: join, EstCardinality: card}
		p := qgm.NewPlan(&qgm.Node{Op: qgm.OpSORT, Outer: innerOnly, EstCardinality: card})
		p.QueryName = fmt.Sprintf("EDGE.%d", i)
		p.TotalCost = []float64{card, -card, 1e-9}[i%3]
		check(p.QueryName, p)
		for _, id := range []int{-12345, -1, 0, 7, 99, 1000, 12345, math.MaxInt} {
			join.ID = id
			check(fmt.Sprintf("%s, join ID %d", p.QueryName, id), p)
		}
	}
}
