package transform_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"galo/internal/kb"
	"galo/internal/qgm"
	"galo/internal/rdf"
	"galo/internal/sparql"
	"galo/internal/transform"
)

// fuzzFragment grows a 1–4-join fragment out of fuzz bytes: join methods,
// access paths, unary operators in between, a bushy or deep shape, operator
// IDs and cardinalities all come from data. A nil fragment means the bytes
// asked for an estimate no plan carries (NaN, ±Inf).
func fuzzFragment(data []byte) *qgm.Node {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	finite := true
	card := func() float64 {
		var raw [8]byte
		for i := range raw {
			raw[i] = next()
		}
		if raw[0]&1 == 1 {
			// Any float64 at all.
			f := math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
			if math.IsNaN(f) || math.IsInf(f, 0) {
				finite = false
			}
			return f
		}
		// An estimate-like value with decimals beyond the two a probe keeps.
		return float64(binary.LittleEndian.Uint32(raw[1:5])) * []float64{0.001, 0.01, 1, 1000}[raw[5]%4]
	}
	scans := []qgm.OpType{qgm.OpTBSCAN, qgm.OpIXSCAN, qgm.OpFETCH}
	unary := []qgm.OpType{qgm.OpSORT, qgm.OpFILTER, qgm.OpGRPBY}
	joins := 1 + int(next()%4)
	trees := make([]*qgm.Node, joins+1)
	for i := range trees {
		trees[i] = &qgm.Node{Op: scans[next()%3], Table: "T", TableInstance: fmt.Sprintf("Q%d", i+1), EstCardinality: card()}
		if next()%8 == 0 {
			trees[i].TableInstance = "" // named after its ID, no canonical label
		}
	}
	for len(trees) > 1 {
		i := int(next()) % (len(trees) - 1)
		join := &qgm.Node{Op: qgm.JoinMethods()[next()%3], Outer: trees[i], Inner: trees[i+1], EstCardinality: card()}
		if next()%4 == 0 {
			join = &qgm.Node{Op: unary[next()%3], Outer: join, EstCardinality: card()}
		}
		trees = append(trees[:i], append([]*qgm.Node{join}, trees[i+2:]...)...)
	}
	root := trees[0]
	for !root.Op.IsJoin() {
		root = root.Outer // probes are rooted at joins
	}
	id := int(next())
	root.Walk(func(n *qgm.Node) {
		id += 1 + int(next()%3)
		n.ID = id
	})
	if !finite {
		return nil
	}
	return root
}

// fuzzKB is the fixed small knowledge base FuzzProbe evaluates on: a
// template for every one-join shape fuzzFragment can grow, with bounds wide
// enough that most cardinalities fall inside them.
func fuzzKB(f *testing.F) *rdf.Snapshot {
	knowledge := kb.New()
	scans := []qgm.OpType{qgm.OpTBSCAN, qgm.OpIXSCAN, qgm.OpFETCH}
	for _, join := range qgm.JoinMethods() {
		for _, outer := range scans {
			for _, inner := range scans {
				o := &qgm.Node{Op: outer, Table: "A", TableInstance: "A", EstCardinality: 10}
				i := &qgm.Node{Op: inner, Table: "B", TableInstance: "B", EstCardinality: 10}
				problem := qgm.NewPlan(&qgm.Node{Op: join, Outer: o, Inner: i, EstCardinality: 10}).Root
				bounds := map[int]kb.Range{}
				problem.Walk(func(n *qgm.Node) { bounds[n.ID] = kb.Range{Lo: 0, Hi: 1e12} })
				if _, err := knowledge.Add(&kb.Template{
					Problem: problem, Bounds: bounds, Improvement: 0.5, Structural: true,
					GuidelineXML: "<OPTGUIDELINES><HSJOIN><TBSCAN TABID='TABLE_1'/><TBSCAN TABID='TABLE_2'/></HSJOIN></OPTGUIDELINES>",
				}); err != nil {
					f.Fatal(err)
				}
			}
		}
	}
	return knowledge.Store().Snapshot()
}

// withoutNumbers returns the query with every numeric FILTER constant
// dropped.
func withoutNumbers(q *sparql.Query) *sparql.Query {
	var strip func(e sparql.Expr) sparql.Expr
	strip = func(e sparql.Expr) sparql.Expr {
		switch x := e.(type) {
		case sparql.Comparison:
			x.L.Num, x.R.Num = nil, nil
			return x
		case sparql.And:
			return sparql.And{L: strip(x.L), R: strip(x.R)}
		case sparql.Or:
			return sparql.Or{L: strip(x.L), R: strip(x.R)}
		}
		return e
	}
	out := *q
	out.Filters = nil
	for _, f := range q.Filters {
		out.Filters = append(out.Filters, strip(f))
	}
	return &out
}

// FuzzProbe: for any fragment, the query a probe builds is the query its text
// parses to, and its parameters are the numeric constants sparql.Prepare
// finds in that query; for any two, their keys are equal exactly when their
// texts are, and when their form keys are equal their queries differ in
// numeric FILTER constants only — so one's compiled query run with the
// other's parameters answers the other, on a small knowledge base.
func FuzzProbe(f *testing.F) {
	base := []byte{2, 0, 0, 0x10, 0x27, 0, 0, 2, 0, 0, 1, 1, 0, 0xe8, 3, 0, 0, 1, 0, 0, 1, 2, 0, 0, 0x20, 0x4e, 0, 0, 2, 0, 0, 1}
	f.Add(base, base)
	f.Add(base, append([]byte{3}, base[1:]...))
	// One form, other cardinalities: 10000 and 10001 at the first scan of a
	// 3-join fragment; 10.00 and 10.26 under a one-join one the knowledge
	// base has a template for.
	f.Add(base, append(append([]byte{}, base[:3]...), append([]byte{0x11}, base[4:]...)...))
	f.Add([]byte{0, 0, 0, 0x11, 0x27, 0, 0, 0}, []byte{0, 0, 0, 0x11, 0x28, 0, 0, 0})
	// 10.001 and 10.002 round to one text.
	f.Add([]byte{0, 0, 0, 0x11, 0x27, 0, 0, 0}, []byte{0, 0, 0, 0x12, 0x27, 0, 0, 0})
	f.Add([]byte{3, 1, 1, 2, 3, 4, 5, 6, 7, 8, 0, 2}, []byte{1})
	snap := fuzzKB(f)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var probes [2]*transform.Probe
		var texts [2]string
		for i, data := range [][]byte{a, b} {
			frag := fuzzFragment(data)
			if frag == nil {
				return
			}
			p, err := transform.NewProbe(frag)
			if err != nil {
				t.Fatalf("NewProbe: %v", err)
			}
			probes[i], texts[i] = p, p.Text()
			parsed, err := sparql.Parse(texts[i])
			if err != nil {
				t.Fatalf("Text() does not parse: %v\n%s", err, texts[i])
			}
			built := p.Query()
			if !reflect.DeepEqual(built, parsed) {
				t.Fatalf("Query() is not what Text() parses to\nbuilt  %+v\nparsed %+v\n%s", built, parsed, texts[i])
			}
			if text, info, err := transform.FragmentMatchQuery(frag); err != nil || text != texts[i] || !reflect.DeepEqual(info, p.Info()) {
				t.Fatalf("FragmentMatchQuery disagrees with the probe (err %v)", err)
			}
			pr, err := sparql.Prepare(built)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := p.AppendParams(nil), pr.Params(); !slices.Equal(got, want) {
				t.Fatalf("AppendParams = %v, the query's constants are %v\n%s", got, want, texts[i])
			}
		}
		pa, pb := probes[0], probes[1]
		if (pa.Key() == pb.Key()) != (texts[0] == texts[1]) {
			t.Fatalf("keys equal: %v, texts equal: %v\n%q\n%q\n%s\n%s", pa.Key() == pb.Key(), texts[0] == texts[1], pa.Key(), pb.Key(), texts[0], texts[1])
		}
		if !bytes.Equal(pa.AppendFormKey(nil), pb.AppendFormKey(nil)) {
			return
		}
		qa, qb := pa.Query(), pb.Query()
		if !reflect.DeepEqual(withoutNumbers(qa), withoutNumbers(qb)) {
			t.Fatalf("form keys equal, queries differ beyond their numbers\n%s\n%s", texts[0], texts[1])
		}
		pr, err := sparql.Prepare(qa)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pr.Run(snap, pb.AppendParams(nil))
		if err != nil {
			t.Fatal(err)
		}
		want, err := sparql.Execute(qb, snap)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a's form run with b's parameters: %v, b executed: %v\n%s", got, want, texts[1])
		}
	})
}
