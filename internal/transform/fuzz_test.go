package transform_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"galo/internal/qgm"
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

// FuzzProbe: for any fragment, the query a probe builds is the query its text
// parses to; and for any two, their keys are equal exactly when their texts
// are.
func FuzzProbe(f *testing.F) {
	base := []byte{2, 0, 0, 0x10, 0x27, 0, 0, 2, 0, 0, 1, 1, 0, 0xe8, 3, 0, 0, 1, 0, 0, 1, 2, 0, 0, 0x20, 0x4e, 0, 0, 2, 0, 0, 1}
	f.Add(base, base)
	f.Add(base, append([]byte{3}, base[1:]...))
	// 10.001 and 10.002 round to one text.
	f.Add([]byte{0, 0, 0, 0x11, 0x27, 0, 0, 0}, []byte{0, 0, 0, 0x12, 0x27, 0, 0, 0})
	f.Add([]byte{3, 1, 1, 2, 3, 4, 5, 6, 7, 8, 0, 2}, []byte{1})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var keys, texts [2]string
		for i, data := range [][]byte{a, b} {
			frag := fuzzFragment(data)
			if frag == nil {
				return
			}
			p, err := transform.NewProbe(frag)
			if err != nil {
				t.Fatalf("NewProbe: %v", err)
			}
			keys[i], texts[i] = p.Key(), p.Text()
			parsed, err := sparql.Parse(texts[i])
			if err != nil {
				t.Fatalf("Text() does not parse: %v\n%s", err, texts[i])
			}
			if built := p.Query(); !reflect.DeepEqual(built, parsed) {
				t.Fatalf("Query() is not what Text() parses to\nbuilt  %+v\nparsed %+v\n%s", built, parsed, texts[i])
			}
			if text, info, err := transform.FragmentMatchQuery(frag); err != nil || text != texts[i] || !reflect.DeepEqual(info, p.Info()) {
				t.Fatalf("FragmentMatchQuery disagrees with the probe (err %v)", err)
			}
		}
		if (keys[0] == keys[1]) != (texts[0] == texts[1]) {
			t.Fatalf("keys equal: %v, texts equal: %v\n%q\n%q\n%s\n%s", keys[0] == keys[1], texts[0] == texts[1], keys[0], keys[1], texts[0], texts[1])
		}
	})
}
