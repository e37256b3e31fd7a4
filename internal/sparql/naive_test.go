package sparql

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"galo/internal/rdf"
)

// TestExecuteAgainstNaive holds the evaluator to a brute-force reference on
// seeded random graphs and queries: the reference joins nested loops over the
// snapshot's Match triples pattern by pattern, walks property paths as
// relations over terms, and evaluates every FILTER on the final binding's
// terms. Without LIMIT the two solution multisets must be equal; with LIMIT k
// the evaluator must return min(k, n) solutions, each one the reference has.
func TestExecuteAgainstNaive(t *testing.T) {
	queries := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		store := rdf.NewStore()
		store.AddAll(g.triples)
		snap := store.Snapshot()
		for i := 0; i < 60; i++ {
			text := g.query(rng)
			q, err := Parse(text)
			if err != nil {
				t.Fatalf("seed %d: generated query does not parse: %v\n%s", seed, err, text)
			}
			got, err := Execute(q, snap)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, text)
			}
			want := rows(naive(snap, q))
			have := rows(got)
			if q.Limit == 0 {
				if !slices.Equal(have, want) {
					t.Fatalf("seed %d: solutions differ\n%s\ngot  %v\nwant %v", seed, text, have, want)
				}
			} else {
				if len(have) != min(q.Limit, len(want)) {
					t.Fatalf("seed %d: %d solutions under LIMIT %d, reference has %d\n%s", seed, len(have), q.Limit, len(want), text)
				}
				left := slices.Clone(want)
				for _, r := range have {
					i := slices.Index(left, r)
					if i < 0 {
						t.Fatalf("seed %d: solution %s is not the reference's\n%s\nreference %v", seed, r, text, want)
					}
					left = slices.Delete(left, i, i+1)
				}
			}
			queries++
		}
	}
	t.Logf("%d queries", queries)
}

// naiveGraph is a random graph and the vocabulary its queries draw from.
type naiveGraph struct {
	triples []rdf.Triple
	// nodes are the subjects; values the objects besides nodes.
	nodes, values []rdf.Term
}

func nIRI(s string) rdf.Term { return rdf.NewIRI("http://n/" + s) }

// randomGraph builds at most 60 triples: IRIs carrying numeric and string
// literals under a few predicates, a p1/p2 chain and a cycle for p+.
func randomGraph(rng *rand.Rand) naiveGraph {
	var g naiveGraph
	for i := 0; i < 8; i++ {
		g.nodes = append(g.nodes, nIRI(fmt.Sprintf("r%d", i)))
	}
	// Numbers under several spellings, values no band holds (NaN) or that
	// compare as numbers without being literals (the IRI "7"), and text.
	for _, v := range []string{"1", "2.5", "10", "-3", " 4 ", "1e1", "NaN", "Inf"} {
		g.values = append(g.values, rdf.NewLiteral(v))
	}
	for _, v := range []string{"a", "b", "zz", "HSJOIN", ""} {
		g.values = append(g.values, rdf.NewLiteral(v))
	}
	g.values = append(g.values, rdf.NewIRI("7"))
	add := func(s, p, o rdf.Term) { g.triples = append(g.triples, rdf.Triple{S: s, P: p, O: o}) }
	// The cycle r0 -> r1 -> ... -> r4 -> r0, and a chain through p1 then p2.
	for i := 0; i < 5; i++ {
		add(g.nodes[i], nIRI("next"), g.nodes[(i+1)%5])
	}
	for i := 0; i < 4; i++ {
		add(g.nodes[rng.Intn(8)], nIRI("p1"), g.nodes[rng.Intn(8)])
		add(g.nodes[rng.Intn(8)], nIRI("p2"), g.nodes[rng.Intn(8)])
	}
	for len(g.triples) < 30+rng.Intn(31) {
		p := nIRI(fmt.Sprintf("q%d", rng.Intn(4)))
		o := g.values[rng.Intn(len(g.values))]
		if rng.Intn(4) == 0 {
			o = g.nodes[rng.Intn(8)]
		}
		add(g.nodes[rng.Intn(8)], p, o)
	}
	return g
}

// query generates 1–5 patterns over four variables, with constants the
// graph holds and constants it does not, 0–3 FILTERs mixing numeric, string
// and STR() comparisons under && and ||, and sometimes a LIMIT.
func (g naiveGraph) query(rng *rand.Rand) string {
	vars := []string{"?a", "?b", "?c", "?d"}
	term := func(t rdf.Term) string { return t.String() }
	node := func(objects bool) string {
		switch r := rng.Intn(10); {
		case r < 7:
			return vars[rng.Intn(len(vars))]
		case r < 8:
			return term(nIRI("never"))
		case objects && r < 9:
			return term(g.values[rng.Intn(len(g.values))])
		default:
			return term(g.nodes[rng.Intn(len(g.nodes))])
		}
	}
	paths := []string{"<http://n/q0>", "<http://n/q1>", "<http://n/q2>", "<http://n/q3>",
		"<http://n/p1>", "<http://n/p2>", "<http://n/p1>/<http://n/p2>", "<http://n/next>+", "<http://n/never>"}
	var b strings.Builder
	b.WriteString("SELECT ")
	if rng.Intn(3) == 0 {
		b.WriteString("*")
	} else {
		for _, v := range vars[:1+rng.Intn(len(vars))] {
			b.WriteString(v + " ")
		}
	}
	b.WriteString(" WHERE {\n")
	for i := 0; i < 1+rng.Intn(5); i++ {
		fmt.Fprintf(&b, " %s %s %s .\n", node(false), paths[rng.Intn(len(paths))], node(true))
	}
	numbers := []string{"0", "2", "2.5", "4", "10", "-1"}
	strs := []string{`"a"`, `"b"`, `"10"`, `"r"`}
	var comparison func() string
	comparison = func() string {
		v := vars[rng.Intn(len(vars))]
		op := []string{"<", "<=", ">", ">=", "=", "!="}[rng.Intn(6)]
		switch rng.Intn(5) {
		case 0:
			return v + " " + op + " " + numbers[rng.Intn(len(numbers))]
		case 1:
			return numbers[rng.Intn(len(numbers))] + " " + op + " " + v
		case 2:
			return v + " " + op + " " + strs[rng.Intn(len(strs))]
		case 3:
			return "STR(" + v + ") " + op + " STR(" + vars[rng.Intn(len(vars))] + ")"
		}
		return v + " " + op + " " + vars[rng.Intn(len(vars))]
	}
	var expr func(depth int) string
	expr = func(depth int) string {
		if depth == 0 || rng.Intn(2) == 0 {
			return comparison()
		}
		join := " && "
		if rng.Intn(2) == 0 {
			join = " || "
		}
		return "(" + expr(depth-1) + join + expr(depth-1) + ")"
	}
	for i := 0; i < rng.Intn(4); i++ {
		fmt.Fprintf(&b, " FILTER (%s) .\n", expr(2))
	}
	b.WriteString("}")
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", 1+rng.Intn(4))
	}
	return b.String()
}

type termPair struct{ s, o rdf.Term }

// naive evaluates q the slow way.
func naive(snap *rdf.Snapshot, q *Query) []Solution {
	triples := snap.Match(nil, nil, nil)
	step := func(p rdf.Term) []termPair {
		var out []termPair
		for _, t := range triples {
			if t.P == p {
				out = append(out, termPair{t.S, t.O})
			}
		}
		return out
	}
	// compose returns the distinct pairs (a, c) with (a, b) in x and (b, c)
	// in y.
	compose := func(x, y []termPair) []termPair {
		var out []termPair
		for _, l := range x {
			for _, r := range y {
				if l.o == r.s && !slices.Contains(out, termPair{l.s, r.o}) {
					out = append(out, termPair{l.s, r.o})
				}
			}
		}
		return out
	}
	relation := func(path []PredStep) []termPair {
		var rel []termPair
		for i, st := range path {
			r := step(st.Pred)
			if st.OneOrMore {
				for closure := r; ; {
					next := compose(closure, r)
					grown := false
					for _, p := range next {
						if !slices.Contains(closure, p) {
							closure, grown = append(closure, p), true
						}
					}
					if !grown {
						r = closure
						break
					}
				}
			}
			if i == 0 {
				rel = r
			} else {
				rel = compose(rel, r)
			}
		}
		return rel
	}
	// bind extends b with n := t, or reports a conflict.
	bind := func(b map[string]rdf.Term, n NodeRef, t rdf.Term) bool {
		if !n.IsVar {
			return n.Term == t
		}
		if old, ok := b[n.Var]; ok {
			return old == t
		}
		b[n.Var] = t
		return true
	}
	bindings := []map[string]rdf.Term{{}}
	for _, pat := range q.Patterns {
		var next []map[string]rdf.Term
		for _, b := range bindings {
			for _, pair := range relation(pat.Path) {
				e := make(map[string]rdf.Term, len(b)+2)
				for k, v := range b {
					e[k] = v
				}
				if bind(e, pat.S, pair.s) && bind(e, pat.O, pair.o) {
					next = append(next, e)
				}
			}
		}
		bindings = next
	}
	var out []Solution
	for _, b := range bindings {
		if !slices.ContainsFunc(q.Filters, func(f Expr) bool { return !naiveHolds(f, b) }) {
			row := Solution{}
			names := q.Select
			if q.SelectAll {
				names = nil
				for name := range b {
					names = append(names, name)
				}
			}
			for _, name := range names {
				if t, ok := b[name]; ok {
					row[name] = t
				}
			}
			out = append(out, row)
		}
	}
	return out
}

// naiveHolds evaluates a FILTER. One that reads a variable without a value
// fails whole — this engine's rule, stricter than SPARQL's error-tolerant
// ||; numbers compare as numbers when both sides read as one, as text
// otherwise.
func naiveHolds(e Expr, b map[string]rdf.Term) bool {
	var unbound func(Expr) bool
	unbound = func(e Expr) bool {
		switch x := e.(type) {
		case And:
			return unbound(x.L) || unbound(x.R)
		case Or:
			return unbound(x.L) || unbound(x.R)
		case Comparison:
			for _, o := range []Operand{x.L, x.R} {
				if name := o.Var + o.StrVar; o.Num == nil && o.Str == nil && name != "" {
					if _, ok := b[name]; !ok {
						return true
					}
				}
			}
		}
		return false
	}
	return !unbound(e) && naiveCompare(e, b)
}

func naiveCompare(e Expr, b map[string]rdf.Term) bool {
	switch x := e.(type) {
	case And:
		return naiveCompare(x.L, b) && naiveCompare(x.R, b)
	case Or:
		return naiveCompare(x.L, b) || naiveCompare(x.R, b)
	case Comparison:
		value := func(o Operand) (string, bool) {
			switch {
			case o.Num != nil:
				return strconv.FormatFloat(*o.Num, 'f', -1, 64), true
			case o.Str != nil:
				return *o.Str, true
			}
			name := o.Var + o.StrVar
			t, ok := b[name]
			return t.Value, ok
		}
		l, lok := value(x.L)
		r, rok := value(x.R)
		if !lok || !rok {
			return false
		}
		number := func(s string, o Operand) (float64, error) {
			if o.Num != nil {
				return *o.Num, nil
			}
			return strconv.ParseFloat(strings.TrimSpace(s), 64)
		}
		ln, lerr := number(l, x.L)
		rn, rerr := number(r, x.R)
		cmp := strings.Compare(l, r)
		if lerr == nil && rerr == nil {
			cmp = 0
			if ln < rn {
				cmp = -1
			} else if ln > rn {
				cmp = 1
			}
		}
		switch x.Op {
		case "<":
			return cmp < 0
		case "<=":
			return cmp <= 0
		case ">":
			return cmp > 0
		case ">=":
			return cmp >= 0
		case "=":
			return cmp == 0
		case "!=":
			return cmp != 0
		}
	}
	return false
}

// rows renders solutions as sorted "name=term" lines, one per solution,
// sorted: a multiset that compares with slices.Equal.
func rows(sols []Solution) []string {
	out := make([]string, 0, len(sols))
	for _, s := range sols {
		var kv []string
		for k, v := range s {
			kv = append(kv, k+"="+v.String())
		}
		slices.Sort(kv)
		out = append(out, strings.Join(kv, " "))
	}
	slices.Sort(out)
	return out
}
