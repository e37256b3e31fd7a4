package sparql

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"galo/internal/rdf"
)

// Execute evaluates the query against a graph — the live store, or a pinned
// rdf.Snapshot when the caller needs the whole evaluation to see one
// consistent epoch — and returns its solutions. Basic graph patterns are
// evaluated by backtracking joins in greedy selectivity order: at every step
// the evaluator picks the cheapest remaining pattern under the current
// bindings (using the graph's cardinality accessors as estimates), so
// bindings produced by selective patterns propagate into the rest of the
// plan instead of being discovered by exhaustive enumeration. Filters are
// applied as soon as all of their variables are bound; numeric FILTER bounds
// on a pattern's object variable additionally route candidate-start
// resolution through the graph's numeric band index, so patterns like
// "?pop :hasLowerCardinality ?lo . FILTER(?lo <= C)" touch only the
// subjects inside the value band instead of every subject carrying the
// predicate.
//
// The query is compiled once per evaluation (compile): variables become
// slots of one binding array, filters become comparisons over slots with
// their numeric constants kept as numbers. Backtracking then binds and
// unbinds slots in place; nothing is copied per extension.
func Execute(q *Query, graph rdf.Graph) ([]Solution, error) {
	if q == nil || len(q.Patterns) == 0 {
		return nil, fmt.Errorf("sparql: empty query")
	}
	ev := compile(q, graph)
	ev.match(len(q.Patterns))
	return ev.results, nil
}

// evaluator is one evaluation of one query: the compiled query and the
// backtracking state.
type evaluator struct {
	q     *Query
	graph rdf.Graph

	vars    []string // slot -> variable name
	pats    []compiledPattern
	filters []compiledFilter
	exprs   []compiledExpr // the filters' expression nodes
	// bounds holds, per slot, the numeric interval the variable is
	// constrained to by the query's top-level FILTER comparisons, for
	// band-index lookups.
	bounds []varBounds
	// project lists the slots a solution carries; nil means every bound one.
	project []int

	vals  []rdf.Term // slot -> bound term
	bound []bool
	// done marks the patterns already evaluated on the current backtracking
	// branch; the evaluator picks the cheapest not-done pattern next.
	done []bool
	// applied marks the filters that have held on the current branch; trail
	// lists them in application order, so a level leaving the branch un-applies
	// exactly its own.
	applied []bool
	trail   []int
	results []Solution
}

// compiledPattern is a triple pattern with its variables resolved to slots.
type compiledPattern struct {
	pat  *Pattern
	s, o int // slot of a variable position; -1 for a concrete term
	// plain marks a single predicate step without '+': the shape every
	// index lookup except the subject one needs.
	plain bool
	// cost remembers estimate's answer while costed is set: the estimate
	// reads nothing but the graph and whether — and to what — s and o are
	// bound, so it stands until one of the two is bound or unbound.
	costed bool
	cost   int
}

// compiledFilter is one FILTER: its expression and the slots it reads.
type compiledFilter struct {
	root  int // index into evaluator.exprs
	slots []int
}

type exprKind uint8

const (
	exprCompare exprKind = iota
	exprAnd
	exprOr
)

// compiledExpr is one node of a FILTER expression; l and r index
// evaluator.exprs for And/Or.
type compiledExpr struct {
	kind exprKind
	l, r int
	op   compareOp
	a, b compiledOperand
}

type compareOp uint8

const (
	opInvalid compareOp = iota
	opLT
	opLE
	opGT
	opGE
	opEQ
	opNE
)

func compareOpOf(op string) compareOp {
	switch op {
	case "<":
		return opLT
	case "<=":
		return opLE
	case ">":
		return opGT
	case ">=":
		return opGE
	case "=":
		return opEQ
	case "!=":
		return opNE
	}
	return opInvalid
}

type operandKind uint8

const (
	operandNone operandKind = iota // nothing set: the comparison is false
	operandNum
	operandStr
	operandSlot // ?var and STR(?var) alike: the bound term's value
)

// compiledOperand is one side of a comparison. A numeric constant stays a
// number; a string constant carries its numeric reading, taken once.
type compiledOperand struct {
	kind  operandKind
	slot  int
	num   float64
	isNum bool
	str   string
}

// varBounds is the closed numeric interval a FILTER constrains a variable
// to; nil ends are open. The band lookup it feeds is conservative — the
// FILTERs themselves still decide membership exactly — so strict and
// non-strict comparisons may share the same bound.
type varBounds struct {
	lo, hi *float64
}

// compile resolves the query's variables to slots and its filters to
// comparisons over them.
func compile(q *Query, graph rdf.Graph) *evaluator {
	// A pattern introduces fewer than one variable on average (subjects
	// repeat), so the pattern count bounds the slot count well.
	ev := &evaluator{q: q, graph: graph, vars: make([]string, 0, len(q.Patterns))}
	slots := make(map[string]int, len(q.Patterns))
	slotOf := func(name string) int {
		if s, ok := slots[name]; ok {
			return s
		}
		s := len(ev.vars)
		slots[name] = s
		ev.vars = append(ev.vars, name)
		return s
	}
	ref := func(n NodeRef) int {
		if n.IsVar {
			return slotOf(n.Var)
		}
		return -1
	}
	ev.pats = make([]compiledPattern, len(q.Patterns))
	for i := range q.Patterns {
		pat := &q.Patterns[i]
		ev.pats[i] = compiledPattern{
			pat: pat, s: ref(pat.S), o: ref(pat.O),
			plain: len(pat.Path) == 1 && !pat.Path[0].OneOrMore,
		}
	}

	operand := func(o Operand, reads *[]int) compiledOperand {
		// The order of the cases is the order the evaluator has always
		// resolved an over-specified operand in.
		switch {
		case o.Num != nil:
			return compiledOperand{kind: operandNum, num: *o.Num, isNum: true}
		case o.Str != nil:
			c := compiledOperand{kind: operandStr, str: *o.Str}
			c.num, c.isNum = numericValue(c.str)
			return c
		case o.StrVar != "", o.Var != "":
			name := o.StrVar
			if name == "" {
				name = o.Var
			}
			s := slotOf(name)
			*reads = append(*reads, s)
			return compiledOperand{kind: operandSlot, slot: s}
		}
		return compiledOperand{}
	}
	var expr func(e Expr, reads *[]int) int
	expr = func(e Expr, reads *[]int) int {
		at := len(ev.exprs)
		ev.exprs = append(ev.exprs, compiledExpr{})
		var node compiledExpr
		switch x := e.(type) {
		case Comparison:
			node = compiledExpr{kind: exprCompare, op: compareOpOf(x.Op), a: operand(x.L, reads), b: operand(x.R, reads)}
		case And:
			node = compiledExpr{kind: exprAnd, l: expr(x.L, reads), r: expr(x.R, reads)}
		case Or:
			node = compiledExpr{kind: exprOr, l: expr(x.L, reads), r: expr(x.R, reads)}
		default:
			// An expression of no known kind never holds.
			node = compiledExpr{kind: exprCompare, op: opInvalid}
		}
		ev.exprs[at] = node
		return at
	}
	ev.filters = make([]compiledFilter, len(q.Filters))
	ev.exprs = make([]compiledExpr, 0, len(q.Filters))
	// One backing array for the filters' slot lists: most read two slots.
	reads := make([]int, 0, 2*len(q.Filters))
	for i, f := range q.Filters {
		from := len(reads)
		root := expr(f, &reads)
		ev.filters[i] = compiledFilter{root: root, slots: reads[from:len(reads):len(reads)]}
	}

	if !q.SelectAll && len(q.Select) > 0 {
		ev.project = make([]int, len(q.Select))
		for i, v := range q.Select {
			ev.project[i] = slotOf(v)
		}
		ev.results = []Solution{}
	}

	n := len(ev.vars)
	ev.bounds = make([]varBounds, n)
	for name, b := range numericBounds(q.Filters) {
		ev.bounds[slots[name]] = b
	}
	ev.vals = make([]rdf.Term, n)
	flags := make([]bool, n+len(q.Patterns)+len(q.Filters))
	ev.bound, flags = flags[:n:n], flags[n:]
	ev.done, ev.applied = flags[:len(q.Patterns):len(q.Patterns)], flags[len(q.Patterns):]
	ev.trail = make([]int, 0, len(q.Filters))
	return ev
}

// numericBounds derives per-variable numeric intervals from the top-level
// conjunction of filters: only comparisons between one variable and one
// numeric constant, reached through AND alone, constrain a variable (an OR
// branch cannot, since the other branch may admit anything).
func numericBounds(filters []Expr) map[string]varBounds {
	out := map[string]varBounds{}
	narrow := func(v string, lo, hi *float64) {
		b := out[v]
		if lo != nil && (b.lo == nil || *lo > *b.lo) {
			b.lo = lo
		}
		if hi != nil && (b.hi == nil || *hi < *b.hi) {
			b.hi = hi
		}
		out[v] = b
	}
	var collect func(Expr)
	collect = func(e Expr) {
		switch x := e.(type) {
		case And:
			collect(x.L)
			collect(x.R)
		case Comparison:
			var v string
			var c *float64
			op := x.Op
			switch {
			case x.L.Var != "" && x.R.Num != nil:
				v, c = x.L.Var, x.R.Num
			case x.R.Var != "" && x.L.Num != nil:
				// Mirror the comparison so the variable is on the left.
				v, c = x.R.Var, x.L.Num
				switch op {
				case "<":
					op = ">"
				case "<=":
					op = ">="
				case ">":
					op = "<"
				case ">=":
					op = "<="
				}
			default:
				return
			}
			switch op {
			case "<", "<=":
				narrow(v, nil, c)
			case ">", ">=":
				narrow(v, c, nil)
			case "=":
				narrow(v, c, c)
			}
		}
	}
	for _, f := range filters {
		collect(f)
	}
	return out
}

// objectBand returns the numeric interval constraining the pattern's object
// variable, when the pattern is a single plain step whose object is an
// as-yet-unbound variable under FILTER bounds — the case the band index
// accelerates.
func (ev *evaluator) objectBand(cp *compiledPattern) (lo, hi *float64, ok bool) {
	if cp.o < 0 || !cp.plain || ev.bound[cp.o] {
		return nil, nil, false
	}
	b := ev.bounds[cp.o]
	if b.lo == nil && b.hi == nil {
		return nil, nil, false
	}
	return b.lo, b.hi, true
}

// ready reports whether every slot the filter reads is bound.
func (ev *evaluator) ready(f *compiledFilter) bool {
	for _, s := range f.slots {
		if !ev.bound[s] {
			return false
		}
	}
	return true
}

// leave un-applies the filters applied since the trail was mark long.
func (ev *evaluator) leave(mark int) {
	for _, fi := range ev.trail[mark:] {
		ev.applied[fi] = false
	}
	ev.trail = ev.trail[:mark]
}

func (ev *evaluator) match(remaining int) {
	if ev.q.Limit > 0 && len(ev.results) >= ev.q.Limit {
		return
	}
	// Apply any filter whose variables are all bound and which has not been
	// applied yet; abandon this branch if one fails.
	mark := len(ev.trail)
	defer ev.leave(mark)
	for fi := range ev.filters {
		if ev.applied[fi] || !ev.ready(&ev.filters[fi]) {
			continue
		}
		if !ev.holds(ev.filters[fi].root) {
			return
		}
		ev.applied[fi] = true
		ev.trail = append(ev.trail, fi)
	}
	if remaining == 0 {
		// All patterns matched; any remaining filters have unbound variables
		// and evaluate to an error → treat as failure per SPARQL semantics.
		if len(ev.trail) == len(ev.filters) {
			ev.results = append(ev.results, ev.solution())
		}
		return
	}
	// Greedy selectivity ordering: evaluate the cheapest remaining pattern
	// under the current bindings next.
	best, bestCost := -1, int(^uint(0)>>1)
	for i := range ev.pats {
		if ev.done[i] {
			continue
		}
		cp := &ev.pats[i]
		if !cp.costed {
			cp.cost, cp.costed = ev.estimate(cp), true
		}
		if cp.cost < bestCost {
			best, bestCost = i, cp.cost
		}
	}
	cp := &ev.pats[best]
	ev.done[best] = true
	var one [1]rdf.Term
	for _, start := range ev.resolveStarts(cp, &one) {
		for _, end := range ev.walkPath(start, cp) {
			sNew, oNew, ok := ev.extend(cp, start, end)
			if ok {
				ev.match(remaining - 1)
			}
			if sNew {
				ev.setBound(cp.s, false)
			}
			if oNew {
				ev.setBound(cp.o, false)
			}
		}
	}
	ev.done[best] = false
}

// setBound marks a slot bound or unbound, and with it every estimate that
// read the slot stale.
func (ev *evaluator) setBound(slot int, bound bool) {
	ev.bound[slot] = bound
	for i := range ev.pats {
		if cp := &ev.pats[i]; cp.s == slot || cp.o == slot {
			cp.costed = false
		}
	}
}

// solution copies the current binding out: the projected variables, or every
// bound one under SELECT *.
func (ev *evaluator) solution() Solution {
	if ev.project != nil {
		row := make(Solution, len(ev.project))
		for _, s := range ev.project {
			if ev.bound[s] {
				row[ev.vars[s]] = ev.vals[s]
			}
		}
		return row
	}
	row := make(Solution, len(ev.vars))
	for s, name := range ev.vars {
		if ev.bound[s] {
			row[name] = ev.vals[s]
		}
	}
	return row
}

// resolve resolves a pattern position to a concrete term: directly for
// concrete terms, through the binding for bound variables.
func (ev *evaluator) resolve(slot int, n *NodeRef) (rdf.Term, bool) {
	if slot < 0 {
		return n.Term, true
	}
	return ev.vals[slot], ev.bound[slot]
}

// estimate returns the estimated number of bindings the pattern produces
// under the current binding, from the graph's cardinality accessors:
// CountSP for a resolved subject, CountPO for a resolved object reachable
// through the POS index, CountPInRange when FILTER bounds confine the
// object variable to a numeric band, and the predicate's total triple count
// otherwise.
func (ev *evaluator) estimate(cp *compiledPattern) int {
	first := cp.pat.Path[0]
	if s, ok := ev.resolve(cp.s, &cp.pat.S); ok {
		return ev.graph.CountSP(s, first.Pred)
	}
	if o, ok := ev.resolve(cp.o, &cp.pat.O); ok && cp.plain {
		return ev.graph.CountPO(first.Pred, o)
	}
	if lo, hi, ok := ev.objectBand(cp); ok {
		return ev.graph.CountPInRange(first.Pred, lo, hi)
	}
	return ev.graph.CountP(first.Pred)
}

// resolveStarts returns the candidate subjects for a pattern given the
// current binding: the resolved subject when it is bound or concrete (in
// one, the caller's one-element buffer), the POS-index reverse lookup when
// the object is resolved and the path is a single plain step, the numeric
// band index when FILTER bounds confine the object variable, and otherwise
// every subject carrying the path's first predicate (never the whole store).
func (ev *evaluator) resolveStarts(cp *compiledPattern, one *[1]rdf.Term) []rdf.Term {
	if s, ok := ev.resolve(cp.s, &cp.pat.S); ok {
		one[0] = s
		return one[:]
	}
	first := cp.pat.Path[0]
	if o, ok := ev.resolve(cp.o, &cp.pat.O); ok && cp.plain {
		return ev.graph.SubjectsOf(first.Pred, o)
	}
	if lo, hi, ok := ev.objectBand(cp); ok {
		// Subjects outside the band carry no in-range value, so every one of
		// their bindings would fail the FILTER; subjects inside may also
		// carry out-of-range values, which the FILTER still rejects
		// individually. The band is therefore a safe restriction.
		return ev.graph.SubjectsWithPredInRange(first.Pred, lo, hi)
	}
	return ev.graph.SubjectsWithPred(first.Pred)
}

// walkPath follows the pattern's property path from the start term and
// returns every reachable object, in term order.
func (ev *evaluator) walkPath(start rdf.Term, cp *compiledPattern) []rdf.Term {
	if cp.plain {
		// One step reaches the subject's objects: already distinct, and
		// nearly always a single one.
		objs := ev.graph.ObjectsOf(start, cp.pat.Path[0].Pred)
		if len(objs) < 2 {
			return objs
		}
		return sortedDistinct(append([]rdf.Term(nil), objs...))
	}
	current := []rdf.Term{start}
	for _, step := range cp.pat.Path {
		var next []rdf.Term
		if step.OneOrMore {
			// Transitive closure of the predicate from each current node.
			for _, c := range current {
				frontier := []rdf.Term{c}
				visited := map[rdf.Term]bool{}
				for len(frontier) > 0 {
					n := frontier[0]
					frontier = frontier[1:]
					for _, o := range ev.graph.ObjectsOf(n, step.Pred) {
						if !visited[o] {
							visited[o] = true
							next = append(next, o)
							frontier = append(frontier, o)
						}
					}
				}
			}
		} else {
			for _, c := range current {
				next = append(next, ev.graph.ObjectsOf(c, step.Pred)...)
			}
		}
		current = sortedDistinct(next)
	}
	return current
}

// sortedDistinct sorts terms in place into term order and drops repeats.
func sortedDistinct(terms []rdf.Term) []rdf.Term {
	sort.Slice(terms, func(i, j int) bool { return rdf.CompareTerms(terms[i], terms[j]) < 0 })
	out := terms[:0]
	for i, t := range terms {
		if i == 0 || t != terms[i-1] {
			out = append(out, t)
		}
	}
	return out
}

// extend binds the pattern's variable positions to (start, end), reporting
// which slots it newly bound — the caller unbinds exactly those — and whether
// the pair agrees with the pattern's concrete terms and earlier bindings.
func (ev *evaluator) extend(cp *compiledPattern, start, end rdf.Term) (sNew, oNew, ok bool) {
	if cp.s < 0 {
		if cp.pat.S.Term != start {
			return false, false, false
		}
	} else if ev.bound[cp.s] {
		if ev.vals[cp.s] != start {
			return false, false, false
		}
	} else {
		ev.vals[cp.s], sNew = start, true
		ev.setBound(cp.s, true)
	}
	if cp.o < 0 {
		if cp.pat.O.Term != end {
			return sNew, false, false
		}
	} else if ev.bound[cp.o] {
		if ev.vals[cp.o] != end {
			return sNew, false, false
		}
	} else {
		ev.vals[cp.o], oNew = end, true
		ev.setBound(cp.o, true)
	}
	return sNew, oNew, true
}

// holds evaluates a filter expression under the current binding.
func (ev *evaluator) holds(at int) bool {
	x := &ev.exprs[at]
	switch x.kind {
	case exprAnd:
		return ev.holds(x.l) && ev.holds(x.r)
	case exprOr:
		return ev.holds(x.l) || ev.holds(x.r)
	}
	l, lnum, lIsNum, lok := ev.operand(&x.a)
	r, rnum, rIsNum, rok := ev.operand(&x.b)
	if !lok || !rok {
		return false
	}
	// Numbers compare as numbers when both sides read as one, as text
	// otherwise; a NaN compares equal to everything, as it always has.
	var cmp int
	if lIsNum && rIsNum {
		switch {
		case lnum < rnum:
			cmp = -1
		case lnum > rnum:
			cmp = 1
		}
	} else {
		cmp = strings.Compare(operandText(&x.a, l), operandText(&x.b, r))
	}
	switch x.op {
	case opLT:
		return cmp < 0
	case opLE:
		return cmp <= 0
	case opGT:
		return cmp > 0
	case opGE:
		return cmp >= 0
	case opEQ:
		return cmp == 0
	case opNE:
		return cmp != 0
	}
	return false
}

// operand resolves one side of a comparison: its text (empty for a numeric
// constant, whose text operandText renders on demand), its numeric reading,
// and whether it has a value at all.
func (ev *evaluator) operand(o *compiledOperand) (text string, num float64, isNum, ok bool) {
	switch o.kind {
	case operandNum, operandStr:
		return o.str, o.num, o.isNum, true
	case operandSlot:
		if !ev.bound[o.slot] {
			return "", 0, false, false
		}
		text = ev.vals[o.slot].Value
		num, isNum = numericValue(text)
		return text, num, isNum, true
	}
	return "", 0, false, false
}

// operandText is the text a side compares as when the other side is not a
// number: a numeric constant in its shortest decimal form.
func operandText(o *compiledOperand, text string) string {
	if o.kind == operandNum {
		return strconv.FormatFloat(o.num, 'f', -1, 64)
	}
	return text
}

// numericValue reads a term value or string constant as a number, the way
// strconv.ParseFloat does after trimming space. Text that cannot start a
// number — every IRI — is turned away before ParseFloat builds an error for
// it.
func numericValue(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
	default:
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}
