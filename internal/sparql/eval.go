package sparql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"galo/internal/rdf"
)

// Execute evaluates the query against a pinned snapshot — one consistent
// epoch for the whole evaluation — and returns its solutions: Prepare, then
// Run with the query's own constants.
func Execute(q *Query, snap *rdf.Snapshot) ([]Solution, error) {
	pr, err := Prepare(q)
	if err != nil {
		return nil, err
	}
	return pr.Run(snap, pr.params)
}

// Prepared is a query compiled once for any number of evaluations: variables
// are slots of one binding array, filters are comparisons over slots, and
// every numeric FILTER constant is a parameter, supplied per Run. It holds no
// dictionary IDs and nothing of the Query it was built from, so it serves
// every snapshot of every store, and it is never written after Prepare: one
// Prepared may Run on many goroutines at once.
//
// Basic graph patterns are evaluated by backtracking joins in greedy
// selectivity order: at every step the evaluator picks the cheapest remaining
// pattern under the current bindings (estimated from the snapshot's
// cardinalities), so bindings produced by selective patterns propagate into
// the rest of the plan instead of being discovered by exhaustive enumeration.
// Filters are applied as soon as all of their variables are bound; numeric
// FILTER bounds on a pattern's object variable additionally route
// candidate-start resolution through the numeric band index, so patterns like
// "?pop :hasLowerCardinality ?lo . FILTER(?lo <= C)" touch only the subjects
// inside the value band instead of every subject carrying the predicate.
type Prepared struct {
	// vars names the variable slots; the constants' slots follow them.
	vars   []string
	consts []rdf.Term
	pats   []compiledPattern
	// filters and their expression nodes.
	filters []compiledFilter
	exprs   []compiledExpr
	// narrows derive, per Run, the numeric interval each variable is
	// constrained to by the query's top-level FILTER comparisons.
	narrows []narrowing
	// project lists the slots a solution carries; nil means every bound one.
	project []int
	limit   int
	// params are the numeric FILTER constants of the query prepared.
	params []float64
}

// compiledPattern is a triple pattern over slots: a constant position is a
// slot bound before evaluation starts and never unbound.
type compiledPattern struct {
	s, o int
	path []compiledStep
	// plain marks a single predicate step without '+': the shape every index
	// lookup except the subject one needs.
	plain bool
}

// compiledStep is one property-path step: the slot of its predicate.
type compiledStep struct {
	pred      int
	oneOrMore bool
}

// compiledFilter is one FILTER: its expression and the slots it reads.
type compiledFilter struct {
	root  int // index into Prepared.exprs
	slots []int
}

type exprKind uint8

const (
	exprCompare exprKind = iota
	exprAnd
	exprOr
)

// compiledExpr is one node of a FILTER expression; l and r index
// Prepared.exprs for And/Or.
type compiledExpr struct {
	kind exprKind
	op   compareOp
	l, r int
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
	operandParam
	operandStr
	operandSlot // ?var and STR(?var) alike: the bound term's value
)

// compiledOperand is one side of a comparison: a numeric parameter, a
// string constant carrying its numeric reading (taken once), or a slot.
type compiledOperand struct {
	kind  operandKind
	isNum bool
	slot  int // of operandSlot; the parameter's index for operandParam
	num   float64
	str   string
}

// narrowing says that parameter param bounds variable slot from below (lo),
// from above (hi) or both.
type narrowing struct {
	slot, param int
	lo, hi      bool
}

// varBounds is the closed numeric interval a FILTER constrains a variable
// to; nil ends are open. The band lookup it feeds is conservative — the
// FILTERs themselves still decide membership exactly — so strict and
// non-strict comparisons may share the same bound.
type varBounds struct {
	lo, hi *float64
}

// Prepare compiles the query: its variables to slots, its constants to slots
// resolved per Run, its filters to comparisons and its numeric FILTER
// constants to parameters, numbered in the order they appear.
func Prepare(q *Query) (*Prepared, error) {
	if q == nil || len(q.Patterns) == 0 {
		return nil, fmt.Errorf("sparql: empty query")
	}
	// A pattern introduces fewer than one variable and one constant on
	// average (subjects repeat, predicates too), and a filter about one
	// numeric constant, so the counts size the slot lists well.
	pr := &Prepared{
		vars: make([]string, 0, len(q.Patterns)), consts: make([]rdf.Term, 0, len(q.Patterns)),
		params: make([]float64, 0, len(q.Filters)), narrows: make([]narrowing, 0, len(q.Filters)),
		limit: q.Limit,
	}
	slots := make(map[string]int, len(q.Patterns))
	slotOf := func(name string) int {
		if s, ok := slots[name]; ok {
			return s
		}
		s := len(pr.vars)
		slots[name] = s
		pr.vars = append(pr.vars, name)
		return s
	}
	// Constants are numbered as met, negative until the variable count is
	// known: -1-c is constant c.
	consts := make(map[rdf.Term]int, len(q.Patterns))
	constOf := func(t rdf.Term) int {
		c, ok := consts[t]
		if !ok {
			c = len(pr.consts)
			consts[t] = c
			pr.consts = append(pr.consts, t)
		}
		return -1 - c
	}
	ref := func(n NodeRef) int {
		if n.IsVar {
			return slotOf(n.Var)
		}
		return constOf(n.Term)
	}
	steps := 0
	for i := range q.Patterns {
		steps += len(q.Patterns[i].Path)
	}
	stepBuf := make([]compiledStep, 0, steps)
	pr.pats = make([]compiledPattern, len(q.Patterns))
	for i := range q.Patterns {
		pat := &q.Patterns[i]
		from := len(stepBuf)
		for _, st := range pat.Path {
			stepBuf = append(stepBuf, compiledStep{pred: constOf(st.Pred), oneOrMore: st.OneOrMore})
		}
		pr.pats[i] = compiledPattern{
			s: ref(pat.S), o: ref(pat.O), path: stepBuf[from:len(stepBuf):len(stepBuf)],
			plain: len(pat.Path) == 1 && !pat.Path[0].OneOrMore,
		}
	}

	operand := func(o Operand, reads *[]int) compiledOperand {
		// The order of the cases is the order the evaluator has always
		// resolved an over-specified operand in.
		switch {
		case o.Num != nil:
			pr.params = append(pr.params, *o.Num)
			return compiledOperand{kind: operandParam, slot: len(pr.params) - 1}
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
	// expr compiles one expression node; conj says whether it is reached
	// from the top of its filter through AND alone, where a comparison of a
	// variable with a numeric constant narrows the variable (an OR branch
	// cannot, since the other branch may admit anything).
	var expr func(e Expr, reads *[]int, conj bool) int
	expr = func(e Expr, reads *[]int, conj bool) int {
		at := len(pr.exprs)
		pr.exprs = append(pr.exprs, compiledExpr{})
		var node compiledExpr
		switch x := e.(type) {
		case Comparison:
			node = compiledExpr{kind: exprCompare, op: compareOpOf(x.Op), a: operand(x.L, reads), b: operand(x.R, reads)}
			if conj {
				pr.narrow(x, node, slotOf)
			}
		case And:
			node = compiledExpr{kind: exprAnd, l: expr(x.L, reads, conj), r: expr(x.R, reads, conj)}
		case Or:
			node = compiledExpr{kind: exprOr, l: expr(x.L, reads, false), r: expr(x.R, reads, false)}
		default:
			// An expression of no known kind never holds.
			node = compiledExpr{kind: exprCompare, op: opInvalid}
		}
		pr.exprs[at] = node
		return at
	}
	pr.filters = make([]compiledFilter, len(q.Filters))
	pr.exprs = make([]compiledExpr, 0, len(q.Filters))
	// One backing array for the filters' slot lists: most read two slots.
	reads := make([]int, 0, 2*len(q.Filters))
	for i, f := range q.Filters {
		from := len(reads)
		root := expr(f, &reads, true)
		pr.filters[i] = compiledFilter{root: root, slots: reads[from:len(reads):len(reads)]}
	}
	if !q.SelectAll && len(q.Select) > 0 {
		pr.project = make([]int, len(q.Select))
		for i, v := range q.Select {
			pr.project[i] = slotOf(v)
		}
	}

	// The constants' slots follow the variables'.
	n := len(pr.vars)
	fix := func(s *int) {
		if *s < 0 {
			*s = n - 1 - *s
		}
	}
	for i := range pr.pats {
		fix(&pr.pats[i].s)
		fix(&pr.pats[i].o)
	}
	for i := range stepBuf {
		fix(&stepBuf[i].pred)
	}
	return pr, nil
}

// narrow records the bound a comparison between one variable and one numeric
// constant puts on the variable.
func (pr *Prepared) narrow(x Comparison, node compiledExpr, slotOf func(string) int) {
	// ?v > C bounds ?v from below, C > ?v from above.
	greater, less := node.op == opGT || node.op == opGE, node.op == opLT || node.op == opLE
	var n narrowing
	switch {
	case x.L.Var != "" && x.R.Num != nil:
		n = narrowing{slot: slotOf(x.L.Var), param: node.b.slot, lo: greater, hi: less}
	case x.R.Var != "" && x.L.Num != nil:
		n = narrowing{slot: slotOf(x.R.Var), param: node.a.slot, lo: less, hi: greater}
	default:
		return
	}
	if node.op == opEQ {
		n.lo, n.hi = true, true
	}
	if n.lo || n.hi {
		pr.narrows = append(pr.narrows, n)
	}
}

// Params returns the numeric FILTER constants of the query prepared, in
// parameter order: Run(snap, Params()) evaluates that query.
func (pr *Prepared) Params() []float64 { return slices.Clone(pr.params) }

// bounds derives each variable's numeric interval from the parameters.
func (pr *Prepared) bounds(params []float64) []varBounds {
	out := make([]varBounds, len(pr.vars))
	for _, n := range pr.narrows {
		c, b := &params[n.param], &out[n.slot]
		if n.lo && (b.lo == nil || *c > *b.lo) {
			b.lo = c
		}
		if n.hi && (b.hi == nil || *c < *b.hi) {
			b.hi = c
		}
	}
	return out
}

// Run evaluates the prepared query against a snapshot with the given
// parameters. Constants are resolved to dictionary IDs once — one the
// snapshot never interned means no solution — and bindings are IDs, so index
// reads hash nothing; a term is rendered only for a projected slot of an
// emitted solution. Candidates are tried in the order the solutions' LIMIT cut
// depends on: start subjects in ID order, the objects a step reaches in term
// order.
func (pr *Prepared) Run(snap *rdf.Snapshot, params []float64) ([]Solution, error) {
	if len(params) != len(pr.params) {
		return nil, fmt.Errorf("sparql: %d parameters for a query that takes %d", len(params), len(pr.params))
	}
	var results []Solution
	if pr.project != nil {
		results = []Solution{}
	}
	nv, np, nf := len(pr.vars), len(pr.pats), len(pr.filters)
	n := nv + len(pr.consts)
	ev := &evaluator{Prepared: pr, snap: snap, params: params, results: results}
	ev.vals = make([]uint32, n)
	flags := make([]bool, n+2*np+nf)
	ev.bound, flags = flags[:n:n], flags[n:]
	ev.done, flags = flags[:np:np], flags[np:]
	ev.costed, ev.applied = flags[:np:np], flags[np:]
	for c, t := range pr.consts {
		id, ok := snap.ID(t)
		if !ok {
			return results, nil
		}
		ev.vals[nv+c], ev.bound[nv+c] = id, true
	}
	ints := make([]int, np+nf)
	ev.cost, ev.trail = ints[:np:np], ints[np:np]
	ev.bounds = pr.bounds(params)
	ev.levels = make([]level, np)
	ev.match(0)
	return ev.results, nil
}

// evaluator is one Run: the prepared query, the snapshot, and the
// backtracking state.
type evaluator struct {
	*Prepared
	snap   *rdf.Snapshot
	params []float64
	bounds []varBounds // per variable slot

	vals  []uint32 // slot -> bound ID
	bound []bool
	// done marks the patterns already evaluated on the current backtracking
	// branch; the evaluator picks the cheapest not-done pattern next.
	done []bool
	// cost remembers estimate's answer while costed is set: the estimate
	// reads nothing but the snapshot and whether — and to what — the
	// pattern's s and o are bound, so it stands until one of the two is bound
	// or unbound.
	costed []bool
	cost   []int
	// applied marks the filters that have held on the current branch; trail
	// lists them in application order, so a level leaving the branch
	// un-applies exactly its own.
	applied []bool
	trail   []int
	// levels holds, per backtracking depth, the scratch its candidate lists
	// live in.
	levels  []level
	results []Solution
}

// level is the scratch of one backtracking depth: candidate lists that are
// not the snapshot's own slices are built here.
type level struct {
	starts, ends []uint32
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

// match extends the binding by the patterns left after depth of them.
func (ev *evaluator) match(depth int) {
	if ev.limit > 0 && len(ev.results) >= ev.limit {
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
	if depth == len(ev.pats) {
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
		if !ev.costed[i] {
			ev.cost[i], ev.costed[i] = ev.estimate(&ev.pats[i]), true
		}
		if ev.cost[i] < bestCost {
			best, bestCost = i, ev.cost[i]
		}
	}
	cp := &ev.pats[best]
	ev.done[best] = true
	// Candidate subjects come as chunks in ascending ID order: the bound
	// subject, the POS posting list when the object is bound and the path is
	// a single plain step, the numeric band index when FILTER bounds confine
	// the object variable, and otherwise every subject carrying the path's
	// first predicate (never the whole store). Subjects outside a band carry
	// no in-range value, so every one of their bindings would fail the
	// FILTER; subjects inside may also carry out-of-range values, which the
	// FILTER still rejects individually.
	var one [1]uint32
	spine := [1][]uint32{one[:]}
	chunks := spine[:]
	pid := ev.vals[cp.path[0].pred]
	lv := &ev.levels[depth]
	if ev.bound[cp.s] {
		one[0] = ev.vals[cp.s]
	} else if cp.plain && ev.bound[cp.o] {
		chunks = ev.snap.SubjectIDs(pid, ev.vals[cp.o])
	} else if lo, hi, ok := ev.objectBand(cp, pid); ok {
		lv.starts = ev.snap.BandSubjectIDs(pid, lo, hi, lv.starts)
		spine[0] = lv.starts
	} else {
		lv.starts = ev.snap.PredSubjectIDs(pid, lv.starts)
		spine[0] = lv.starts
	}
	for _, chunk := range chunks {
		for _, start := range chunk {
			for _, end := range ev.walk(start, cp, lv) {
				sNew, oNew, ok := ev.extend(cp, start, end)
				if ok {
					ev.match(depth + 1)
				}
				if sNew {
					ev.setBound(cp.s, false)
				}
				if oNew {
					ev.setBound(cp.o, false)
				}
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
			ev.costed[i] = false
		}
	}
}

// solution renders the current binding: the projected variables, or every
// bound one under SELECT *.
func (ev *evaluator) solution() Solution {
	if ev.project != nil {
		row := make(Solution, len(ev.project))
		for _, s := range ev.project {
			if ev.bound[s] {
				row[ev.vars[s]] = ev.snap.Term(ev.vals[s])
			}
		}
		return row
	}
	row := make(Solution, len(ev.vars))
	for s, name := range ev.vars {
		if ev.bound[s] {
			row[name] = ev.snap.Term(ev.vals[s])
		}
	}
	return row
}

// objectBand returns the numeric interval constraining the pattern's object
// variable, when the pattern is a single plain step whose object is an
// as-yet-unbound variable under FILTER bounds — the case the band index
// accelerates. The band holds numeric literals only, and a FILTER compares
// anything else as text, which a value outside the band may pass; so the band
// stands in for the predicate only when every object of the predicate is in
// it.
func (ev *evaluator) objectBand(cp *compiledPattern, pid uint32) (lo, hi *float64, ok bool) {
	if !cp.plain || ev.bound[cp.o] {
		return nil, nil, false
	}
	b := ev.bounds[cp.o]
	if b.lo == nil && b.hi == nil || ev.snap.BandCount(pid, nil, nil) != ev.snap.PredCount(pid) {
		return nil, nil, false
	}
	return b.lo, b.hi, true
}

// estimate returns the estimated number of bindings the pattern produces
// under the current binding: the subject's objects under the first predicate
// for a bound subject, the posting list for a bound object reachable through
// the POS index, the band's entries when FILTER bounds confine the object
// variable to one, and the predicate's total triple count otherwise.
func (ev *evaluator) estimate(cp *compiledPattern) int {
	pid := ev.vals[cp.path[0].pred]
	if ev.bound[cp.s] {
		return len(ev.snap.ObjectIDs(ev.vals[cp.s], pid))
	}
	if cp.plain && ev.bound[cp.o] {
		n := 0
		for _, chunk := range ev.snap.SubjectIDs(pid, ev.vals[cp.o]) {
			n += len(chunk)
		}
		return n
	}
	if lo, hi, ok := ev.objectBand(cp, pid); ok {
		return ev.snap.BandCount(pid, lo, hi)
	}
	return ev.snap.PredCount(pid)
}

// walk follows the pattern's property path from the start and returns every
// object it reaches, once each, in term order.
func (ev *evaluator) walk(start uint32, cp *compiledPattern, lv *level) []uint32 {
	if cp.plain {
		// One step reaches the subject's objects: already distinct, and
		// nearly always a single one.
		objs := ev.snap.ObjectIDs(start, ev.vals[cp.path[0].pred])
		if len(objs) < 2 {
			return objs
		}
		lv.ends = append(lv.ends[:0], objs...)
		ev.byTerm(lv.ends)
		return lv.ends
	}
	current := []uint32{start}
	for _, step := range cp.path {
		pid := ev.vals[step.pred]
		var next []uint32
		if step.oneOrMore {
			// Transitive closure of the predicate from each current node.
			for _, c := range current {
				frontier := []uint32{c}
				visited := map[uint32]bool{}
				for len(frontier) > 0 {
					n := frontier[0]
					frontier = frontier[1:]
					for _, o := range ev.snap.ObjectIDs(n, pid) {
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
				next = append(next, ev.snap.ObjectIDs(c, pid)...)
			}
		}
		ev.byTerm(next)
		current = slices.Compact(next)
	}
	return current
}

// byTerm sorts IDs into the order of their terms.
func (ev *evaluator) byTerm(ids []uint32) {
	slices.SortFunc(ids, func(a, b uint32) int { return rdf.CompareTerms(ev.snap.Term(a), ev.snap.Term(b)) })
}

// extend binds the pattern's variable positions to (start, end), reporting
// which slots it newly bound — the caller unbinds exactly those — and whether
// the pair agrees with the pattern's constants and earlier bindings.
func (ev *evaluator) extend(cp *compiledPattern, start, end uint32) (sNew, oNew, ok bool) {
	if !ev.bound[cp.s] {
		ev.vals[cp.s], sNew = start, true
		ev.setBound(cp.s, true)
	} else if ev.vals[cp.s] != start {
		return false, false, false
	}
	if !ev.bound[cp.o] {
		ev.vals[cp.o], oNew = end, true
		ev.setBound(cp.o, true)
	} else if ev.vals[cp.o] != end {
		return sNew, false, false
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
		cmp = strings.Compare(operandText(&x.a, l, lnum), operandText(&x.b, r, rnum))
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
// parameter, whose text operandText renders on demand), its numeric reading,
// and whether it has a value at all.
func (ev *evaluator) operand(o *compiledOperand) (text string, num float64, isNum, ok bool) {
	switch o.kind {
	case operandParam:
		return "", ev.params[o.slot], true, true
	case operandStr:
		return o.str, o.num, o.isNum, true
	case operandSlot:
		if !ev.bound[o.slot] {
			return "", 0, false, false
		}
		text = ev.snap.Term(ev.vals[o.slot]).Value
		num, isNum = numericValue(text)
		return text, num, isNum, true
	}
	return "", 0, false, false
}

// operandText is the text a side compares as when the other side is not a
// number: a numeric parameter in its shortest decimal form.
func operandText(o *compiledOperand, text string, num float64) string {
	if o.kind == operandParam {
		return strconv.FormatFloat(num, 'f', -1, 64)
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
