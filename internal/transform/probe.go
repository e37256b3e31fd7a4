package transform

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"galo/internal/qgm"
	"galo/internal/rdf"
	"galo/internal/sparql"
)

// MatchQueryInfo describes how to interpret the solutions of a generated
// matching query.
type MatchQueryInfo struct {
	// TemplateVar, GuidelineVar and ImprovementVar are the variables bound to
	// the matching template's resource, its guideline XML and its recorded
	// improvement.
	TemplateVar    string
	GuidelineVar   string
	ImprovementVar string
	// CanonicalVarByInstance maps each scan's table instance in the incoming
	// fragment to the variable that binds the template's canonical table
	// label for it (used to rewrite guideline TABIDs).
	CanonicalVarByInstance map[string]string
}

// ProbeSolutionLimit bounds how many matching templates one knowledge base
// probe may return: the generated SPARQL carries a LIMIT and the evaluator
// stops enumerating solutions at the bound, keeping cold probes flat even
// when a large knowledge base holds many templates matching the same
// fragment shape. The cut is by enumeration order, not by improvement — the
// matcher picks the best-improvement template *among the first k matches*,
// trading the global optimum (every match already cleared the learning
// improvement threshold, so any of them helps) for bounded probe time.
const ProbeSolutionLimit = 8

// The variables every probe binds besides its operators.
const (
	templateVar    = "template"
	guidelineVar   = "guideline"
	improvementVar = "improvement"
	probePrefix    = "predURI"
)

// Probe describes the knowledge base probe of one plan fragment: which
// problem-pattern templates have the fragment's operator types and
// outer/inner input-stream structure, with — through FILTERs — the fragment's
// estimated cardinalities inside each template operator's lower/upper bounds.
// Table and column names are deliberately not constrained: that is the
// canonical-symbol abstraction that lets patterns learned on one workload
// match another. Results are capped at ProbeSolutionLimit.
//
// One walk of the fragment (NewProbe, or ProbeSlab.Describe for the probes of
// one plan) records what the probe depends on; Key, AppendFormKey, AppendParams, Query,
// Info and Text are renderings of that record, each built only when asked
// for. The record is a copy: a Probe stays valid when the plan it came from
// is renumbered or rewritten (and, described into a slab, until the slab is
// reset).
type Probe struct {
	nodes []probeNode // pre-order, as qgm.Node.Walk visits them
	key   string
}

// probeNode is what the probe says about one operator.
type probeNode struct {
	op qgm.OpType
	// inst is the table instance of a base-table access, "" for every other
	// operator: it names the operator's variable (varName) and asks for the
	// template's canonical table label.
	inst string
	id   int
	card float64
	// outer and inner index nodes; -1 when the input is absent.
	outer, inner int
}

// NewProbe describes the probe of the given plan fragment.
func NewProbe(fragment *qgm.Node) (*Probe, error) {
	slab := ProbeSlab{nodes: make([]probeNode, 0, fragment.CountOps())}
	p, err := slab.Describe(fragment)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// ProbeSlab holds the records of several probes in one array: the probes of
// one plan, described one after another, share it, so describing them
// allocates nothing but their keys once the slab has grown. Reset empties it
// for the next plan, after which the probes described before must not be
// used.
type ProbeSlab struct {
	nodes []probeNode
}

// Grow makes room for n more operators.
func (s *ProbeSlab) Grow(n int) { s.nodes = slices.Grow(s.nodes, n) }

// Reset empties the slab, dropping what its records point at.
func (s *ProbeSlab) Reset() {
	clear(s.nodes)
	s.nodes = s.nodes[:0]
}

// Describe describes the probe of the given plan fragment, its record
// appended to the slab.
func (s *ProbeSlab) Describe(fragment *qgm.Node) (Probe, error) {
	if fragment == nil {
		return Probe{}, fmt.Errorf("transform: nil fragment")
	}
	from := len(s.nodes)
	if err := s.add(fragment, from); err != nil {
		s.nodes = s.nodes[:from]
		return Probe{}, err
	}
	// The probe's record is full: capped, so nothing appended after it can
	// reach it.
	p := Probe{nodes: s.nodes[from:len(s.nodes):len(s.nodes)]}
	var stack [256]byte
	p.key = string(p.appendKey(stack[:0], true))
	return p, nil
}

// add appends n's subtree to the slab, in pre-order; the input links index
// the record that starts at from.
func (s *ProbeSlab) add(n *qgm.Node, from int) error {
	if math.IsNaN(n.EstCardinality) || math.IsInf(n.EstCardinality, 0) {
		// The text rendering of such a bound does not parse; refuse it on
		// every path alike.
		return fmt.Errorf("transform: operator %d has no finite cardinality estimate", n.ID)
	}
	i := len(s.nodes)
	s.nodes = append(s.nodes, probeNode{op: n.Op, inst: instanceOf(n), id: n.ID, card: n.EstCardinality, outer: -1, inner: -1})
	if n.Outer != nil {
		s.nodes[i].outer = len(s.nodes) - from
		if err := s.add(n.Outer, from); err != nil {
			return err
		}
	}
	if n.Inner != nil {
		s.nodes[i].inner = len(s.nodes) - from
		if err := s.add(n.Inner, from); err != nil {
			return err
		}
	}
	return nil
}

// appendKey appends the record's fingerprint. Per operator, in pre-order, it
// holds — length-prefixed or terminated so that no two records share one —
// the operator type, the variable's name (instance or operator ID, told apart
// by a tag), with cards the cardinality in the two-decimal rendering the query
// text carries, and which inputs exist, which in pre-order fixes every
// outer/inner link.
func (p *Probe) appendKey(key []byte, cards bool) []byte {
	for i := range p.nodes {
		n := &p.nodes[i]
		key = binary.AppendUvarint(key, uint64(len(n.op)))
		key = append(key, n.op...)
		if n.inst != "" {
			key = append(key, 's')
			key = binary.AppendUvarint(key, uint64(len(n.inst)))
			key = append(key, n.inst...)
		} else {
			key = append(key, 'o')
			key = binary.AppendVarint(key, int64(n.id))
		}
		if cards {
			key = appendNum(key, n.card)
		}
		inputs := byte('0')
		if n.outer >= 0 {
			inputs |= 1
		}
		if n.inner >= 0 {
			inputs |= 2
		}
		key = append(key, inputs)
	}
	return key
}

// Key returns a compact fingerprint of the probe: two probes have equal keys
// exactly when they have equal Text, so — against an unchanged knowledge
// base — equal keys mean equal solutions. It is what probe results are
// cached and in-flight probes deduplicated under.
func (p *Probe) Key() string { return p.key }

// AppendFormKey appends the probe's form to b: Key without the
// cardinalities. Two probes of one form build queries that differ only in
// their numeric FILTER constants — AppendParams — so one compiled query
// (sparql.Prepare of either's Query) answers both. A lookup by form that
// finds its entry needs no string of its own.
func (p *Probe) AppendFormKey(b []byte) []byte { return p.appendKey(b, false) }

// AppendParams appends the numeric FILTER constants of the probe's query to
// dst, in the order sparql.Prepare numbers them: each operator's cardinality
// as the text carries it, once against the template's lower bound and once
// against its upper.
func (p *Probe) AppendParams(dst []float64) []float64 {
	for i := range p.nodes {
		b := p.nodes[i].bound()
		dst = append(dst, b, b)
	}
	return dst
}

// bound is the operator's cardinality as the query carries it: the value its
// two-decimal text parses back to.
func (n *probeNode) bound() float64 {
	var text [32]byte
	b, _ := strconv.ParseFloat(string(appendNum(text[:0], n.card)), 64)
	return b
}

// appendNum renders a cardinality bound the way the query text carries it.
func appendNum(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'f', 2, 64) }

// instanceOf returns the table instance a base-table access is named after,
// "" for every other operator.
func instanceOf(n *qgm.Node) string {
	if n.Op.IsScan() {
		return n.TableInstance
	}
	return ""
}

// appendVar renders the operator's variable name: result handlers are named
// after the table instance for base-table accesses and after the operator ID
// otherwise, as in the paper's Figure 6.
func (n *probeNode) appendVar(b []byte) []byte {
	b = append(b, "pop_"...)
	if n.inst != "" {
		return append(b, n.inst...)
	}
	return strconv.AppendInt(b, int64(n.id), 10)
}

func (n *probeNode) varName() string { return string(n.appendVar(nil)) }

// canonPrefix starts the name of the variable bound to the template's
// canonical table label for a base-table access.
const canonPrefix = "ct_"

func (n *probeNode) canonVar() string { return canonPrefix + n.inst }

// varNames returns the operators' variable names, in node order.
func (p *Probe) varNames() []string {
	names := make([]string, len(p.nodes))
	for i := range p.nodes {
		names[i] = p.nodes[i].varName()
	}
	return names
}

// Text renders the probe as SPARQL: the wire format for endpoints that are
// not in this process.
func (p *Probe) Text() string {
	b := make([]byte, 0, 512+512*len(p.nodes))
	b = append(b, "PREFIX "+probePrefix+": <"+PropBase+">\nSELECT ?"+templateVar+" ?"+guidelineVar+" ?"+improvementVar...)
	for i := range p.nodes {
		if n := &p.nodes[i]; n.inst != "" {
			b = append(b, " ?"+canonPrefix...)
			b = append(b, n.inst...)
		}
	}
	b = append(b, "\nWHERE {\n"...)
	// pattern opens " ?<subject> predURI:<prop> "; the caller appends the
	// object and " .\n".
	pattern := func(subject *probeNode, prop string) {
		b = append(b, " ?"...)
		b = subject.appendVar(b)
		b = append(b, " "+probePrefix+":"...)
		b = append(b, prop...)
		b = append(b, ' ')
	}
	bound := func(subject *probeNode, prop string, ih int, cmp string) {
		pattern(subject, prop)
		b = append(b, "?ih"...)
		b = strconv.AppendInt(b, int64(ih), 10)
		b = append(b, " .\n FILTER ( ?ih"...)
		b = strconv.AppendInt(b, int64(ih), 10)
		b = append(b, cmp...)
		b = appendNum(b, subject.card)
		b = append(b, " ) .\n"...)
	}
	input := func(subject *probeNode, prop string, child int) {
		if child < 0 {
			return
		}
		pattern(subject, prop)
		b = append(b, '?')
		b = p.nodes[child].appendVar(b)
		b = append(b, " .\n"...)
	}
	for i := range p.nodes {
		n := &p.nodes[i]
		pattern(n, PropPopType)
		b = strconv.AppendQuote(b, string(n.op))
		b = append(b, " .\n"...)
		bound(n, PropLowerCardinality, 2*i+1, " <= ")
		bound(n, PropHigherCardinality, 2*i+2, " >= ")
		if n.inst != "" {
			pattern(n, PropCanonicalTable)
			b = append(b, "?"+canonPrefix...)
			b = append(b, n.inst...)
			b = append(b, " .\n"...)
		}
		input(n, PropOuterInput, n.outer)
		input(n, PropInnerInput, n.inner)
	}
	// Template linkage from the fragment root.
	pattern(&p.nodes[0], PropInTemplate)
	b = append(b, "?"+templateVar+" .\n"+
		" ?"+templateVar+" "+probePrefix+":"+PropGuideline+" ?"+guidelineVar+" .\n"+
		" ?"+templateVar+" "+probePrefix+":"+PropImprovement+" ?"+improvementVar+" .\n"...)
	// Distinctness of matched resources, pairwise in name order.
	names := p.varNames()
	sort.Strings(names)
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			b = append(b, " FILTER (STR(?"...)
			b = append(b, names[i]...)
			b = append(b, ") != STR(?"...)
			b = append(b, names[j]...)
			b = append(b, ")) .\n"...)
		}
	}
	b = append(b, "}\nLIMIT "...)
	b = strconv.AppendInt(b, ProbeSolutionLimit, 10)
	b = append(b, '\n')
	return string(b)
}

// The predicates a probe constrains, as terms.
var (
	predPopType    = Prop(PropPopType)
	predLowerCard  = Prop(PropLowerCardinality)
	predHigherCard = Prop(PropHigherCardinality)
	predCanonical  = Prop(PropCanonicalTable)
	predOuterInput = Prop(PropOuterInput)
	predInnerInput = Prop(PropInnerInput)
	predInTemplate = Prop(PropInTemplate)
	predGuideline  = Prop(PropGuideline)
	predImprove    = Prop(PropImprovement)
)

// Query builds the probe as a parsed query, ready for sparql.Execute: deep-
// equal to sparql.Parse(p.Text()), without printing or parsing anything.
func (p *Probe) Query() *sparql.Query {
	n := len(p.nodes)
	vars := p.varNames()
	// Per operator: type and two bounds, then a label for a base-table access
	// and a pattern per input; last the three template patterns.
	canon, patterns := 0, 3*n+3
	for i := range p.nodes {
		node := &p.nodes[i]
		if node.inst != "" {
			canon++
			patterns++
		}
		if node.outer >= 0 {
			patterns++
		}
		if node.inner >= 0 {
			patterns++
		}
	}
	q := &sparql.Query{
		Prefixes: map[string]string{probePrefix: PropBase},
		Select:   make([]string, 0, 3+canon),
		Patterns: make([]sparql.Pattern, 0, patterns),
		Filters:  make([]sparql.Expr, 0, 2*n+n*(n-1)/2),
		Limit:    ProbeSolutionLimit,
	}
	q.Select = append(q.Select, templateVar, guidelineVar, improvementVar)
	// One backing array each for the single-step paths and for the numeric
	// constants the filters point at.
	steps := make([]sparql.PredStep, 0, patterns)
	nums := make([]float64, 0, 2*n)
	pattern := func(s string, pred rdf.Term, o sparql.NodeRef) {
		steps = append(steps, sparql.PredStep{Pred: pred})
		q.Patterns = append(q.Patterns, sparql.Pattern{
			S: sparql.NodeRef{IsVar: true, Var: s}, O: o, Path: steps[len(steps)-1 : len(steps) : len(steps)],
		})
	}
	variable := func(name string) sparql.NodeRef { return sparql.NodeRef{IsVar: true, Var: name} }
	for i := range p.nodes {
		node := &p.nodes[i]
		v := vars[i]
		pattern(v, predPopType, sparql.TermRef(rdf.NewLiteral(string(node.op))))
		bound := node.bound()
		for k, side := range [2]struct {
			pred rdf.Term
			cmp  string
		}{{predLowerCard, "<="}, {predHigherCard, ">="}} {
			ih := "ih" + strconv.Itoa(2*i+k+1)
			pattern(v, side.pred, variable(ih))
			nums = append(nums, bound)
			q.Filters = append(q.Filters, sparql.Comparison{
				Op: side.cmp, L: sparql.Operand{Var: ih}, R: sparql.Operand{Num: &nums[len(nums)-1]},
			})
		}
		if node.inst != "" {
			q.Select = append(q.Select, node.canonVar())
			pattern(v, predCanonical, variable(node.canonVar()))
		}
		if node.outer >= 0 {
			pattern(v, predOuterInput, variable(vars[node.outer]))
		}
		if node.inner >= 0 {
			pattern(v, predInnerInput, variable(vars[node.inner]))
		}
	}
	pattern(vars[0], predInTemplate, variable(templateVar))
	pattern(templateVar, predGuideline, variable(guidelineVar))
	pattern(templateVar, predImprove, variable(improvementVar))
	names := append([]string(nil), vars...)
	sort.Strings(names)
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			q.Filters = append(q.Filters, sparql.Comparison{
				Op: "!=", L: sparql.Operand{StrVar: names[i]}, R: sparql.Operand{StrVar: names[j]},
			})
		}
	}
	return q
}

// Info says how to read the probe's solutions.
func (p *Probe) Info() *MatchQueryInfo {
	info := &MatchQueryInfo{
		TemplateVar:            templateVar,
		GuidelineVar:           guidelineVar,
		ImprovementVar:         improvementVar,
		CanonicalVarByInstance: map[string]string{},
	}
	for i := range p.nodes {
		n := &p.nodes[i]
		if n.inst != "" {
			info.CanonicalVarByInstance[n.inst] = n.canonVar()
		}
	}
	return info
}

// FragmentMatchQuery generates the SPARQL query that probes the knowledge
// base for problem-pattern templates matching the given plan fragment, and
// how to read its solutions: NewProbe's Text and Info.
func FragmentMatchQuery(fragment *qgm.Node) (string, *MatchQueryInfo, error) {
	p, err := NewProbe(fragment)
	if err != nil {
		return "", nil, err
	}
	return p.Text(), p.Info(), nil
}
