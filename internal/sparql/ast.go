// Package sparql implements the SPARQL subset GALO generates and evaluates
// against the RDF knowledge base: PREFIX declarations, SELECT over basic
// graph patterns, FILTER expressions with comparisons and the STR() function,
// and property paths (p+ and p1/p2), compiled once (Prepare) and evaluated
// over the dictionary IDs of a pinned rdf.Snapshot (Prepared.Run). A Run
// takes its evaluator and scratch from a pool the Prepared holds and clears
// them on entry, so it allocates its solutions and little else.
//
// It replaces Apache Jena's ARQ engine in the paper's architecture. The
// matching engine's auto-generated queries (Figure 6 of the paper) fall
// entirely within this subset.
package sparql

import (
	"fmt"
	"strings"

	"galo/internal/rdf"
)

// NodeRef is one position (subject, predicate or object) of a triple
// pattern: either a variable or a concrete RDF term.
type NodeRef struct {
	IsVar bool
	Var   string // without the leading '?'
	Term  rdf.Term
}

// Variable returns a variable node reference.
func Variable(name string) NodeRef { return NodeRef{IsVar: true, Var: strings.TrimPrefix(name, "?")} }

// TermRef returns a concrete-term node reference.
func TermRef(t rdf.Term) NodeRef { return NodeRef{Term: t} }

// String renders the node in SPARQL syntax.
func (n NodeRef) String() string {
	if n.IsVar {
		return "?" + n.Var
	}
	return n.Term.String()
}

// PredStep is one step of a property path: a predicate IRI, optionally with
// the one-or-more (+) modifier.
type PredStep struct {
	Pred      rdf.Term
	OneOrMore bool
}

// Pattern is one triple pattern of the WHERE clause. Path holds the
// predicate's property-path steps; a plain predicate is a single step.
type Pattern struct {
	S, O NodeRef
	Path []PredStep
}

// String renders the pattern in SPARQL syntax.
func (p Pattern) String() string {
	steps := make([]string, len(p.Path))
	for i, s := range p.Path {
		steps[i] = s.Pred.String()
		if s.OneOrMore {
			steps[i] += "+"
		}
	}
	return fmt.Sprintf("%s %s %s .", p.S, strings.Join(steps, "/"), p.O)
}

// Operand is one side of a comparison in a FILTER expression.
type Operand struct {
	// Exactly one of the following is meaningful.
	Var    string // variable reference (without '?')
	StrVar string // STR(?var)
	Num    *float64
	Str    *string
}

// Expr is a FILTER expression.
type Expr interface{ exprNode() }

// Comparison compares two operands with one of <, <=, >, >=, =, !=.
type Comparison struct {
	Op   string
	L, R Operand
}

// And is a conjunction of two expressions.
type And struct{ L, R Expr }

// Or is a disjunction of two expressions.
type Or struct{ L, R Expr }

func (Comparison) exprNode() {}
func (And) exprNode()        {}
func (Or) exprNode()         {}

// Query is one parsed SPARQL SELECT query.
type Query struct {
	Prefixes  map[string]string
	Select    []string // variable names without '?'
	SelectAll bool
	Patterns  []Pattern
	Filters   []Expr
	Limit     int // 0 means no limit; never negative from Parse
}

// Vars returns the variables mentioned in the query's patterns.
func (q *Query) Vars() []string {
	seen := map[string]bool{}
	var out []string
	add := func(n NodeRef) {
		if n.IsVar && !seen[n.Var] {
			seen[n.Var] = true
			out = append(out, n.Var)
		}
	}
	for _, p := range q.Patterns {
		add(p.S)
		add(p.O)
	}
	return out
}

// Solution is one result row: a binding of variable names to terms.
type Solution map[string]rdf.Term
