package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"galo/internal/rdf"
)

// Parse parses a SPARQL SELECT query in the supported subset.
func Parse(text string) (*Query, error) {
	toks, err := lexQuery(text)
	if err != nil {
		return nil, err
	}
	p := &qparser{toks: toks}
	q, err := p.parse()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse parses or panics; for tests and static queries.
func MustParse(text string) *Query {
	q, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return q
}

type qparser struct {
	toks []tok
	i    int
	q    *Query
}

func (p *qparser) peek() tok { return p.toks[p.i] }
func (p *qparser) next() tok { t := p.toks[p.i]; p.i++; return t }

func (p *qparser) keyword(kw string) bool {
	if p.peek().kind == tIdent && strings.EqualFold(p.peek().text, kw) {
		p.i++
		return true
	}
	return false
}

func (p *qparser) punct(s string) bool {
	if p.peek().kind == tPunct && p.peek().text == s {
		p.i++
		return true
	}
	return false
}

func (p *qparser) expectPunct(s string) error {
	if !p.punct(s) {
		return fmt.Errorf("sparql: expected %q near %q", s, p.peek().text)
	}
	return nil
}

func (p *qparser) parse() (*Query, error) {
	p.q = &Query{Prefixes: map[string]string{}}
	for p.keyword("PREFIX") {
		name := p.next()
		if name.kind != tIdent || !strings.HasSuffix(name.text, ":") {
			return nil, fmt.Errorf("sparql: expected prefix name ending in ':' near %q", name.text)
		}
		iri := p.next()
		if iri.kind != tIRI {
			return nil, fmt.Errorf("sparql: expected IRI after PREFIX %s", name.text)
		}
		p.q.Prefixes[strings.TrimSuffix(name.text, ":")] = iri.text
	}
	if !p.keyword("SELECT") {
		return nil, fmt.Errorf("sparql: expected SELECT near %q", p.peek().text)
	}
	if p.punct("*") {
		p.q.SelectAll = true
	} else {
		for p.peek().kind == tVar {
			p.q.Select = append(p.q.Select, p.next().text)
		}
		if len(p.q.Select) == 0 {
			return nil, fmt.Errorf("sparql: SELECT needs variables or *")
		}
	}
	if !p.keyword("WHERE") {
		return nil, fmt.Errorf("sparql: expected WHERE near %q", p.peek().text)
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for {
		if p.punct("}") {
			break
		}
		if p.peek().kind == tEOF {
			return nil, fmt.Errorf("sparql: unterminated WHERE block")
		}
		if p.keyword("FILTER") {
			expr, err := p.parseFilter()
			if err != nil {
				return nil, err
			}
			p.q.Filters = append(p.q.Filters, expr)
			p.punct(".") // optional separator
			continue
		}
		pat, err := p.parsePattern()
		if err != nil {
			return nil, err
		}
		p.q.Patterns = append(p.q.Patterns, pat)
		p.punct(".") // optional trailing dot
	}
	if p.keyword("LIMIT") {
		n := p.next()
		if n.kind != tNumber {
			return nil, fmt.Errorf("sparql: LIMIT needs a number")
		}
		limit, err := strconv.Atoi(n.text)
		switch {
		case err != nil:
			return nil, err
		case limit < 0:
			return nil, fmt.Errorf("sparql: LIMIT %d is negative", limit)
		case limit == 0:
			// Query.Limit 0 means "no LIMIT clause", so a LIMIT that selects
			// nothing has no representation.
			return nil, fmt.Errorf("sparql: LIMIT 0 selects nothing and is not supported")
		}
		p.q.Limit = limit
	}
	if p.peek().kind != tEOF {
		return nil, fmt.Errorf("sparql: unexpected trailing input near %q", p.peek().text)
	}
	if len(p.q.Patterns) == 0 {
		return nil, fmt.Errorf("sparql: WHERE block has no triple patterns")
	}
	return p.q, nil
}

func (p *qparser) parseNode() (NodeRef, error) {
	t := p.peek()
	switch t.kind {
	case tVar:
		p.i++
		return Variable(t.text), nil
	case tIRI:
		p.i++
		return TermRef(rdf.NewIRI(t.text)), nil
	case tIdent:
		p.i++
		iri, err := p.expandPrefixed(t.text)
		if err != nil {
			return NodeRef{}, err
		}
		return TermRef(rdf.NewIRI(iri)), nil
	case tString:
		p.i++
		return TermRef(rdf.NewLiteral(t.text)), nil
	case tNumber:
		p.i++
		return TermRef(rdf.NewLiteral(t.text)), nil
	default:
		return NodeRef{}, fmt.Errorf("sparql: expected term or variable near %q", t.text)
	}
}

func (p *qparser) expandPrefixed(name string) (string, error) {
	idx := strings.Index(name, ":")
	if idx < 0 {
		return "", fmt.Errorf("sparql: %q is not a prefixed name", name)
	}
	prefix, local := name[:idx], name[idx+1:]
	base, ok := p.q.Prefixes[prefix]
	if !ok {
		return "", fmt.Errorf("sparql: unknown prefix %q", prefix)
	}
	return base + local, nil
}

func (p *qparser) parsePattern() (Pattern, error) {
	s, err := p.parseNode()
	if err != nil {
		return Pattern{}, err
	}
	var path []PredStep
	for {
		predNode, err := p.parseNode()
		if err != nil {
			return Pattern{}, err
		}
		if predNode.IsVar {
			return Pattern{}, fmt.Errorf("sparql: variable predicates are not supported (near ?%s)", predNode.Var)
		}
		step := PredStep{Pred: predNode.Term}
		if p.punct("+") {
			step.OneOrMore = true
		}
		path = append(path, step)
		if !p.punct("/") {
			break
		}
	}
	o, err := p.parseNode()
	if err != nil {
		return Pattern{}, err
	}
	return Pattern{S: s, O: o, Path: path}, nil
}

func (p *qparser) parseFilter() (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	expr, err := p.parseOrExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return expr, nil
}

func (p *qparser) parseOrExpr() (Expr, error) {
	left, err := p.parseAndExpr()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tOp && p.peek().text == "||" {
		p.i++
		right, err := p.parseAndExpr()
		if err != nil {
			return nil, err
		}
		left = Or{L: left, R: right}
	}
	return left, nil
}

func (p *qparser) parseAndExpr() (Expr, error) {
	left, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tOp && p.peek().text == "&&" {
		p.i++
		right, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		left = And{L: left, R: right}
	}
	return left, nil
}

func (p *qparser) parseComparison() (Expr, error) {
	if p.punct("(") {
		inner, err := p.parseOrExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	op := p.peek()
	if op.kind != tOp {
		return nil, fmt.Errorf("sparql: expected comparison operator near %q", op.text)
	}
	p.i++
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return Comparison{Op: op.text, L: left, R: right}, nil
}

func (p *qparser) parseOperand() (Operand, error) {
	t := p.peek()
	switch t.kind {
	case tVar:
		p.i++
		return Operand{Var: t.text}, nil
	case tNumber:
		p.i++
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Operand{}, err
		}
		return Operand{Num: &f}, nil
	case tString:
		p.i++
		s := t.text
		return Operand{Str: &s}, nil
	case tIdent:
		if strings.EqualFold(t.text, "STR") {
			p.i++
			if err := p.expectPunct("("); err != nil {
				return Operand{}, err
			}
			v := p.peek()
			if v.kind != tVar {
				return Operand{}, fmt.Errorf("sparql: STR() needs a variable")
			}
			p.i++
			if err := p.expectPunct(")"); err != nil {
				return Operand{}, err
			}
			return Operand{StrVar: v.text}, nil
		}
	}
	return Operand{}, fmt.Errorf("sparql: expected operand near %q", t.text)
}
