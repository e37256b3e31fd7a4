package sqlparser

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"galo/internal/catalog"
)

// Parse parses a single SELECT statement in the supported subset and returns
// its AST.
func Parse(sql string) (*Query, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, sql: sql}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("sqlparser: unexpected trailing input near %q", p.peek().text)
	}
	return q, nil
}

// MustParse parses the statement and panics on error; intended for tests and
// static workload definitions.
func MustParse(sql string) *Query {
	q, err := Parse(sql)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks []token
	i    int
	sql  string
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) matchKeyword(kw string) bool {
	if p.peek().kind == tokIdent && strings.EqualFold(p.peek().text, kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.matchKeyword(kw) {
		return fmt.Errorf("sqlparser: expected %s near %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) matchSymbol(sym string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == sym {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.matchSymbol(sym) {
		return fmt.Errorf("sqlparser: expected %q near %q", sym, p.peek().text)
	}
	return nil
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"GROUP": true, "ORDER": true, "BY": true, "AS": true, "JOIN": true,
	"INNER": true, "ON": true, "BETWEEN": true, "IN": true, "LIKE": true,
	"IS": true, "NOT": true, "NULL": true, "HAVING": true, "LIMIT": true,
}

func isKeyword(s string) bool { return keywords[strings.ToUpper(s)] }

func (p *parser) parseSelect() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	// select list
	if p.matchSymbol("*") {
		q.Star = true
	} else {
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			q.Select = append(q.Select, col)
			if !p.matchSymbol(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	// FROM list, with optional explicit INNER JOIN ... ON syntax.
	tr, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	q.From = append(q.From, tr)
	for {
		if p.matchSymbol(",") {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			q.From = append(q.From, tr)
			continue
		}
		// [INNER] JOIN table ON pred
		save := p.i
		if p.matchKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.matchKeyword("JOIN") {
			p.i = save
			break
		}
		jt, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		q.From = append(q.From, jt)
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		pred, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		q.Where = append(q.Where, pred)
	}
	if p.matchKeyword("WHERE") {
		for {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, pred)
			if !p.matchKeyword("AND") {
				break
			}
		}
	}
	if p.matchKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, col)
			if !p.matchSymbol(",") {
				break
			}
		}
	}
	if p.matchKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			q.OrderBy = append(q.OrderBy, col)
			if !p.matchSymbol(",") {
				break
			}
		}
	}
	return q, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t := p.peek()
	if t.kind != tokIdent || isKeyword(t.text) {
		return TableRef{}, fmt.Errorf("sqlparser: expected table name near %q", t.text)
	}
	p.next()
	tr := TableRef{Table: strings.ToUpper(t.text)}
	// optional alias (with or without AS)
	if p.matchKeyword("AS") {
		a := p.peek()
		if a.kind != tokIdent {
			return TableRef{}, fmt.Errorf("sqlparser: expected alias near %q", a.text)
		}
		p.next()
		tr.Alias = strings.ToUpper(a.text)
		return tr, nil
	}
	a := p.peek()
	if a.kind == tokIdent && !isKeyword(a.text) {
		p.next()
		tr.Alias = strings.ToUpper(a.text)
	}
	return tr, nil
}

func (p *parser) parseColumnRef() (ColumnRef, error) {
	t := p.peek()
	if t.kind != tokIdent || isKeyword(t.text) {
		return ColumnRef{}, fmt.Errorf("sqlparser: expected column near %q", t.text)
	}
	p.next()
	ref := ColumnRef{Column: strings.ToUpper(t.text)}
	if p.matchSymbol(".") {
		c := p.peek()
		if c.kind != tokIdent {
			return ColumnRef{}, fmt.Errorf("sqlparser: expected column after %q.", t.text)
		}
		p.next()
		ref.Table = ref.Column
		ref.Column = strings.ToUpper(c.text)
	}
	return ref, nil
}

func (p *parser) parseLiteral() (catalog.Value, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return catalog.Null(), fmt.Errorf("sqlparser: bad number %q: %w", t.text, err)
			}
			return catalog.Float(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return catalog.Null(), fmt.Errorf("sqlparser: bad number %q: %w", t.text, err)
		}
		return catalog.Int(i), nil
	case tokString:
		p.next()
		if isDateLiteral(t.text) {
			if d, err := catalog.ParseDate(t.text); err == nil {
				return d, nil
			}
		}
		return catalog.String(t.text), nil
	case tokIdent:
		if strings.EqualFold(t.text, "NULL") {
			p.next()
			return catalog.Null(), nil
		}
	}
	return catalog.Null(), fmt.Errorf("sqlparser: expected literal near %q", t.text)
}

var dateLiteralRE = regexp.MustCompile(`^\d{4}-\d{2}-\d{2}$`)

func isDateLiteral(s string) bool { return dateLiteralRE.MatchString(s) }

func (p *parser) parsePredicate() (Predicate, error) {
	left, err := p.parseColumnRef()
	if err != nil {
		return Predicate{}, err
	}
	// IS [NOT] NULL
	if p.matchKeyword("IS") {
		not := p.matchKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return Predicate{}, err
		}
		return Predicate{Kind: PredIsNull, Left: left, Not: not}, nil
	}
	not := p.matchKeyword("NOT")
	if p.matchKeyword("BETWEEN") {
		lo, err := p.parseLiteral()
		if err != nil {
			return Predicate{}, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return Predicate{}, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Kind: PredBetween, Left: left, Lo: lo, Hi: hi, Not: not}, nil
	}
	if p.matchKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return Predicate{}, err
		}
		var vals []catalog.Value
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return Predicate{}, err
			}
			vals = append(vals, v)
			if !p.matchSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return Predicate{}, err
		}
		return Predicate{Kind: PredIn, Left: left, Values: vals, Not: not}, nil
	}
	if p.matchKeyword("LIKE") {
		v, err := p.parseLiteral()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Kind: PredLike, Left: left, Value: v, Not: not}, nil
	}
	if not {
		return Predicate{}, fmt.Errorf("sqlparser: NOT must be followed by BETWEEN, IN or LIKE near %q", p.peek().text)
	}
	// comparison: op then column-or-literal
	op := p.peek()
	if op.kind != tokOperator {
		return Predicate{}, fmt.Errorf("sqlparser: expected operator near %q", op.text)
	}
	p.next()
	// right side: column or literal?
	r := p.peek()
	if r.kind == tokIdent && !isKeyword(r.text) && !strings.EqualFold(r.text, "NULL") {
		right, err := p.parseColumnRef()
		if err != nil {
			return Predicate{}, err
		}
		if op.text != "=" {
			// non-equality column comparison treated as join-like but rare;
			// represent as join only for '='.
			return Predicate{}, fmt.Errorf("sqlparser: column-to-column comparison only supports '=' (got %q)", op.text)
		}
		return Predicate{Kind: PredJoin, Left: left, Right: right, Op: "="}, nil
	}
	v, err := p.parseLiteral()
	if err != nil {
		return Predicate{}, err
	}
	return Predicate{Kind: PredCompare, Left: left, Op: op.text, Value: v}, nil
}
