package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"galo/internal/catalog"
)

// tokenBufs recycles the token slices Parse lexes into: a token only points
// into the input, so nothing the AST keeps refers to the slice.
var tokenBufs = sync.Pool{New: func() any { return new([]token) }}

// Parse parses a single SELECT statement in the supported subset and returns
// its AST.
func Parse(sql string) (*Query, error) {
	buf := tokenBufs.Get().(*[]token)
	toks, err := lex(sql, (*buf)[:0])
	defer func() {
		clear(toks) // drop the references into sql
		*buf = toks[:0]
		tokenBufs.Put(buf)
	}()
	if err != nil {
		return nil, err
	}
	p := parser{toks: toks}
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
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) matchKeyword(kw string) bool {
	if t := p.peek(); t.kind == tokIdent && !t.quoted && strings.EqualFold(t.text, kw) {
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

var keywords = [...]string{
	"SELECT", "FROM", "WHERE", "AND", "OR", "GROUP", "ORDER", "BY", "AS", "JOIN",
	"INNER", "ON", "BETWEEN", "IN", "LIKE", "IS", "NOT", "NULL", "HAVING", "LIMIT",
}

// isKeyword reports whether s is a keyword, in any case.
func isKeyword(s string) bool {
	for _, kw := range keywords {
		if len(kw) == len(s) && strings.EqualFold(kw, s) {
			return true
		}
	}
	return false
}

// isName reports whether t is an identifier that is not a keyword.
func isName(t token) bool { return t.kind == tokIdent && (t.quoted || !isKeyword(t.text)) }

func (p *parser) parseSelect() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{Star: p.matchSymbol("*")}
	var err error
	if !q.Star {
		if q.Select, err = p.parseColumnList(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	// FROM list, with optional explicit [INNER] JOIN table ON pred syntax.
	for join := false; ; {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		q.From = append(q.From, tr)
		if join {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			if err := p.parseConjunct(q); err != nil {
				return nil, err
			}
		}
		if join = p.matchKeyword("INNER"); join {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if join = p.matchKeyword("JOIN"); !join && !p.matchSymbol(",") {
			break
		}
	}
	if p.matchKeyword("WHERE") {
		for {
			if err := p.parseConjunct(q); err != nil {
				return nil, err
			}
			if !p.matchKeyword("AND") {
				break
			}
		}
	}
	for _, by := range [...]struct {
		keyword string
		cols    *[]ColumnRef
	}{{"GROUP", &q.GroupBy}, {"ORDER", &q.OrderBy}} {
		if p.matchKeyword(by.keyword) {
			if err := p.expectKeyword("BY"); err != nil {
				return nil, err
			}
			if *by.cols, err = p.parseColumnList(); err != nil {
				return nil, err
			}
		}
	}
	return q, nil
}

// parseConjunct appends the next predicate to q.Where, sizing it on first use
// for one predicate after every ON, WHERE or AND that is left.
func (p *parser) parseConjunct(q *Query) error {
	if q.Where == nil {
		n := 1
		for _, t := range p.toks[p.i:] {
			if t.kind == tokIdent && !t.quoted && len(t.text) <= 5 &&
				(strings.EqualFold(t.text, "AND") || strings.EqualFold(t.text, "ON") || strings.EqualFold(t.text, "WHERE")) {
				n++
			}
		}
		q.Where = make([]Predicate, 0, n)
	}
	pred, err := p.parsePredicate()
	q.Where = append(q.Where, pred)
	return err
}

// parseColumnList reads column references separated by commas.
func (p *parser) parseColumnList() ([]ColumnRef, error) {
	var cols []ColumnRef
	for {
		col, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		if cols = append(cols, col); !p.matchSymbol(",") {
			return cols, nil
		}
	}
}

// parseTableRef reads a table name and its optional alias. An alias equal to
// the table name is dropped: it names nothing the table name does not.
func (p *parser) parseTableRef() (TableRef, error) {
	t := p.peek()
	if !isName(t) {
		return TableRef{}, fmt.Errorf("sqlparser: expected table name near %q", t.text)
	}
	p.next()
	tr := TableRef{Table: strings.ToUpper(t.text)}
	// optional alias (with or without AS)
	a := p.peek()
	if p.matchKeyword("AS") {
		if a = p.peek(); a.kind != tokIdent {
			return TableRef{}, fmt.Errorf("sqlparser: expected alias near %q", a.text)
		}
	} else if !isName(a) {
		return tr, nil
	}
	p.next()
	if alias := strings.ToUpper(a.text); !strings.EqualFold(alias, tr.Table) {
		tr.Alias = alias
	}
	return tr, nil
}

func (p *parser) parseColumnRef() (ColumnRef, error) {
	t := p.peek()
	if !isName(t) {
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
		if p.matchKeyword("NULL") {
			return catalog.Null(), nil
		}
	}
	return catalog.Null(), fmt.Errorf("sqlparser: expected literal near %q", t.text)
}

// isDateLiteral reports whether s has the shape YYYY-MM-DD.
func isDateLiteral(s string) bool {
	ok := len(s) == 10
	for i := 0; ok && i < len(s); i++ {
		ok = (s[i] == '-') == (i == 4 || i == 7) && (s[i] == '-' || '0' <= s[i] && s[i] <= '9')
	}
	return ok
}

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
	if isName(p.peek()) {
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
