// Package sqlparser implements the SQL subset used by the evaluation
// workloads: conjunctive SELECT-PROJECT-JOIN queries over base tables, with
// optional GROUP BY and ORDER BY.
//
// It replaces DB2's SQL front end in the paper's architecture. The parser
// produces an AST that the optimizer plans and that GALO's learning engine
// decomposes into sub-queries (Figure 3 of the paper).
package sqlparser

import (
	"fmt"
	"sort"
	"strings"

	"galo/internal/catalog"
)

// ColumnRef names a column, optionally qualified by a table name or alias.
type ColumnRef struct {
	Table  string // alias or table name; empty if unqualified
	Column string
}

// String renders the reference as it appears in SQL.
func (c ColumnRef) String() string {
	if c.Table == "" {
		return quoteIdent(c.Column)
	}
	return quoteIdent(c.Table) + "." + quoteIdent(c.Column)
}

// quoteIdent renders an identifier so that it lexes back to itself: bare when
// it is a plain identifier other than a keyword, delimited otherwise.
func quoteIdent(s string) string {
	plain := s != "" && (s[0] < '0' || s[0] > '9')
	for i := 0; plain && i < len(s); i++ {
		plain = isIdentPart(rune(s[i]))
	}
	if plain && !isKeyword(s) {
		return s
	}
	return `"` + s + `"`
}

// TableRef names a table in the FROM clause with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the name by which the table is referenced in the query: the
// alias when present, the table name otherwise.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// String renders the table reference as SQL.
func (t TableRef) String() string {
	if t.Alias != "" && !strings.EqualFold(t.Alias, t.Table) {
		return quoteIdent(t.Table) + " " + quoteIdent(t.Alias)
	}
	return quoteIdent(t.Table)
}

// PredKind enumerates the predicate forms the parser accepts.
type PredKind uint8

// Predicate kinds.
const (
	// PredJoin is column-to-column equality, e.g. ws_item_sk = i_item_sk.
	PredJoin PredKind = iota
	// PredCompare is column-to-literal comparison with =, <>, <, <=, >, >=.
	PredCompare
	// PredBetween is col BETWEEN lo AND hi.
	PredBetween
	// PredIn is col IN (v1, v2, ...).
	PredIn
	// PredLike is col LIKE 'pattern'.
	PredLike
	// PredIsNull is col IS [NOT] NULL.
	PredIsNull
)

// Predicate is one conjunct of the WHERE clause.
type Predicate struct {
	Kind   PredKind
	Left   ColumnRef
	Op     string // for PredCompare: =, <>, <, <=, >, >=
	Right  ColumnRef
	Value  catalog.Value
	Lo, Hi catalog.Value
	Values []catalog.Value
	Not    bool // for IS NOT NULL, NOT LIKE, NOT IN
}

// IsJoin reports whether the predicate joins two different table references.
func (p Predicate) IsJoin() bool { return p.Kind == PredJoin }

// String renders the predicate as SQL. It is built by concatenation, not
// fmt: the optimizer renders every predicate of every query it plans.
func (p Predicate) String() string {
	left, not := p.Left.String(), ""
	if p.Not {
		not = "NOT "
	}
	switch p.Kind {
	case PredJoin:
		return left + " = " + p.Right.String()
	case PredCompare:
		return left + " " + p.Op + " " + p.Value.SQLLiteral()
	case PredBetween:
		return left + " " + not + "BETWEEN " + p.Lo.SQLLiteral() + " AND " + p.Hi.SQLLiteral()
	case PredIn:
		var b strings.Builder
		b.WriteString(left + " " + not + "IN (")
		for i, v := range p.Values {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.SQLLiteral())
		}
		b.WriteByte(')')
		return b.String()
	case PredLike:
		return left + " " + not + "LIKE " + p.Value.SQLLiteral()
	case PredIsNull:
		return left + " IS " + not + "NULL"
	default:
		return "<?>"
	}
}

// Query is the AST of one parsed SELECT statement.
type Query struct {
	// Select lists the projected columns; Star is true for SELECT *.
	Select  []ColumnRef
	Star    bool
	From    []TableRef
	Where   []Predicate
	GroupBy []ColumnRef
	OrderBy []ColumnRef
	// Name optionally labels the query (workload query id such as "Q08").
	Name string
}

// TableByName returns the FROM entry referenced by the given alias or table
// name (case-insensitive), or nil.
func (q *Query) TableByName(name string) *TableRef {
	for i := range q.From {
		if strings.EqualFold(q.From[i].Name(), name) || strings.EqualFold(q.From[i].Table, name) {
			return &q.From[i]
		}
	}
	return nil
}

// JoinPredicates returns the column-to-column equality predicates.
func (q *Query) JoinPredicates() []Predicate { return q.predicates(true) }

// LocalPredicates returns the non-join predicates.
func (q *Query) LocalPredicates() []Predicate { return q.predicates(false) }

func (q *Query) predicates(join bool) []Predicate {
	var out []Predicate
	for _, p := range q.Where {
		if p.IsJoin() == join {
			out = append(out, p)
		}
	}
	return out
}

// NumJoins returns the number of join predicates (the paper's "join number").
func (q *Query) NumJoins() int {
	n := 0
	for i := range q.Where {
		if q.Where[i].IsJoin() {
			n++
		}
	}
	return n
}

// TableNames returns the referenced table names (not aliases), sorted and
// de-duplicated.
func (q *Query) TableNames() []string {
	seen := map[string]struct{}{}
	var out []string
	for _, t := range q.From {
		key := strings.ToUpper(t.Table)
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// SQL renders the query back to SQL text.
func (q *Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Star || len(q.Select) == 0 {
		b.WriteString("*")
	} else {
		writeList(&b, q.Select, ", ")
	}
	b.WriteString(" FROM ")
	writeList(&b, q.From, ", ")
	if len(q.Where) > 0 {
		b.WriteString(" WHERE ")
		writeList(&b, q.Where, " AND ")
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		writeList(&b, q.GroupBy, ", ")
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		writeList(&b, q.OrderBy, ", ")
	}
	return b.String()
}

func writeList[T fmt.Stringer](b *strings.Builder, items []T, sep string) {
	for i, it := range items {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(it.String())
	}
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	cp := *q
	cp.Select = append([]ColumnRef(nil), q.Select...)
	cp.From = append([]TableRef(nil), q.From...)
	cp.Where = make([]Predicate, len(q.Where))
	for i, p := range q.Where {
		pc := p
		pc.Values = append([]catalog.Value(nil), p.Values...)
		cp.Where[i] = pc
	}
	cp.GroupBy = append([]ColumnRef(nil), q.GroupBy...)
	cp.OrderBy = append([]ColumnRef(nil), q.OrderBy...)
	return &cp
}
