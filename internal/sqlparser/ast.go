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
	"slices"
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

// appendSQL appends the reference as String renders it.
func (c ColumnRef) appendSQL(b []byte) []byte {
	if c.Table != "" {
		b = append(appendIdent(b, c.Table), '.')
	}
	return appendIdent(b, c.Column)
}

// quoteIdent renders an identifier so that it lexes back to itself: bare when
// it is a plain identifier other than a keyword, delimited otherwise.
func quoteIdent(s string) string {
	if plainIdent(s) {
		return s
	}
	return `"` + s + `"`
}

// appendIdent appends an identifier as quoteIdent renders it.
func appendIdent(b []byte, s string) []byte {
	if plainIdent(s) {
		return append(b, s...)
	}
	return append(append(append(b, '"'), s...), '"')
}

// plainIdent reports whether s lexes back to itself bare: a plain identifier
// other than a keyword.
func plainIdent(s string) bool {
	plain := s != "" && (s[0] < '0' || s[0] > '9')
	for i := 0; plain && i < len(s); i++ {
		plain = isIdentPart(rune(s[i]))
	}
	return plain && !isKeyword(s)
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

// String renders the predicate as SQL. It is appended into a buffer on the
// stack and allocates once, for the string: the optimizer renders the
// predicates of every plan it returns.
func (p Predicate) String() string {
	var buf [128]byte
	return string(p.appendSQL(buf[:0]))
}

// appendSQL appends the predicate as String renders it.
func (p Predicate) appendSQL(b []byte) []byte {
	if p.Kind > PredIsNull {
		return append(b, "<?>"...)
	}
	b = p.Left.appendSQL(b)
	not := ""
	if p.Not {
		not = "NOT "
	}
	switch p.Kind {
	case PredJoin:
		return p.Right.appendSQL(append(b, " = "...))
	case PredCompare:
		b = append(append(append(b, ' '), p.Op...), ' ')
		return p.Value.AppendSQLLiteral(b)
	case PredBetween:
		b = append(append(append(b, ' '), not...), "BETWEEN "...)
		return p.Hi.AppendSQLLiteral(append(p.Lo.AppendSQLLiteral(b), " AND "...))
	case PredIn:
		b = append(append(append(b, ' '), not...), "IN ("...)
		for i, v := range p.Values {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = v.AppendSQLLiteral(b)
		}
		return append(b, ')')
	case PredLike:
		b = append(append(append(b, ' '), not...), "LIKE "...)
		return p.Value.AppendSQLLiteral(b)
	default: // PredIsNull
		return append(append(append(b, " IS "...), not...), "NULL"...)
	}
}

// Equal reports whether p and o render the same String, without rendering
// either: the optimizer's rewrite tier compares predicates this way. A field
// the kind does not print is not compared (the NOT of a join or comparison,
// the Op of a join), literals compare as catalog.Value.SameLiteral does, and
// column references as values, since an identifier holds no double quote (the
// lexer ends a delimited one at the first) and so renders as no other does.
func (p Predicate) Equal(o Predicate) bool {
	if p.Kind > PredIsNull || o.Kind > PredIsNull {
		return p.Kind > PredIsNull && o.Kind > PredIsNull // both "<?>"
	}
	if p.Kind != o.Kind || p.Left != o.Left {
		return false
	}
	switch p.Kind {
	case PredJoin:
		return p.Right == o.Right
	case PredCompare:
		return p.Op == o.Op && p.Value.SameLiteral(o.Value)
	}
	if p.Not != o.Not {
		return false
	}
	switch p.Kind {
	case PredBetween:
		return p.Lo.SameLiteral(o.Lo) && p.Hi.SameLiteral(o.Hi)
	case PredIn:
		return slices.EqualFunc(p.Values, o.Values, catalog.Value.SameLiteral)
	case PredLike:
		return p.Value.SameLiteral(o.Value)
	}
	return true // PredIsNull
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
	cp := new(Query)
	q.CloneInto(cp, 0)
	return cp
}

// CloneInto deep-copies the query into cp, with room in cp.Where for room more
// predicates, so that appending them does not regrow it.
func (q *Query) CloneInto(cp *Query, room int) {
	*cp = *q
	cp.Select = append([]ColumnRef(nil), q.Select...)
	cp.From = append([]TableRef(nil), q.From...)
	cp.Where = append(make([]Predicate, 0, len(q.Where)+room), q.Where...)
	for i, p := range q.Where {
		cp.Where[i].Values = append([]catalog.Value(nil), p.Values...)
	}
	cp.GroupBy = append([]ColumnRef(nil), q.GroupBy...)
	cp.OrderBy = append([]ColumnRef(nil), q.OrderBy...)
}
