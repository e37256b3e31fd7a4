package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"galo/internal/catalog"
)

// ResolveError reports a query that parses but does not fit the schema: an
// unknown table or alias, an unknown or ambiguous column, a self-comparison.
// Like a parse error it is the mistake of whoever wrote the query, which is
// what callers that answer for one (errors.As) need to tell from a failure of
// their own.
type ResolveError struct{ msg string }

func (e *ResolveError) Error() string { return e.msg }

func resolveErrorf(format string, args ...any) error {
	return &ResolveError{msg: fmt.Sprintf("sqlparser: "+format, args...)}
}

// Resolve binds every column reference in the query to the table reference
// (alias) that defines it, using the schema. After Resolve, every ColumnRef
// has a non-empty Table field naming the FROM-clause reference (alias when
// present). Resolve also validates that every referenced table exists. Every
// error it returns is a *ResolveError.
func Resolve(q *Query, schema *catalog.Schema) error {
	if len(q.From) == 0 {
		return resolveErrorf("query has no FROM clause")
	}
	// Validate tables and build alias -> table map.
	aliasToTable := make(map[string]string, len(q.From))
	for _, tr := range q.From {
		if schema.Table(tr.Table) == nil {
			return resolveErrorf("unknown table %s", tr.Table)
		}
		aliasToTable[strings.ToUpper(tr.Name())] = strings.ToUpper(tr.Table)
	}
	resolveRef := func(c *ColumnRef) error {
		c.Column = strings.ToUpper(c.Column)
		if c.Table != "" {
			c.Table = strings.ToUpper(c.Table)
			tbl, ok := aliasToTable[c.Table]
			if !ok {
				return resolveErrorf("column %s references unknown table/alias %s", c, c.Table)
			}
			if !schema.Table(tbl).HasColumn(c.Column) {
				return resolveErrorf("table %s has no column %s", tbl, c.Column)
			}
			return nil
		}
		// Unqualified: find owning table among FROM entries.
		var owner string
		for _, tr := range q.From {
			if schema.Table(tr.Table).HasColumn(c.Column) {
				if owner != "" && owner != strings.ToUpper(tr.Name()) {
					return resolveErrorf("column %s is ambiguous", c.Column)
				}
				owner = strings.ToUpper(tr.Name())
			}
		}
		if owner == "" {
			return resolveErrorf("column %s not found in any FROM table", c.Column)
		}
		c.Table = owner
		return nil
	}
	for i := range q.Select {
		if err := resolveRef(&q.Select[i]); err != nil {
			return err
		}
	}
	for i := range q.Where {
		if err := resolveRef(&q.Where[i].Left); err != nil {
			return err
		}
		if q.Where[i].Kind == PredJoin {
			if err := resolveRef(&q.Where[i].Right); err != nil {
				return err
			}
			// A column=column predicate within the same table reference is a
			// local predicate, not a join.
			if q.Where[i].Left.Table == q.Where[i].Right.Table {
				return resolveErrorf("self-comparison %s is not supported", q.Where[i])
			}
		}
	}
	for i := range q.GroupBy {
		if err := resolveRef(&q.GroupBy[i]); err != nil {
			return err
		}
	}
	for i := range q.OrderBy {
		if err := resolveRef(&q.OrderBy[i]); err != nil {
			return err
		}
	}
	return nil
}

// LocalTo reports whether p is a local predicate of the FROM reference named
// refName.
func (p *Predicate) LocalTo(refName string) bool {
	return !p.IsJoin() && strings.EqualFold(p.Left.Table, refName)
}

// ResolvedAs reports whether name is t's name as Resolve writes it into the
// columns of t: t.Name() upper-cased. It compares rune by rune, without
// building the upper-cased name.
func (t TableRef) ResolvedAs(name string) bool {
	for _, r := range t.Name() {
		u, size := utf8.DecodeRuneInString(name)
		// ToUpper writes an invalid byte as U+FFFD, never as itself.
		if size == 0 || u != unicode.ToUpper(r) || u == utf8.RuneError && size == 1 {
			return false
		}
		name = name[size:]
	}
	return name == ""
}

// PredicatesFor returns the local predicates that apply to the given FROM
// reference name.
func PredicatesFor(q *Query, refName string) []Predicate {
	var out []Predicate
	for _, p := range q.Where {
		if p.LocalTo(refName) {
			out = append(out, p)
		}
	}
	return out
}

// JoinsBetween returns the join predicates connecting the two FROM reference
// names, in either direction.
func JoinsBetween(q *Query, a, b string) []Predicate {
	var out []Predicate
	for _, p := range q.Where {
		if p.IsJoin() && ((strings.EqualFold(p.Left.Table, a) && strings.EqualFold(p.Right.Table, b)) ||
			(strings.EqualFold(p.Left.Table, b) && strings.EqualFold(p.Right.Table, a))) {
			out = append(out, p)
		}
	}
	return out
}
