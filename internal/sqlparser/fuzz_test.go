package sqlparser_test

import (
	"reflect"
	"testing"

	"galo/internal/sqlparser"
	"galo/internal/workload/client"
	"galo/internal/workload/joblike"
	"galo/internal/workload/ohlc"
	"galo/internal/workload/scenario"
	"galo/internal/workload/tpcds"
	"galo/internal/workload/trace"
)

// fuzzSeeds are hand-written inputs beside the workloads' queries: every
// construct of the subset, the inputs Parse must reject, and one input per
// round-trip bug fixed with this target.
var fuzzSeeds = []string{
	`SELECT s.ws_quantity FROM web_sales AS s INNER JOIN item i ON s.ws_item_sk = i.i_item_sk WHERE i.i_category = 'Music'`,
	`SELECT * FROM item WHERE i_current_price BETWEEN 10 AND 20.5 AND i_category IN ('Music', 'Books') AND i_class LIKE 'ath%'
		AND i_brand IS NOT NULL AND i_size IS NULL AND i_item_sk <> 5 AND i_wholesale_cost >= 3 AND i_x != 2`,
	`SELECT a FROM t WHERE d = '2016-01-02' AND e = '2016-02-30' AND f = 'O''Neil' AND g NOT LIKE 'x%' AND h NOT IN (1, 2.5, NULL)`,
	"SELECT \"i_category\" FROM item -- trailing comment\nWHERE i_current_price > 1e3;",
	`SELECT i_category, i_class FROM item WHERE i_current_price > 5 GROUP BY i_category, i_class ORDER BY i_category`,
	// Round-trip bugs: NOT BETWEEN rendered without its NOT; an integral float
	// rendered as an integer; an alias equal to its table rendered away; a
	// delimited identifier that is a keyword, or not a plain identifier,
	// rendered bare.
	`SELECT a FROM t WHERE a NOT BETWEEN 1 AND 2`,
	`SELECT a FROM t WHERE a = 1.0`,
	`SELECT a FROM t t`,
	`SELECT "select" FROM t AS "from" WHERE "null" = 1`,
	`SELECT "a b" FROM "1t"`,
	"SELECT \"é\", µ, ª FROM \xc3\xc3",
	"", "SELECT", "SELECT * FROM", "SELECT * FROM item WHERE i_a < i_b", "SELECT * FROM item WHERE i_x @ 3",
	"SELECT * FROM t WHERE a = 'unterminated", "SELECT * FROM t WHERE a = 1e999",
	// Predicates that render alike, or nearly, for the value comparison: zeros
	// (the lexer reads no sign, so −0 is a parse error), NaN (which SQL cannot
	// write: it parses as a column), an integer and a float, quoted strings
	// that differ only in case, a date and a string shaped like one, IN lists,
	// and NOT.
	`SELECT a FROM t WHERE a = 0 AND a = 0.0 AND a = 0e0 AND a = 00 AND a = -0.0`,
	`SELECT a FROM t WHERE a = NaN AND a = 'NaN' AND a = nan AND a = 1e400`,
	`SELECT a FROM t WHERE a = 1 AND a = 1.0 AND a = 1e0 AND a = 10e-1 AND a = 01 AND t.a = 1`,
	`SELECT a FROM t WHERE a = 'Music' AND a = 'music' AND a = 'MUSIC' AND a = "Music" AND a = 'Music'`,
	`SELECT a FROM t WHERE a = '2016-01-02' AND a = '2016-01-02' AND a = '2016-1-2' AND a = '2016-02-30' AND a = '2016-02-30'`,
	`SELECT a FROM t WHERE a IN (1, 2) AND a IN (1, 2) AND a IN (1.0, 2) AND a IN (2, 1) AND a IN (1) AND a NOT IN (1, 2)`,
	`SELECT a FROM t WHERE a BETWEEN 1 AND 2 AND a NOT BETWEEN 1 AND 2 AND a LIKE 'x%' AND a NOT LIKE 'x%' AND a IS NULL AND a IS NOT NULL AND a = b AND b = a`,
}

// FuzzSQLParse: Parse never panics, whatever it accepts renders through
// Query.SQL to text that parses again to an equal AST, and any two of its
// predicates are Equal exactly when their String renderings are equal — also
// with the second one's column set to the first's, so that pairs which differ
// only past the column are common.
func FuzzSQLParse(f *testing.F) {
	for _, sql := range fuzzSeeds {
		f.Add(sql)
	}
	queries := append(tpcds.Queries(), client.Queries()...)
	for _, sc := range []scenario.Scenario{ohlc.New(), joblike.New(), trace.New()} {
		queries = append(queries, sc.HazardQueries(nil, 0)...)
	}
	for _, q := range queries {
		f.Add(q.SQL())
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := sqlparser.Parse(sql)
		if err != nil {
			return
		}
		rendered := q.SQL()
		again, err := sqlparser.Parse(rendered)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", sql, rendered, err)
		}
		if !reflect.DeepEqual(q, again) {
			t.Fatalf("%q renders as %q, which parses to another query:\n%#v\n%#v", sql, rendered, q, again)
		}
		for _, a := range q.Where {
			for _, b := range q.Where {
				for _, b := range []sqlparser.Predicate{b, withLeft(b, a.Left)} {
					if got, want := a.Equal(b), a.String() == b.String(); got != want {
						t.Fatalf("%q: %q Equal %q is %v, their renderings equal: %v", sql, a, b, got, want)
					}
				}
			}
		}
	})
}

func withLeft(p sqlparser.Predicate, left sqlparser.ColumnRef) sqlparser.Predicate {
	p.Left = left
	return p
}
