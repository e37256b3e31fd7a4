package optimizer_test

import (
	"fmt"
	"slices"
	"testing"

	"galo/internal/catalog"
	"galo/internal/optimizer"
	"galo/internal/sqlparser"
)

// stringKeyedRewrite is the rewrite tier as it was while it keyed predicates by
// their rendered SQL and built its notes with fmt: the reference
// TestRewriteMatchesStringKeys holds the value-comparing one to.
func stringKeyedRewrite(q *sqlparser.Query) (notes []string) {
	seen := map[string]bool{}
	dedup := q.Where[:0]
	for _, p := range q.Where {
		key := p.String()
		if seen[key] {
			notes = append(notes, fmt.Sprintf("removed duplicate predicate %s", key))
			continue
		}
		seen[key] = true
		dedup = append(dedup, p)
	}
	q.Where = dedup
	var inferred []sqlparser.Predicate
	for _, jp := range q.Where {
		if !jp.IsJoin() {
			continue
		}
		for _, lp := range q.Where {
			transitive := false
			switch {
			case lp.Kind == sqlparser.PredCompare:
				switch lp.Op {
				case "=", "<", "<=", ">", ">=":
					transitive = true
				}
			case lp.Kind == sqlparser.PredBetween && !lp.Not:
				transitive = true
			}
			if !transitive {
				continue
			}
			var target sqlparser.ColumnRef
			if lp.Left == jp.Left {
				target = jp.Right
			} else if lp.Left == jp.Right {
				target = jp.Left
			} else {
				continue
			}
			cand := lp
			cand.Left = target
			if key := cand.String(); !seen[key] {
				seen[key] = true
				inferred = append(inferred, cand)
				notes = append(notes, fmt.Sprintf("inferred %s from %s and %s", key, jp.String(), lp.String()))
			}
		}
	}
	q.Where = append(q.Where, inferred...)
	for _, p := range q.Where {
		if p.Kind == sqlparser.PredBetween && !p.Not && catalog.Compare(p.Lo, p.Hi) > 0 {
			notes = append(notes, fmt.Sprintf("predicate %s can never be satisfied", p.String()))
		}
	}
	return notes
}

// rewriteEdgeQueries are queries whose predicates are equal, or nearly, in the
// ways the value comparison must get right: a float and an integer, string
// case, a date and a string, IN lists, NOT, one predicate inferred across two
// joins, an empty range.
var rewriteEdgeQueries = []string{
	`SELECT d_year FROM store_sales, date_dim WHERE ss_sold_date_sk = d_date_sk AND d_date_sk = 100 AND d_date_sk = 100.0 AND d_date_sk = 100`,
	`SELECT d_year FROM store_sales, date_dim WHERE ss_sold_date_sk = d_date_sk AND d_date_sk BETWEEN 10 AND 20 AND ss_sold_date_sk BETWEEN 10 AND 20
		AND d_date_sk NOT BETWEEN 10 AND 20 AND d_date_sk BETWEEN 20 AND 10 AND ss_sold_date_sk > 5 AND d_date_sk > 5.0`,
	`SELECT i_item_desc FROM item, web_sales WHERE ws_item_sk = i_item_sk AND i_category = 'Music' AND i_category = 'music' AND i_category = 'Music'
		AND i_category IN ('Music', 'Books') AND i_category IN ('Music', 'Books') AND i_category IN ('Music') AND i_category NOT IN ('Music', 'Books')
		AND i_brand IS NULL AND i_brand IS NOT NULL AND i_brand IS NULL AND i_category LIKE 'M%' AND i_category NOT LIKE 'M%' AND i_category LIKE 'M%'`,
	`SELECT d_year FROM date_dim, store_sales WHERE d_date = '2000-01-02' AND d_date = '2000-01-02' AND d_date <> '2000-02-30' AND d_date <> '2000-02-30'
		AND ss_sold_date_sk = d_date_sk AND d_date_sk <> 3 AND d_date_sk >= 3`,
	`SELECT ss_quantity FROM store_sales, date_dim, item WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk AND ss_item_sk = i_item_sk
		AND d_date_sk BETWEEN 2451000 AND 2451100 AND ss_sold_date_sk BETWEEN 2451000 AND 2451100 AND i_item_sk < 40 AND ss_item_sk < 40`,
}

// TestRewriteMatchesStringKeys rewrites every golden-suite query and the edge
// queries twice — by the rewrite tier and by stringKeyedRewrite — and requires
// the same rewritten WHERE clause and the same notes, string for string.
func TestRewriteMatchesStringKeys(t *testing.T) {
	o := optimizer.New(goldenTPCDS(t).Catalog, optimizer.DefaultOptions())
	check := func(name string, o *optimizer.Optimizer, q *sqlparser.Query) bool {
		byValue, byKey := q.Clone(), q.Clone()
		if sqlparser.Resolve(byValue, o.Cat.Schema) != nil || sqlparser.Resolve(byKey, o.Cat.Schema) != nil {
			return false
		}
		got, want := optimizer.Rewrite(o, byValue), stringKeyedRewrite(byKey)
		if !slices.Equal(got, want) || byValue.SQL() != byKey.SQL() {
			t.Errorf("%s: rewritten by value\n%s\n%q\nby string key\n%s\n%q", name, byValue.SQL(), got, byKey.SQL(), want)
		}
		return len(want) > 0
	}
	for i, sql := range rewriteEdgeQueries {
		if !check(fmt.Sprint("edge query ", i), o, sqlparser.MustParse(sql)) {
			t.Errorf("edge query %d resolves with no rewrite note: it checks nothing", i)
		}
	}
	withNotes := 0
	for _, c := range goldenCorpora(t) {
		o := optimizer.New(c.db.Catalog, optimizer.DefaultOptions())
		for _, q := range c.queries {
			if check(c.name+"/"+q.Name, o, q) {
				withNotes++
			}
		}
	}
	if withNotes == 0 {
		t.Error("no golden-suite query has a rewrite note")
	}
	t.Logf("%d golden-suite queries rewritten with notes", withNotes)
}
