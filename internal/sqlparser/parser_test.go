package sqlparser

import (
	"regexp"
	"strings"
	"testing"

	"galo/internal/catalog"
)

const figure3Query = `SELECT i_item_desc, i_category, i_class, i_current_price
FROM web_sales, item, date_dim
WHERE ws_item_sk = i_item_sk and
      i_category = 'Jewelry' and
      ws_sold_date_sk = d_date_sk and
      d_date = '2016-01-02'`

func TestParseFigure3Query(t *testing.T) {
	q, err := Parse(figure3Query)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.Select) != 4 {
		t.Errorf("Select has %d items", len(q.Select))
	}
	if len(q.From) != 3 {
		t.Errorf("From has %d tables", len(q.From))
	}
	if got := q.NumJoins(); got != 2 {
		t.Errorf("NumJoins = %d, want 2", got)
	}
	if got := len(q.Where) - q.NumJoins(); got != 2 {
		t.Errorf("local predicates = %d, want 2", got)
	}
	// literal kinds
	var sawJewelry, sawDate bool
	for _, p := range q.Where {
		switch {
		case p.Value.K == catalog.KindString && p.Value.S == "Jewelry":
			sawJewelry = true
		case p.Value.K == catalog.KindDate:
			sawDate = true
		}
	}
	if !sawJewelry || !sawDate {
		t.Errorf("literal detection failed: jewelry=%v date=%v", sawJewelry, sawDate)
	}
	if len(q.From) != 3 || !strings.EqualFold(q.From[2].Table, "DATE_DIM") {
		t.Errorf("FROM = %v", q.From)
	}
}

func TestParseAliasesAndExplicitJoin(t *testing.T) {
	q, err := Parse(`SELECT s.ws_quantity FROM web_sales AS s INNER JOIN item i ON s.ws_item_sk = i.i_item_sk WHERE i.i_category = 'Music'`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.From) != 2 {
		t.Fatalf("From = %v", q.From)
	}
	if q.From[0].Alias != "S" || q.From[1].Alias != "I" {
		t.Errorf("aliases = %q, %q", q.From[0].Alias, q.From[1].Alias)
	}
	if q.NumJoins() != 1 {
		t.Errorf("NumJoins = %d", q.NumJoins())
	}
	if q.TableByName("s") == nil || q.TableByName("ITEM") == nil {
		t.Errorf("TableByName lookup failed")
	}
	if q.TableByName("zzz") != nil {
		t.Errorf("TableByName(zzz) should be nil")
	}
}

func TestParsePredicateForms(t *testing.T) {
	q, err := Parse(`SELECT * FROM item WHERE i_current_price BETWEEN 10 AND 20.5
		AND i_category IN ('Music', 'Books') AND i_class LIKE 'ath%'
		AND i_brand IS NOT NULL AND i_size IS NULL AND i_item_sk <> 5 AND i_wholesale_cost >= 3`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !q.Star {
		t.Errorf("Star not detected")
	}
	kinds := map[PredKind]int{}
	for _, p := range q.Where {
		kinds[p.Kind]++
	}
	if kinds[PredBetween] != 1 || kinds[PredIn] != 1 || kinds[PredLike] != 1 ||
		kinds[PredIsNull] != 2 || kinds[PredCompare] != 2 {
		t.Errorf("predicate kinds = %v", kinds)
	}
	for _, p := range q.Where {
		if p.Kind == PredIsNull && p.Left.Column == "I_BRAND" && !p.Not {
			t.Errorf("IS NOT NULL lost its NOT")
		}
	}
}

func TestParseGroupOrderBy(t *testing.T) {
	q, err := Parse(`SELECT i_category, i_class FROM item WHERE i_current_price > 5 GROUP BY i_category, i_class ORDER BY i_category`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.GroupBy) != 2 || len(q.OrderBy) != 1 {
		t.Errorf("GroupBy=%v OrderBy=%v", q.GroupBy, q.OrderBy)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE item SET x = 1",
		"SELECT FROM item",
		"SELECT * FROM",
		"SELECT * FROM item WHERE",
		"SELECT * FROM item WHERE i_category ==",
		"SELECT * FROM item WHERE i_category = 'unterminated",
		"SELECT * FROM item WHERE i_a < i_b",
		"SELECT * FROM item WHERE i_a NOT 5",
		"SELECT * FROM item extra tokens here now",
		"SELECT * FROM item WHERE i_x @ 3",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestSQLRoundtrip(t *testing.T) {
	q := MustParse(figure3Query)
	rendered := q.SQL()
	q2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("reparse of %q: %v", rendered, err)
	}
	if q2.SQL() != rendered {
		t.Errorf("SQL not stable:\n%s\n%s", rendered, q2.SQL())
	}
	if q2.NumJoins() != q.NumJoins() || len(q2.Where) != len(q.Where) {
		t.Errorf("roundtrip changed structure")
	}
}

func TestCloneIsDeep(t *testing.T) {
	q := MustParse(figure3Query)
	c := q.Clone()
	c.Where[0].Left.Column = "CHANGED"
	c.From[0].Alias = "X"
	if q.Where[0].Left.Column == "CHANGED" || q.From[0].Alias == "X" {
		t.Errorf("Clone shares memory with original")
	}
}

func tpcdsMiniSchema() *catalog.Schema {
	s := catalog.NewSchema("TPCDS")
	s.AddTable(catalog.NewTable("web_sales",
		catalog.Column{Name: "ws_item_sk", Type: catalog.KindInt},
		catalog.Column{Name: "ws_sold_date_sk", Type: catalog.KindInt},
		catalog.Column{Name: "ws_quantity", Type: catalog.KindInt},
	))
	s.AddTable(catalog.NewTable("item",
		catalog.Column{Name: "i_item_sk", Type: catalog.KindInt},
		catalog.Column{Name: "i_item_desc", Type: catalog.KindString},
		catalog.Column{Name: "i_category", Type: catalog.KindString},
		catalog.Column{Name: "i_class", Type: catalog.KindString},
		catalog.Column{Name: "i_current_price", Type: catalog.KindFloat},
	))
	s.AddTable(catalog.NewTable("date_dim",
		catalog.Column{Name: "d_date_sk", Type: catalog.KindInt},
		catalog.Column{Name: "d_date", Type: catalog.KindDate},
	))
	return s
}

func TestResolveQualifiesEveryColumn(t *testing.T) {
	q := MustParse(figure3Query)
	if err := Resolve(q, tpcdsMiniSchema()); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	for _, c := range q.Select {
		if c.Table == "" {
			t.Errorf("unresolved select column %v", c)
		}
	}
	for _, p := range q.Where {
		if p.Left.Table == "" {
			t.Errorf("unresolved predicate column %v", p.Left)
		}
		if p.Kind == PredJoin && p.Right.Table == "" {
			t.Errorf("unresolved join column %v", p.Right)
		}
	}
	// ws_item_sk should resolve to WEB_SALES, i_item_sk to ITEM.
	var jp Predicate
	for _, p := range q.Where {
		if p.IsJoin() {
			jp = p
			break
		}
	}
	tables := map[string]bool{q.TableByName(jp.Left.Table).Table: true, q.TableByName(jp.Right.Table).Table: true}
	if !tables["WEB_SALES"] || !tables["ITEM"] {
		t.Errorf("join resolution = %v", tables)
	}
}

func TestResolveErrors(t *testing.T) {
	s := tpcdsMiniSchema()
	cases := []string{
		"SELECT x FROM missing_table",
		"SELECT nope_col FROM item",
		"SELECT z.i_category FROM item",
		"SELECT i_category FROM item WHERE bad_col = 1",
	}
	for _, sql := range cases {
		q, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sql, err)
		}
		if err := Resolve(q, s); err == nil {
			t.Errorf("Resolve(%q) should fail", sql)
		}
	}
}

func TestPredicateHelpers(t *testing.T) {
	q := MustParse(figure3Query)
	if err := Resolve(q, tpcdsMiniSchema()); err != nil {
		t.Fatal(err)
	}
	var itemPreds []Predicate
	for _, p := range q.Where {
		if p.LocalTo("ITEM") {
			itemPreds = append(itemPreds, p)
		}
	}
	if len(itemPreds) != 1 || itemPreds[0].Value.S != "Jewelry" {
		t.Errorf("predicates local to ITEM = %v", itemPreds)
	}
	joins := JoinsBetween(q, "WEB_SALES", "ITEM")
	if len(joins) != 1 {
		t.Errorf("JoinsBetween = %v", joins)
	}
	if len(JoinsBetween(q, "ITEM", "DATE_DIM")) != 0 {
		t.Errorf("ITEM and DATE_DIM are not directly joined")
	}
}

func TestPredicateStringRendering(t *testing.T) {
	q := MustParse(`SELECT * FROM item WHERE i_category IN ('a','b') AND i_class NOT LIKE 'x%' AND i_brand IS NOT NULL`)
	joined := make([]string, 0, len(q.Where))
	for _, p := range q.Where {
		joined = append(joined, p.String())
	}
	s := strings.Join(joined, " AND ")
	for _, want := range []string{"IN ('a', 'b')", "NOT LIKE 'x%'", "IS NOT NULL"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered predicates %q missing %q", s, want)
		}
	}
}

func TestDelimitedIdentifiersAndComments(t *testing.T) {
	q, err := Parse("SELECT \"i_category\" FROM item -- trailing comment\nWHERE i_current_price > 1;")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Select[0].Column != "I_CATEGORY" {
		t.Errorf("delimited identifier = %v", q.Select[0])
	}
}

// TestDateLiteralShape holds the byte check to the regular expression it
// replaced.
func TestDateLiteralShape(t *testing.T) {
	re := regexp.MustCompile(`^\d{4}-\d{2}-\d{2}$`)
	for _, s := range []string{"2016-01-02", "0000-00-00", "2016-1-02", "2016-01-2", "20160-1-02", "2016/01/02",
		"2016-01-02 ", " 2016-01-02", "2016-01-0x", "-016-01-02", "2016--1-02", "201601-02-", "", "2016-01-02\n",
		"٢٠١٦-٠١-٠٢", "2016-01-\xff2"} {
		if got, want := isDateLiteral(s), re.MatchString(s); got != want {
			t.Errorf("isDateLiteral(%q) = %v, the expression says %v", s, got, want)
		}
	}
}
