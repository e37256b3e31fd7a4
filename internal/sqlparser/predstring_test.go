package sqlparser

import (
	"math"
	"strings"
	"testing"
	"time"

	"galo/internal/catalog"
)

// TestPredicateStringTable pins Predicate.String byte for byte over every
// PredKind x Not x literal kind (int, float, string with a quote, date, NULL).
// The text is inside every golden plan and every probe, and the optimizer's
// rewrite tier deduplicates on it; the expected renderings were produced by the
// fmt.Sprintf implementation this one replaced, except that NOT BETWEEN now
// keeps its NOT: the old rendering turned x NOT BETWEEN 1 AND 2 into its
// opposite (FuzzSQLParse holds the fix).
func TestPredicateStringTable(t *testing.T) {
	left, right := ColumnRef{Table: "I", Column: "I_BRAND"}, ColumnRef{Table: "WS", Column: "WS_ITEM_SK"}
	for _, c := range []struct {
		p    Predicate
		want string
	}{
		{Predicate{Kind: PredJoin, Left: left, Right: right}, "I.I_BRAND = WS.WS_ITEM_SK"},
		{Predicate{Kind: PredCompare, Left: left, Op: "=", Value: catalog.Int(-42)}, "I.I_BRAND = -42"},
		{Predicate{Kind: PredCompare, Left: left, Op: "<>", Value: catalog.Float(2.5)}, "I.I_BRAND <> 2.5"},
		{Predicate{Kind: PredCompare, Left: left, Op: "<", Value: catalog.String("O'Neil")}, "I.I_BRAND < 'O''Neil'"},
		{Predicate{Kind: PredCompare, Left: left, Op: "<=", Value: catalog.Date(1998, time.March, 7)}, "I.I_BRAND <= '1998-03-07'"},
		{Predicate{Kind: PredCompare, Left: left, Op: ">", Value: catalog.Null()}, "I.I_BRAND > NULL"},
		{Predicate{Kind: PredBetween, Left: left, Lo: catalog.Int(-42), Hi: catalog.Float(2.5)}, "I.I_BRAND BETWEEN -42 AND 2.5"},
		{Predicate{Kind: PredBetween, Left: left, Lo: catalog.Float(2.5), Hi: catalog.String("O'Neil")}, "I.I_BRAND BETWEEN 2.5 AND 'O''Neil'"},
		{Predicate{Kind: PredBetween, Left: left, Lo: catalog.String("O'Neil"), Hi: catalog.Date(1998, time.March, 7)}, "I.I_BRAND BETWEEN 'O''Neil' AND '1998-03-07'"},
		{Predicate{Kind: PredBetween, Left: left, Lo: catalog.Date(1998, time.March, 7), Hi: catalog.Null()}, "I.I_BRAND BETWEEN '1998-03-07' AND NULL"},
		{Predicate{Kind: PredBetween, Left: left, Lo: catalog.Null(), Hi: catalog.Int(-42)}, "I.I_BRAND BETWEEN NULL AND -42"},
		{Predicate{Kind: PredIn, Left: left, Values: []catalog.Value{catalog.Int(-42)}}, "I.I_BRAND IN (-42)"},
		{Predicate{Kind: PredIn, Left: left, Values: []catalog.Value{catalog.Float(2.5), catalog.String("O'Neil")}}, "I.I_BRAND IN (2.5, 'O''Neil')"},
		{Predicate{Kind: PredIn, Left: left, Values: []catalog.Value{catalog.String("O'Neil"), catalog.Date(1998, time.March, 7), catalog.Null()}}, "I.I_BRAND IN ('O''Neil', '1998-03-07', NULL)"},
		{Predicate{Kind: PredIn, Left: left, Values: []catalog.Value{catalog.Date(1998, time.March, 7)}}, "I.I_BRAND IN ('1998-03-07')"},
		{Predicate{Kind: PredIn, Left: left, Values: []catalog.Value{catalog.Null(), catalog.Int(-42)}}, "I.I_BRAND IN (NULL, -42)"},
		{Predicate{Kind: PredLike, Left: left, Value: catalog.Int(-42)}, "I.I_BRAND LIKE -42"},
		{Predicate{Kind: PredLike, Left: left, Value: catalog.Float(2.5)}, "I.I_BRAND LIKE 2.5"},
		{Predicate{Kind: PredLike, Left: left, Value: catalog.String("O'Neil")}, "I.I_BRAND LIKE 'O''Neil'"},
		{Predicate{Kind: PredLike, Left: left, Value: catalog.Date(1998, time.March, 7)}, "I.I_BRAND LIKE '1998-03-07'"},
		{Predicate{Kind: PredLike, Left: left, Value: catalog.Null()}, "I.I_BRAND LIKE NULL"},
		{Predicate{Kind: PredIsNull, Left: left}, "I.I_BRAND IS NULL"},
		{Predicate{Kind: PredIsNull + 1, Left: left}, "<?>"},
		{Predicate{Kind: PredJoin, Left: left, Right: right, Not: true}, "I.I_BRAND = WS.WS_ITEM_SK"},
		{Predicate{Kind: PredCompare, Left: left, Op: ">=", Value: catalog.Int(-42), Not: true}, "I.I_BRAND >= -42"},
		{Predicate{Kind: PredCompare, Left: left, Op: "=", Value: catalog.Float(2.5), Not: true}, "I.I_BRAND = 2.5"},
		{Predicate{Kind: PredCompare, Left: left, Op: "<>", Value: catalog.String("O'Neil"), Not: true}, "I.I_BRAND <> 'O''Neil'"},
		{Predicate{Kind: PredCompare, Left: left, Op: "<", Value: catalog.Date(1998, time.March, 7), Not: true}, "I.I_BRAND < '1998-03-07'"},
		{Predicate{Kind: PredCompare, Left: left, Op: "<=", Value: catalog.Null(), Not: true}, "I.I_BRAND <= NULL"},
		{Predicate{Kind: PredBetween, Left: left, Lo: catalog.Int(-42), Hi: catalog.Float(2.5), Not: true}, "I.I_BRAND NOT BETWEEN -42 AND 2.5"},
		{Predicate{Kind: PredBetween, Left: left, Lo: catalog.Float(2.5), Hi: catalog.String("O'Neil"), Not: true}, "I.I_BRAND NOT BETWEEN 2.5 AND 'O''Neil'"},
		{Predicate{Kind: PredBetween, Left: left, Lo: catalog.String("O'Neil"), Hi: catalog.Date(1998, time.March, 7), Not: true}, "I.I_BRAND NOT BETWEEN 'O''Neil' AND '1998-03-07'"},
		{Predicate{Kind: PredBetween, Left: left, Lo: catalog.Date(1998, time.March, 7), Hi: catalog.Null(), Not: true}, "I.I_BRAND NOT BETWEEN '1998-03-07' AND NULL"},
		{Predicate{Kind: PredBetween, Left: left, Lo: catalog.Null(), Hi: catalog.Int(-42), Not: true}, "I.I_BRAND NOT BETWEEN NULL AND -42"},
		{Predicate{Kind: PredIn, Left: left, Values: []catalog.Value{catalog.Int(-42)}, Not: true}, "I.I_BRAND NOT IN (-42)"},
		{Predicate{Kind: PredIn, Left: left, Values: []catalog.Value{catalog.Float(2.5), catalog.String("O'Neil")}, Not: true}, "I.I_BRAND NOT IN (2.5, 'O''Neil')"},
		{Predicate{Kind: PredIn, Left: left, Values: []catalog.Value{catalog.String("O'Neil"), catalog.Date(1998, time.March, 7), catalog.Null()}, Not: true}, "I.I_BRAND NOT IN ('O''Neil', '1998-03-07', NULL)"},
		{Predicate{Kind: PredIn, Left: left, Values: []catalog.Value{catalog.Date(1998, time.March, 7)}, Not: true}, "I.I_BRAND NOT IN ('1998-03-07')"},
		{Predicate{Kind: PredIn, Left: left, Values: []catalog.Value{catalog.Null(), catalog.Int(-42)}, Not: true}, "I.I_BRAND NOT IN (NULL, -42)"},
		{Predicate{Kind: PredLike, Left: left, Value: catalog.Int(-42), Not: true}, "I.I_BRAND NOT LIKE -42"},
		{Predicate{Kind: PredLike, Left: left, Value: catalog.Float(2.5), Not: true}, "I.I_BRAND NOT LIKE 2.5"},
		{Predicate{Kind: PredLike, Left: left, Value: catalog.String("O'Neil"), Not: true}, "I.I_BRAND NOT LIKE 'O''Neil'"},
		{Predicate{Kind: PredLike, Left: left, Value: catalog.Date(1998, time.March, 7), Not: true}, "I.I_BRAND NOT LIKE '1998-03-07'"},
		{Predicate{Kind: PredLike, Left: left, Value: catalog.Null(), Not: true}, "I.I_BRAND NOT LIKE NULL"},
		{Predicate{Kind: PredIsNull, Left: left, Not: true}, "I.I_BRAND IS NOT NULL"},
		{Predicate{Kind: PredIsNull + 1, Left: left, Not: true}, "<?>"},
		{Predicate{Kind: PredIn, Left: left}, "I.I_BRAND IN ()"},
		{Predicate{Kind: PredJoin, Left: ColumnRef{Column: "A"}, Right: ColumnRef{Column: "B"}}, "A = B"},
		{Predicate{Kind: PredCompare, Left: ColumnRef{Column: "A"}, Op: ">=", Value: catalog.Int(7)}, "A >= 7"},
	} {
		if got := c.p.String(); got != c.want {
			t.Errorf("%+v renders %q, want %q", c.p, got, c.want)
		}
	}
}

// TestPredicateEqualMatchesString checks Predicate.Equal against String over
// every pair of predicates that render alike or nearly: the literal kinds of
// TestPredicateStringTable, −0 and +0, NaNs of two bit patterns, an integer
// and a float that print alike (-1) and apart (1, 1.0), a string that reads
// as a date, booleans and values with their unused fields set, IN lists, NOT
// where it prints and where it does not, a join's Op, and unknown kinds.
// Equal must hold exactly when the renderings are equal.
func TestPredicateEqualMatchesString(t *testing.T) {
	left, other := ColumnRef{Table: "I", Column: "I_BRAND"}, ColumnRef{Column: "I_BRAND"}
	date := catalog.Date(1998, time.March, 7)
	values := []catalog.Value{
		catalog.Null(), catalog.Int(-1), catalog.Int(1), catalog.Int(0), catalog.Float(-1), catalog.Float(1), catalog.Float(0),
		catalog.Float(math.Copysign(0, -1)), catalog.Float(math.NaN()), catalog.Float(math.Float64frombits(0x7ff8000000000001)),
		catalog.Float(math.Inf(1)), catalog.Float(2.5), catalog.String("O'Neil"), catalog.String("o'neil"), catalog.String("1998-03-07"),
		date, catalog.String("-1"), {K: catalog.KindBool, I: 1}, {K: catalog.KindBool, I: 2}, {K: catalog.KindBool},
		{K: catalog.KindInt, I: 1, F: 3, S: "x"}, {K: catalog.KindString, S: "O'Neil", I: 9},
	}
	var preds []Predicate
	for _, not := range []bool{false, true} {
		for _, l := range []ColumnRef{left, other} {
			preds = append(preds,
				Predicate{Kind: PredJoin, Left: l, Right: other, Op: "=", Not: not},
				Predicate{Kind: PredJoin, Left: l, Right: other, Not: not},
				Predicate{Kind: PredIsNull, Left: l, Not: not},
				Predicate{Kind: PredIsNull + 1, Left: l, Not: not},
				Predicate{Kind: PredIsNull + 2, Left: l, Not: not},
				Predicate{Kind: PredIn, Left: l, Not: not},
			)
			for i, v := range values {
				w := values[(i+1)%len(values)]
				preds = append(preds,
					Predicate{Kind: PredCompare, Left: l, Op: "=", Value: v, Not: not},
					Predicate{Kind: PredCompare, Left: l, Op: "<", Value: v, Not: not},
					Predicate{Kind: PredBetween, Left: l, Lo: v, Hi: w, Not: not},
					Predicate{Kind: PredBetween, Left: l, Lo: w, Hi: v, Not: not},
					Predicate{Kind: PredIn, Left: l, Values: []catalog.Value{v}, Not: not},
					Predicate{Kind: PredIn, Left: l, Values: []catalog.Value{v, w}, Not: not},
					Predicate{Kind: PredLike, Left: l, Value: v, Not: not},
				)
			}
		}
	}
	equal := 0
	for _, a := range preds {
		for _, b := range preds {
			same := a.String() == b.String()
			if got := a.Equal(b); got != same {
				t.Errorf("%q Equal %q is %v, their renderings equal: %v\n%+v\n%+v", a, b, got, same, a, b)
			}
			if same {
				equal++
			}
		}
	}
	if equal <= len(preds) {
		t.Errorf("only %d equal pairs among %d predicates: no pair of distinct predicates renders alike", equal, len(preds))
	}
}

// TestResolvedAs checks TableRef.ResolvedAs against strings.ToUpper, over
// names whose upper case is not their fold (a dotless i, a Kelvin sign, a
// sharp s) and invalid UTF-8, which ToUpper writes as U+FFFD.
func TestResolvedAs(t *testing.T) {
	names := []string{"", "store_sales", "STORE_SALES", "Store_Sales", "ss", "store_sale", "ı", "I", "i", "K", "K", "k", "ß", "SS", "\xff", "�", "a\xffb", "A�B", "ǅ", "Ǆ"}
	for _, table := range names {
		for _, alias := range []string{"", "s1"} {
			ref := TableRef{Table: table, Alias: alias}
			for _, name := range names {
				if got, want := ref.ResolvedAs(name), strings.ToUpper(ref.Name()) == name; got != want {
					t.Errorf("%+v ResolvedAs(%q) = %v, want %v", ref, name, got, want)
				}
			}
		}
	}
}
