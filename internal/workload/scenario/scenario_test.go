package scenario

import (
	"testing"

	"galo/internal/catalog"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

func tinyDatabase(t *testing.T, rows ...storage.Row) *storage.Database {
	t.Helper()
	s := catalog.NewSchema("TINY")
	s.AddTable(catalog.NewTable("T",
		catalog.Column{Name: "a", Type: catalog.KindInt},
		catalog.Column{Name: "b", Type: catalog.KindString},
	))
	s.AddTable(catalog.NewTable("U", catalog.Column{Name: "c", Type: catalog.KindInt}))
	db := storage.NewDatabase(catalog.New(s))
	if err := db.Insert("T", rows...); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFingerprintCoversEveryValueInOrder: equal databases fingerprint equal,
// and changing a value, the row order or the row count changes the
// fingerprint.
func TestFingerprintCoversEveryValueInOrder(t *testing.T) {
	row := func(a int64, b string) storage.Row { return storage.Row{catalog.Int(a), catalog.String(b)} }
	base := Fingerprint(tinyDatabase(t, row(1, "x"), row(2, "y")))
	if again := Fingerprint(tinyDatabase(t, row(1, "x"), row(2, "y"))); again != base {
		t.Error("equal databases fingerprint differently")
	}
	for name, db := range map[string]*storage.Database{
		"a changed value": tinyDatabase(t, row(1, "x"), row(2, "z")),
		"swapped rows":    tinyDatabase(t, row(2, "y"), row(1, "x")),
		"one row fewer":   tinyDatabase(t, row(1, "x")),
	} {
		if Fingerprint(db) == base {
			t.Errorf("%s does not change the fingerprint", name)
		}
	}
}

// TestFingerprintQueriesCoversNamesTextAndOrder: the query-list digest
// follows each query's name and SQL text, and their order.
func TestFingerprintQueriesCoversNamesTextAndOrder(t *testing.T) {
	query := func(name, sql string) *sqlparser.Query {
		q := sqlparser.MustParse(sql)
		q.Name = name
		return q
	}
	a, b := query("Q1", "SELECT a FROM t WHERE a = 1"), query("Q2", "SELECT b FROM t WHERE a = 2")
	base := FingerprintQueries([]*sqlparser.Query{a, b})
	if FingerprintQueries([]*sqlparser.Query{query("Q1", "select a from T where a=1"), b}) != base {
		t.Error("one query in other spelling changes the digest")
	}
	for name, qs := range map[string][]*sqlparser.Query{
		"swapped":     {b, a},
		"renamed":     {query("Q9", "SELECT a FROM t WHERE a = 1"), b},
		"another sql": {query("Q1", "SELECT a FROM t WHERE a = 3"), b},
		"truncated":   {a},
	} {
		if FingerprintQueries(qs) == base {
			t.Errorf("%s list has the same digest", name)
		}
	}
}
