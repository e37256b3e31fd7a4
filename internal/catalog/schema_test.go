package catalog

import "testing"

func testSchema() *Schema {
	s := NewSchema("TEST")
	item := NewTable("item",
		Column{Name: "i_item_sk", Type: KindInt},
		Column{Name: "i_category", Type: KindString},
		Column{Name: "i_current_price", Type: KindFloat},
	)
	item.PrimaryKey = []string{"I_ITEM_SK"}
	if err := item.AddIndex(Index{Columns: []string{"i_item_sk"}, Unique: true, ClusterRatio: 0.95}); err != nil {
		panic(err)
	}
	sales := NewTable("web_sales",
		Column{Name: "ws_item_sk", Type: KindInt},
		Column{Name: "ws_sold_date_sk", Type: KindInt},
		Column{Name: "ws_quantity", Type: KindInt},
	)
	s.AddTable(item)
	s.AddTable(sales)
	return s
}

func TestTableColumnLookup(t *testing.T) {
	s := testSchema()
	item := s.Table("ITEM")
	if item == nil {
		t.Fatal("Table(ITEM) is nil")
	}
	if item.ColumnIndex("i_category") != 1 {
		t.Errorf("ColumnIndex(i_category) = %d", item.ColumnIndex("i_category"))
	}
	if item.ColumnIndex("I_CATEGORY") != 1 {
		t.Errorf("case-insensitive lookup failed")
	}
	if item.ColumnIndex("nope") != -1 {
		t.Errorf("missing column should return -1")
	}
	if c := item.Columns[item.ColumnIndex("i_current_price")]; c.Name != "I_CURRENT_PRICE" || c.Type != KindFloat {
		t.Errorf("Columns[ColumnIndex(i_current_price)] = %+v", c)
	}
}

func TestSchemaLookupCaseInsensitive(t *testing.T) {
	s := testSchema()
	if s.Table("item") == nil || s.Table("Item") == nil {
		t.Errorf("case-insensitive table lookup failed")
	}
	if s.Table("missing") != nil {
		t.Errorf("missing table should be nil")
	}
	if tables := s.Tables(); len(tables) != 2 || tables[0].Name != "ITEM" || tables[1].Name != "WEB_SALES" {
		t.Errorf("Tables() = %v", tables)
	}
}

func TestAddIndexValidation(t *testing.T) {
	s := testSchema()
	sales := s.Table("web_sales")
	if err := sales.AddIndex(Index{Columns: []string{"no_such_col"}}); err == nil {
		t.Errorf("AddIndex on unknown column should fail")
	}
	if err := sales.AddIndex(Index{Columns: []string{"ws_item_sk"}}); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	idx := sales.IndexByName("WEB_SALES_WS_ITEM_SK_IDX")
	if idx == nil {
		t.Fatal("IndexByName(WEB_SALES_WS_ITEM_SK_IDX) is nil: the default index name was not applied")
	}
	if idx.Table != "WEB_SALES" || idx.Columns[0] != "WS_ITEM_SK" {
		t.Errorf("index defaults not applied: %+v", idx)
	}
	if idx.ClusterRatio != 0.5 {
		t.Errorf("default cluster ratio = %v", idx.ClusterRatio)
	}
}
