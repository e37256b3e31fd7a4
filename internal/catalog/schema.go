package catalog

import (
	"fmt"
	"sort"
	"strings"
)

// Column describes one column of a table.
type Column struct {
	Name     string
	Type     Kind
	Nullable bool
}

// Index describes a secondary (or primary) index over one or more columns of
// a table. ClusterRatio in [0,1] models how well the index order matches the
// physical row order; poorly clustered indexes cause the random-I/O flooding
// problem of the paper's Figure 4.
type Index struct {
	Name         string
	Table        string
	Columns      []string
	Unique       bool
	ClusterRatio float64
}

// Table describes a base table: its columns, primary key and indexes.
type Table struct {
	Name       string
	Columns    []Column
	PrimaryKey []string
	Indexes    []Index

	colPos map[string]int
}

// NewTable constructs a table definition.
func NewTable(name string, cols ...Column) *Table {
	t := &Table{Name: strings.ToUpper(name), Columns: cols}
	t.reindex()
	return t
}

func (t *Table) reindex() {
	t.colPos = make(map[string]int, len(t.Columns))
	for i := range t.Columns {
		t.Columns[i].Name = strings.ToUpper(t.Columns[i].Name)
		t.colPos[t.Columns[i].Name] = i
	}
}

// ColumnIndex returns the ordinal position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if t.colPos == nil {
		t.reindex()
	}
	if i, ok := t.colPos[strings.ToUpper(name)]; ok {
		return i
	}
	return -1
}

// HasColumn reports whether the table defines the named column.
func (t *Table) HasColumn(name string) bool { return t.ColumnIndex(name) >= 0 }

// AddIndex registers an index on the table. Column names are upper-cased;
// unknown columns are an error.
func (t *Table) AddIndex(idx Index) error {
	idx.Table = t.Name
	if idx.Name == "" {
		idx.Name = t.Name + "_" + strings.Join(idx.Columns, "_") + "_IDX"
	}
	idx.Name = strings.ToUpper(idx.Name)
	for i, c := range idx.Columns {
		c = strings.ToUpper(c)
		if !t.HasColumn(c) {
			return fmt.Errorf("catalog: index %s references unknown column %s.%s", idx.Name, t.Name, c)
		}
		idx.Columns[i] = c
	}
	if idx.ClusterRatio == 0 {
		idx.ClusterRatio = 0.5
	}
	t.Indexes = append(t.Indexes, idx)
	return nil
}

// IndexByName returns the named index, or nil.
func (t *Table) IndexByName(name string) *Index {
	name = strings.ToUpper(name)
	for i := range t.Indexes {
		if t.Indexes[i].Name == name {
			return &t.Indexes[i]
		}
	}
	return nil
}

// Schema is a collection of table definitions keyed by upper-case name.
type Schema struct {
	Name   string
	tables map[string]*Table
}

// NewSchema creates an empty schema.
func NewSchema(name string) *Schema {
	return &Schema{Name: name, tables: make(map[string]*Table)}
}

// AddTable registers a table; it replaces any previous definition of the same
// name.
func (s *Schema) AddTable(t *Table) {
	s.tables[strings.ToUpper(t.Name)] = t
}

// Table looks up a table by name (case-insensitive), returning nil if absent.
func (s *Schema) Table(name string) *Table {
	return s.tables[strings.ToUpper(name)]
}

// Tables returns all tables sorted by name.
func (s *Schema) Tables() []*Table {
	out := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
