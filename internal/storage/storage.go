// Package storage implements the in-memory row store the minidb substrate
// runs on: base tables, secondary indexes, and page-granular access
// accounting.
//
// It replaces the DB2 storage layer from the paper. The executor uses it to
// produce the runtime truth (actual cardinalities, page reads, spills) that
// GALO's learning engine compares against the optimizer's estimates.
package storage

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"galo/internal/catalog"
)

// Row is one tuple, with values in the table's column order.
type Row []catalog.Value

// IndexEntry maps an index key to the position of its row in the table.
type IndexEntry struct {
	Key   []catalog.Value
	RowID int
}

// IndexData is a materialized secondary index: entries sorted by key.
type IndexData struct {
	Def     *catalog.Index
	Entries []IndexEntry
	colPos  []int
}

// Table is the stored data for one base table.
type Table struct {
	Def  *catalog.Table
	Rows []Row
	// idxMu guards what is derived from the rows on first use and cached until
	// the next Insert — the secondary indexes, the per-column key-word vectors
	// and whether each index is in key-word order: plans execute concurrently
	// (the learning engine's worker pool) and may ask for the same one at the
	// same time. Row data itself is only mutated at generation time, before any
	// concurrent execution starts.
	idxMu      sync.RWMutex
	indexes    map[string]*IndexData
	keyWords   map[int][]uint64
	keyOrdered map[string]bool
	builds     int // indexes, vectors and orders derived since the table was created (tests)
}

// Database holds all table data for one catalog.
type Database struct {
	Catalog *catalog.Catalog
	mu      sync.RWMutex
	tables  map[string]*Table
}

// NewDatabase creates an empty database over the catalog's schema.
func NewDatabase(cat *catalog.Catalog) *Database {
	return &Database{Catalog: cat, tables: make(map[string]*Table)}
}

// lookup returns the stored table without creating it.
func (db *Database) lookup(table string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToUpper(table)]
}

// Table returns the stored table, creating an empty one if the schema defines
// it and no rows have been inserted yet. Returns nil for unknown tables.
func (db *Database) Table(name string) *Table {
	key := strings.ToUpper(name)
	db.mu.RLock()
	t, ok := db.tables[key]
	db.mu.RUnlock()
	if ok {
		return t
	}
	def := db.Catalog.Table(key)
	if def == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok := db.tables[key]; ok {
		return t
	}
	t = &Table{Def: def, indexes: make(map[string]*IndexData)}
	db.tables[key] = t
	return t
}

// TableNames returns the names of tables that hold data, sorted.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Insert appends rows to the named table. Rows must have exactly as many
// values as the table has columns.
func (db *Database) Insert(table string, rows ...Row) error {
	t := db.Table(table)
	if t == nil {
		return fmt.Errorf("storage: unknown table %s", table)
	}
	ncols := len(t.Def.Columns)
	for _, r := range rows {
		if len(r) != ncols {
			return fmt.Errorf("storage: table %s expects %d columns, row has %d", t.Def.Name, ncols, len(r))
		}
		t.Rows = append(t.Rows, r)
	}
	// Any existing indexes, key-word vectors and orders are now stale; rebuild
	// lazily.
	t.idxMu.Lock()
	t.indexes = make(map[string]*IndexData)
	t.keyWords = nil
	t.keyOrdered = nil
	t.idxMu.Unlock()
	return nil
}

// RowCount returns the number of rows stored in the table (0 if absent).
func (db *Database) RowCount(table string) int {
	t := db.lookup(table)
	if t == nil {
		return 0
	}
	return len(t.Rows)
}

// RowWidth estimates the average row width in bytes for page accounting.
func (t *Table) RowWidth() int {
	if len(t.Rows) == 0 {
		return 8 * len(t.Def.Columns)
	}
	width := 0
	sample := t.Rows[0]
	for _, v := range sample {
		switch v.K {
		case catalog.KindString:
			width += len(v.S) + 4
		default:
			width += 8
		}
	}
	if width == 0 {
		width = 8
	}
	return width
}

// Pages returns the number of data pages the table occupies under the
// catalog's page size.
func (db *Database) Pages(table string) int64 {
	t := db.lookup(table)
	if t == nil || len(t.Rows) == 0 {
		return 1
	}
	pageSize := db.Catalog.Config.PageSizeBytes
	if pageSize <= 0 {
		pageSize = 4096
	}
	rowsPerPage := pageSize / int64(t.RowWidth())
	if rowsPerPage < 1 {
		rowsPerPage = 1
	}
	pages := (int64(len(t.Rows)) + rowsPerPage - 1) / rowsPerPage
	if pages < 1 {
		pages = 1
	}
	return pages
}

// RowsPerPage returns how many rows fit on one page of the table.
func (db *Database) RowsPerPage(table string) int64 {
	t := db.lookup(table)
	if t == nil {
		return 1
	}
	pageSize := db.Catalog.Config.PageSizeBytes
	if pageSize <= 0 {
		pageSize = 4096
	}
	rpp := pageSize / int64(t.RowWidth())
	if rpp < 1 {
		rpp = 1
	}
	return rpp
}

// Index returns the materialized index data for the named index on the
// table, building it on first use. Returns nil when the index is not defined.
func (db *Database) Index(table, indexName string) *IndexData {
	t := db.Table(table)
	if t == nil {
		return nil
	}
	def := t.Def.IndexByName(indexName)
	if def == nil {
		return nil
	}
	return buildOnce(t, &t.indexes, def.Name, func() *IndexData { return buildIndex(t, def) })
}

// buildOnce returns what the table caches under key in *cache, building it on
// first use. The build runs under the write lock, after a second look: of the
// executions that miss together (learning runs two workers; so do the first
// two /reopt execute:true requests) one builds and the rest wait for it,
// instead of each sorting all of a fact table.
func buildOnce[K comparable, V any](t *Table, cache *map[K]V, key K, build func() V) V {
	t.idxMu.RLock()
	v, ok := (*cache)[key]
	t.idxMu.RUnlock()
	if ok {
		return v
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if v, ok := (*cache)[key]; ok {
		return v
	}
	if *cache == nil {
		*cache = make(map[K]V)
	}
	v = build()
	(*cache)[key] = v
	t.builds++
	return v
}

// KeyWords returns the column's key-word vector: catalog.Value.KeyWord of
// every row, by row position, so a join reads a numeric key without touching
// the row it belongs to. It is nil when the column holds a string anywhere,
// whose key no word holds. The vector is built on first use, cached beside the
// indexes until the next Insert, and read-only.
func (t *Table) KeyWords(col int) []uint64 {
	return buildOnce(t, &t.keyWords, col, func() []uint64 {
		words := make([]uint64, len(t.Rows))
		for i, row := range t.Rows {
			var ok bool
			if words[i], ok = row[col].KeyWord(); !ok {
				return nil
			}
		}
		return words
	})
}

// KeyWordOrdered reports whether the index lists its entries in key-word order:
// the key words of its leading column (KeyWords) never decrease over Entries
// under catalog.KeyWordAbove, so the entries of one word are one run a binary
// search finds. It is false for a column holding a string, which has no
// vector, and for one holding a NaN: catalog.Compare ties a NaN with
// everything, so the sort kernel hands the column to a stable sort under
// Compare, which may leave it anywhere. idx is the table's current index
// (Database.Index); the answer is computed on first use and cached beside it
// until the next Insert.
func (t *Table) KeyWordOrdered(idx *IndexData) bool {
	words := t.KeyWords(idx.colPos[0])
	return buildOnce(t, &t.keyOrdered, idx.Def.Name, func() bool {
		if words == nil {
			return false
		}
		prev := catalog.KeyWordNull // below every word
		for _, e := range idx.Entries {
			w := words[e.RowID]
			if (w != catalog.KeyWordNull && math.IsNaN(math.Float64frombits(w))) || catalog.KeyWordAbove(prev, w) {
				return false
			}
			prev = w
		}
		return true
	})
}

// IndexOnColumn returns a built index whose leading column matches, or nil.
func (db *Database) IndexOnColumn(table, column string) *IndexData {
	t := db.Table(table)
	if t == nil {
		return nil
	}
	def := t.Def.IndexOn(column)
	if def == nil {
		return nil
	}
	return db.Index(table, def.Name)
}

func buildIndex(t *Table, def *catalog.Index) *IndexData {
	pos := make([]int, len(def.Columns))
	for i, c := range def.Columns {
		pos[i] = t.Def.ColumnIndex(c)
	}
	idx := &IndexData{Def: def, colPos: pos}
	idx.Entries = make([]IndexEntry, 0, len(t.Rows))
	// Every key is carved from one slab; the 3-index slice caps each at its
	// own columns.
	slab := make([]catalog.Value, len(t.Rows)*len(pos))
	for rid, row := range t.Rows {
		key := slab[rid*len(pos) : (rid+1)*len(pos) : (rid+1)*len(pos)]
		for i, p := range pos {
			if p >= 0 && p < len(row) {
				key[i] = row[p]
			}
		}
		idx.Entries = append(idx.Entries, IndexEntry{Key: key, RowID: rid})
	}
	// The sort reads the words from the entries' keys: Table.KeyWords would
	// re-enter buildOnce, whose lock this build runs under.
	catalog.SortStable(idx.Entries, len(pos), entryKey, func(a, b IndexEntry) int { return compareKeys(a.Key, b.Key) }, nil)
	return idx
}

// entryKey reads column c of an index entry's key.
func entryKey(e *IndexEntry, c int) *catalog.Value { return &e.Key[c] }

func compareKeys(a, b []catalog.Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := catalog.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// PositionsEqual returns the half-open entry range [start, end) whose leading
// index key equals v. Iterating positions avoids materializing a row-ID list,
// which is what lets the streaming executor pull index candidates lazily.
func (idx *IndexData) PositionsEqual(v catalog.Value) (start, end int) {
	if v.IsNull() {
		return 0, 0
	}
	start = sort.Search(len(idx.Entries), func(i int) bool {
		return catalog.Compare(idx.Entries[i].Key[0], v) >= 0
	})
	end = start
	for end < len(idx.Entries) && catalog.Equal(idx.Entries[end].Key[0], v) {
		end++
	}
	return start, end
}

// PositionsRange returns the half-open entry range [start, end) whose leading
// key lies in [lo, hi]; a nil bound is unbounded on that side.
func (idx *IndexData) PositionsRange(lo, hi *catalog.Value) (start, end int) {
	if lo != nil {
		start = sort.Search(len(idx.Entries), func(i int) bool {
			return catalog.Compare(idx.Entries[i].Key[0], *lo) >= 0
		})
	}
	end = len(idx.Entries)
	if hi != nil {
		end = start + sort.Search(len(idx.Entries)-start, func(i int) bool {
			return catalog.Compare(idx.Entries[start+i].Key[0], *hi) > 0
		})
	}
	if end < start {
		end = start
	}
	return start, end
}

// Len returns the number of entries in the index.
func (idx *IndexData) Len() int { return len(idx.Entries) }

// SplitRange splits the half-open position range [lo, hi) into at most parts
// contiguous, near-equal, non-empty sub-ranges. The executor's exchange
// operator partitions scans with it: contiguous sub-ranges concatenated in
// order reproduce the original scan order exactly.
func SplitRange(lo, hi, parts int) [][2]int {
	n := hi - lo
	if n <= 0 || parts <= 1 {
		return [][2]int{{lo, hi}}
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	for i := 0; i < parts; i++ {
		out = append(out, [2]int{lo + i*n/parts, lo + (i+1)*n/parts})
	}
	return out
}

// Value returns the value of the named column in the row of the given table
// definition, or NULL when absent.
func Value(def *catalog.Table, row Row, column string) catalog.Value {
	i := def.ColumnIndex(column)
	if i < 0 || i >= len(row) {
		return catalog.Null()
	}
	return row[i]
}

// DistinctCount counts the number of distinct non-null values of a column.
func (db *Database) DistinctCount(table, column string) int {
	t := db.lookup(table)
	if t == nil {
		return 0
	}
	ci := t.Def.ColumnIndex(column)
	if ci < 0 {
		return 0
	}
	seen := make(map[string]struct{})
	for _, r := range t.Rows {
		if r[ci].IsNull() {
			continue
		}
		seen[r[ci].Key()] = struct{}{}
	}
	return len(seen)
}

// CountWhereEqual counts rows where column = v (used by the learning engine's
// predicate-range sampler and by tests).
func (db *Database) CountWhereEqual(table, column string, v catalog.Value) int {
	t := db.lookup(table)
	if t == nil {
		return 0
	}
	ci := t.Def.ColumnIndex(column)
	if ci < 0 {
		return 0
	}
	n := 0
	for _, r := range t.Rows {
		if catalog.Equal(r[ci], v) {
			n++
		}
	}
	return n
}
