package storage_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"galo/internal/catalog"
	"galo/internal/storage"
	"galo/internal/workload/joblike"
	"galo/internal/workload/ohlc"
	"galo/internal/workload/scenario"
	"galo/internal/workload/tpcds"
	"galo/internal/workload/trace"
)

var update = flag.Bool("update", false, "regenerate testdata/analyze_fingerprint.txt")

const analyzeFingerprintFile = "testdata/analyze_fingerprint.txt"

// TestAnalyzeFingerprintFrozen holds storage.AnalyzeAll and the index builds to
// a fingerprint over small-scale TPC-DS and the three zoo databases: per column
// the distinct count, nulls, min and max in full and a hash of the frequent
// list and the histogram bounds; per index the hash of its entries' RowID
// order. Both read the order of one sort, so a sort that orders a single value
// differently moves a line. -update regenerates the file.
func TestAnalyzeFingerprintFrozen(t *testing.T) {
	type database struct {
		name  string
		build func() (*storage.Database, error)
	}
	dbs := []database{
		{"tpcds", func() (*storage.Database, error) {
			return tpcds.Generate(tpcds.GenOptions{Seed: 5, Scale: 0.1, Hazards: true})
		}},
	}
	for _, sc := range []scenario.Scenario{joblike.New(), ohlc.New(), trace.New()} {
		dbs = append(dbs, database{sc.Name(), func() (*storage.Database, error) {
			opts := sc.DefaultGen()
			opts.Scale = 0.1
			return sc.Generate(opts)
		}})
	}
	var b strings.Builder
	for _, d := range dbs {
		db, err := d.build()
		if err != nil {
			t.Fatal(err)
		}
		if err := storage.AnalyzeAll(db, storage.AnalyzeOptions{Histograms: true}); err != nil {
			t.Fatal(err)
		}
		fingerprintDatabase(&b, d.name, db)
	}
	got := []byte(b.String())
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(analyzeFingerprintFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(analyzeFingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}

// fingerprintDatabase writes one line per column and one per index of every
// table, tables and columns in name order.
func fingerprintDatabase(b *strings.Builder, name string, db *storage.Database) {
	for _, tn := range db.TableNames() {
		ts := db.Catalog.Stats(tn)
		fmt.Fprintf(b, "%s %s card=%d\n", name, tn, ts.Cardinality)
		cols := make([]string, 0, len(ts.Columns))
		for c := range ts.Columns {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		for _, c := range cols {
			cs := ts.Columns[c]
			h := sha256.New()
			for _, f := range cs.Frequent {
				fmt.Fprintf(h, "f %s %d\n", exactValue(f.Value), f.Count)
			}
			if hist := cs.Histogram; hist != nil {
				fmt.Fprintf(h, "h %s %d\n", exactValue(hist.Min), hist.Rows)
				for _, bk := range hist.Buckets {
					fmt.Fprintf(h, "b %s %d %d\n", exactValue(bk.Hi), bk.Count, bk.NDV)
				}
			}
			fmt.Fprintf(b, "%s %s.%s ndv=%d nulls=%d min=%s max=%s frequent=%d buckets=%d stats=%s\n",
				name, tn, c, cs.NDV, cs.NullCount, exactValue(cs.Min), exactValue(cs.Max),
				len(cs.Frequent), bucketCount(cs.Histogram), shortSum(h))
		}
		table := db.Table(tn)
		for _, def := range table.Def.Indexes {
			idx := db.Index(tn, def.Name)
			h := sha256.New()
			var buf [8]byte
			for _, e := range idx.Entries {
				binary.LittleEndian.PutUint64(buf[:], uint64(e.RowID))
				h.Write(buf[:])
			}
			fmt.Fprintf(b, "%s %s index %s(%s) entries=%d order=%s\n",
				name, tn, def.Name, strings.Join(def.Columns, ","), len(idx.Entries), shortSum(h))
		}
	}
}

// exactValue renders every field of a value, the float by its bits, so two
// values render alike only when they are identical.
func exactValue(v catalog.Value) string {
	return fmt.Sprintf("%d/%d/%#x/%q", v.K, v.I, math.Float64bits(v.F), v.S)
}

func bucketCount(h *catalog.Histogram) int {
	if h == nil {
		return 0
	}
	return len(h.Buckets)
}

func shortSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }
