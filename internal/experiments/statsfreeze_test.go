package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"galo/internal/catalog"
	"galo/internal/storage"
	"galo/internal/workload/client"
	"galo/internal/workload/scenario"
	"galo/internal/workload/tpcds"
)

// The frozen catalog statistics: one sha256 per generator configuration over a
// canonical dump of every statistics snapshot and the system configuration the
// generator leaves in the catalog. The fixture was generated while RUNSTATS
// and ANALYZE were still two passes, so passing it untouched is the proof that
// the one pass collects the same statistics. -update-catalog-stats
// regenerates it.
var updateCatalogStats = flag.Bool("update-catalog-stats", false, "regenerate testdata/catalog_statistics.json")

const catalogStatsFile = "testdata/catalog_statistics.json"

type statsCase struct {
	name  string
	build func() (*storage.Database, error)
}

// catalogStatsCases generates every workload through its scenario: TPC-DS and
// client at two scales and seeds 31 / 32, the zoo at its DefaultGen and scale
// 0.15, each with and without hazards, before and after Learn.
func catalogStatsCases() []statsCase {
	build := func(sc scenario.Scenario, gen scenario.GenOptions, learn bool) func() (*storage.Database, error) {
		return func() (*storage.Database, error) {
			db, err := sc.Generate(gen)
			if err != nil || !learn {
				return db, err
			}
			_, err = sc.Learn(db)
			return db, err
		}
	}
	var cases []statsCase
	for i, sc := range []scenario.Scenario{tpcds.New(), client.New()} {
		for _, scale := range []float64{0.08, 0.5} {
			for _, hazards := range []bool{true, false} {
				gen := scenario.GenOptions{Seed: int64(31 + i), Scale: scale, Hazards: hazards}
				name := fmt.Sprintf("%s/scale_%v/hazards_%v", sc.Name(), scale, hazards)
				cases = append(cases, statsCase{name, build(sc, gen, false)}, statsCase{name + "/learned_true", build(sc, gen, true)})
			}
		}
	}
	for _, sc := range Scenarios() {
		for _, hazards := range []bool{true, false} {
			for _, learn := range []bool{false, true} {
				gen := sc.DefaultGen()
				gen.Scale, gen.Hazards = 0.15, hazards
				cases = append(cases, statsCase{fmt.Sprintf("%s/hazards_%v/learned_%v", sc.Name(), hazards, learn), build(sc, gen, learn)})
			}
		}
	}
	return cases
}

// dumpValue renders every field of a value, so two values dump alike only
// when they are identical.
func dumpValue(v catalog.Value) string {
	return fmt.Sprintf("%d/%d/%s/%q", v.K, v.I, strconv.FormatFloat(v.F, 'g', -1, 64), v.S)
}

// dumpCatalogStats renders the catalog's system configuration and every
// statistics snapshot, tables and columns sorted by name, lists in their
// stored order. A nil list and an empty one dump alike.
func dumpCatalogStats(cat *catalog.Catalog) string {
	var b strings.Builder
	cfg := cat.Config
	fmt.Fprintf(&b, "config transfer=%s runtime_transfer=%s overhead=%s cpu=%s bufferpool=%d sortheap=%d pagesize=%d\n",
		exactFloat(cfg.TransferRate), exactFloat(cfg.RuntimeTransferRate), exactFloat(cfg.Overhead), exactFloat(cfg.CPUSpeed),
		cfg.BufferPoolPages, cfg.SortHeapPages, cfg.PageSizeBytes)
	for _, name := range cat.TablesWithStats() {
		ts := cat.Stats(name)
		fmt.Fprintf(&b, "table %s card=%d pages=%d width=%d stale=%s\n", ts.Table, ts.Cardinality, ts.Pages, ts.RowWidth, exactFloat(ts.StaleFactor))
		cols := make([]string, 0, len(ts.Columns))
		for c := range ts.Columns {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		for _, c := range cols {
			cs := ts.Columns[c]
			fmt.Fprintf(&b, " column %s=%s ndv=%d nulls=%d min=%s max=%s rows=%d width=%d\n",
				c, cs.Column, cs.NDV, cs.NullCount, dumpValue(cs.Min), dumpValue(cs.Max), cs.RowCount, cs.AvgWidth)
			for _, f := range cs.Frequent {
				fmt.Fprintf(&b, "  frequent %s %d\n", dumpValue(f.Value), f.Count)
			}
			if h := cs.Histogram; h != nil {
				fmt.Fprintf(&b, "  histogram min=%s rows=%d\n", dumpValue(h.Min), h.Rows)
				for _, bk := range h.Buckets {
					fmt.Fprintf(&b, "   bucket hi=%s count=%d ndv=%d\n", dumpValue(bk.Hi), bk.Count, bk.NDV)
				}
			}
		}
		for _, g := range ts.Groups {
			fmt.Fprintf(&b, " group %s ndv=%d\n", strings.Join(g.Columns, ","), g.NDV)
			for _, f := range g.Frequent {
				vals := make([]string, len(f.Values))
				for i, v := range f.Values {
					vals[i] = dumpValue(v)
				}
				fmt.Fprintf(&b, "  frequent %s %d\n", strings.Join(vals, ","), f.Count)
			}
		}
	}
	return b.String()
}

func exactFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func TestCatalogStatisticsFrozen(t *testing.T) {
	frozen := map[string]string{}
	if !*updateCatalogStats {
		data, err := os.ReadFile(catalogStatsFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &frozen); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range catalogStatsCases() {
		t.Run(c.name, func(t *testing.T) {
			db, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			dump := dumpCatalogStats(db.Catalog)
			sum := sha256.Sum256([]byte(dump))
			got := hex.EncodeToString(sum[:])
			if *updateCatalogStats {
				frozen[c.name] = got
				return
			}
			want, ok := frozen[c.name]
			if !ok {
				t.Fatalf("no frozen statistics %q in %s", c.name, catalogStatsFile)
			}
			if got != want {
				t.Errorf("statistics sha256 %s, frozen %s; the dump:\n%s", got, want, dump)
			}
		})
	}
	if *updateCatalogStats {
		data, err := json.MarshalIndent(frozen, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(catalogStatsFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
