// Frozen-output suite for the cost model. testdata/cost_fixture.json was
// generated on the commit *before* the formulas moved into
// internal/catalog/cost.go (PR 17), by this file's generator evaluating that
// commit's plan-time functions (pagesOf, tbscanCost, ixscanCost, sortCost,
// hsjoinCost, msjoinCost, nljoinProbeCost); the model's plan-time view must
// reproduce every output bit, and its run-time view under
// RuntimeTransferRate = r must equal its plan-time view under
// TransferRate = r. `go test ./internal/optimizer/ -run CostFixture
// -update-cost-fixture` regenerates the file from the current model (only do
// that for a change that means to move costs).
package optimizer

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"galo/internal/catalog"
)

var updateCostFixture = flag.Bool("update-cost-fixture", false, "regenerate testdata/cost_fixture.json from the current cost model")

const costFixturePath = "testdata/cost_fixture.json"

// costFormulas lists the fixture's sections in file order.
var costFormulas = []string{"pages", "tbscan", "ixscan", "sort", "hsjoin", "msjoin", "nlprobe"}

const costTuplesPerFormula = 240

// costTuple is one evaluation: a config (index into the fixture's configs),
// the formula's arguments in signature order (ints and bools as floats) and
// the plan-time output as float64 bits.
type costTuple struct {
	Cfg  int       `json:"cfg"`
	Args []float64 `json:"args"`
	Bits string    `json:"bits"`
}

type costFixture struct {
	Configs  []catalog.SystemConfig `json:"configs"`
	Formulas map[string][]costTuple `json:"formulas"`
}

// costFixtureConfigs spans the config-side branches: page size set / unset /
// negative, a buffer pool and sort heap nothing fits, ones everything fits,
// and a runtime rate the plan-time view must ignore.
func costFixtureConfigs() []catalog.SystemConfig {
	def := catalog.DefaultSystemConfig()
	hazard := def
	hazard.RuntimeTransferRate = 0.05
	return []catalog.SystemConfig{
		def,
		hazard,
		{TransferRate: 1.7, Overhead: 9.25, CPUSpeed: 0.0013, BufferPoolPages: 64, SortHeapPages: 8, PageSizeBytes: 8192},
		{TransferRate: 0.18, Overhead: 3.5, CPUSpeed: 0.0005, BufferPoolPages: 1 << 40, SortHeapPages: 1 << 40},
		{TransferRate: 0.4, Overhead: 2.125, CPUSpeed: 0.002, PageSizeBytes: -1},
		{TransferRate: 0.031, Overhead: 0.77, CPUSpeed: 0.00021, BufferPoolPages: 4000, SortHeapPages: 256, PageSizeBytes: 4096},
	}
}

// costFixtureInputs draws the seeded argument tuples. Magnitudes are
// log-uniform so both sides of every size threshold come up; the low bits of
// i force the boolean and clamp branches.
func costFixtureInputs() map[string][]costTuple {
	rng := rand.New(rand.NewSource(17))
	mag := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	flag := func(i, bit int) float64 { return float64(i >> bit & 1) }
	width := func(i int) float64 {
		if i%7 == 0 {
			return float64(-(i % 3)) // rowWidth <= 0
		}
		return float64(1 + rng.Intn(2400))
	}
	rows := func(i int) float64 {
		if i%11 == 0 {
			return rng.Float64() * 2 // rows < 2
		}
		return mag(1, 5e7)
	}
	nConfigs := len(costFixtureConfigs())
	out := make(map[string][]costTuple, len(costFormulas))
	for _, name := range costFormulas {
		for i := 0; i < costTuplesPerFormula; i++ {
			var args []float64
			switch name {
			case "pages", "sort":
				args = []float64{rows(i), width(i)}
			case "tbscan":
				args = []float64{mag(1, 1e6), mag(1, 5e7)}
			case "ixscan":
				tableRows := mag(1, 5e7)
				matchRows := tableRows * rng.Float64()
				if i%5 == 0 {
					matchRows = rng.Float64() // below the clamp
				}
				rowsPerPage := mag(1, 400)
				if i%13 == 0 {
					rowsPerPage = rng.Float64()
				}
				args = []float64{mag(1, 1e6), tableRows, matchRows, rng.Float64(), flag(i, 0), rowsPerPage}
			case "hsjoin":
				args = []float64{rows(i + 1), rows(i), mag(1, 5e7), width(i + 1), width(i), flag(i, 0)}
			case "msjoin":
				args = []float64{rows(i + 1), rows(i), mag(1, 5e7)}
			case "nlprobe":
				cluster := rng.Float64()
				if i%6 == 1 {
					cluster = 0 // accessPath.clusterRatio's 0.5 default
				}
				args = []float64{flag(i, 0), cluster, mag(1, 1e6), mag(1, 5e7), mag(0.01, 1e4)}
			}
			out[name] = append(out[name], costTuple{Cfg: (i/2 + i/12) % nConfigs, Args: args})
		}
	}
	return out
}

// evalCostFormula evaluates one formula the way the optimizer reaches it.
func evalCostFormula(m *catalog.CostModel, name string, a []float64) float64 {
	switch name {
	case "pages":
		return m.Pages(a[0], int(a[1]))
	case "tbscan":
		return m.TableScan(a[0], a[1])
	case "ixscan":
		// accessPaths clamps the matched rows before it asks.
		return m.IndexScan(a[0], a[1], clampCard(a[2]), a[3], a[4] != 0, a[5]).Millis
	case "sort":
		return m.Sort(a[0], int(a[1])).Millis
	case "hsjoin":
		millis, _ := m.HashJoin(a[0], a[1], a[2], int(a[3]), int(a[4]), a[5] != 0)
		return millis
	case "msjoin":
		return m.MergeJoin(a[0], a[1], a[2])
	case "nlprobe":
		inner := accessPath{index: -1, indexCluster: a[1]}
		if a[0] != 0 {
			inner.index, inner.fetch = 0, true
		}
		// buildJoinCand reads the probe's arguments off the inner's access path.
		millis, _ := m.NLProbe(inner.usesIndex(), inner.clusterRatio(), a[2], a[3], a[4])
		return millis
	}
	panic("unknown formula " + name)
}

func writeCostFixture(t *testing.T, fx costFixture) {
	var b bytes.Buffer
	cfgs, err := json.Marshal(fx.Configs)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "{\"configs\":%s,\n\"formulas\":{\n", cfgs)
	for fi, name := range costFormulas {
		fmt.Fprintf(&b, "%q:[\n", name)
		for i, tp := range fx.Formulas[name] {
			line, err := json.Marshal(tp)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			if i < len(fx.Formulas[name])-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("]")
		if fi < len(costFormulas)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}}\n")
	if err := os.MkdirAll(filepath.Dir(costFixturePath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(costFixturePath, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCostFixture(t *testing.T) {
	if *updateCostFixture {
		fx := costFixture{Configs: costFixtureConfigs(), Formulas: costFixtureInputs()}
		for name, tuples := range fx.Formulas {
			for i := range tuples {
				m := fx.Configs[tuples[i].Cfg].PlanCost()
				tuples[i].Bits = fmt.Sprintf("%016x", math.Float64bits(evalCostFormula(&m, name, tuples[i].Args)))
			}
		}
		writeCostFixture(t, fx)
	}
	raw, err := os.ReadFile(costFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	var fx costFixture
	if err := json.Unmarshal(raw, &fx); err != nil {
		t.Fatal(err)
	}

	// covered counts the tuples on each side of each branch, from the inputs.
	covered := map[string]int{}
	side := func(branch string, cond bool) {
		if cond {
			covered[branch+"/yes"]++
		} else {
			covered[branch+"/no"]++
		}
	}
	for _, name := range costFormulas {
		tuples := fx.Formulas[name]
		if len(tuples) < 200 {
			t.Errorf("%s: %d tuples, want at least 200", name, len(tuples))
		}
		for i, tp := range tuples {
			cfg := fx.Configs[tp.Cfg]
			plan := cfg.PlanCost()
			want, err := strconv.ParseUint(tp.Bits, 16, 64)
			if err != nil {
				t.Fatalf("%s[%d]: %v", name, i, err)
			}
			got := evalCostFormula(&plan, name, tp.Args)
			if math.Float64bits(got) != want {
				t.Errorf("%s[%d] cfg %d args %v: plan-time view %v (%016x), frozen %v (%s)",
					name, i, tp.Cfg, tp.Args, got, math.Float64bits(got), math.Float64frombits(want), tp.Bits)
			}

			// The rate is the only thing between the two views.
			for _, r := range []float64{0.05, cfg.TransferRate * 3} {
				observed, believed := cfg, cfg
				observed.RuntimeTransferRate = r
				believed.TransferRate = r
				run, asPlan := observed.RunCost(), believed.PlanCost()
				if a, b := evalCostFormula(&run, name, tp.Args), evalCostFormula(&asPlan, name, tp.Args); math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s[%d] cfg %d args %v: run-time view at rate %v charges %v, plan-time view at the same rate %v",
						name, i, tp.Cfg, tp.Args, r, a, b)
				}
			}

			a := tp.Args
			switch name {
			case "pages":
				side("pages: rowWidth <= 0", a[1] <= 0)
				side("pages: page size unset", cfg.PageSizeBytes <= 0)
				side("pages: under one page", plan.Pages(a[0], int(a[1])) == 1)
			case "ixscan":
				side("ixscan: table fits the buffer pool", a[0] <= float64(cfg.BufferPoolPages))
				side("ixscan: fetch", a[4] != 0)
				side("ixscan: matchRows < 1", a[2] < 1)
				side("ixscan: rowsPerPage < 1", a[5] < 1)
				side("ixscan: under one leaf page", a[1] < 300)
			case "sort":
				side("sort: rows < 2", a[0] < 2)
				side("sort: spills", a[0] >= 2 && plan.Pages(a[0], int(a[1])) > float64(cfg.SortHeapPages))
				side("sort: rowWidth <= 0", a[1] <= 0)
			case "hsjoin":
				side("hsjoin: bloom", a[5] != 0)
				side("hsjoin: build spills", plan.Pages(a[1], int(a[4])) > float64(cfg.SortHeapPages))
				side("hsjoin: rowWidth <= 0", a[3] <= 0 || a[4] <= 0)
			case "nlprobe":
				side("nlprobe: index", a[0] != 0)
				side("nlprobe: inner fits the buffer pool", a[2] <= float64(cfg.BufferPoolPages))
				side("nlprobe: under one row per probe", a[4] < 1)
				side("nlprobe: default cluster ratio", a[1] == 0)
			}
		}
	}
	for _, branch := range []string{
		"pages: rowWidth <= 0", "pages: page size unset", "pages: under one page",
		"ixscan: table fits the buffer pool", "ixscan: fetch", "ixscan: matchRows < 1", "ixscan: rowsPerPage < 1", "ixscan: under one leaf page",
		"sort: rows < 2", "sort: spills", "sort: rowWidth <= 0",
		"hsjoin: bloom", "hsjoin: build spills", "hsjoin: rowWidth <= 0",
		"nlprobe: index", "nlprobe: inner fits the buffer pool", "nlprobe: under one row per probe", "nlprobe: default cluster ratio",
	} {
		if covered[branch+"/yes"] < 10 || covered[branch+"/no"] < 10 {
			t.Errorf("branch %q: %d tuples take it and %d do not; the fixture must exercise both sides",
				branch, covered[branch+"/yes"], covered[branch+"/no"])
		}
	}
}
