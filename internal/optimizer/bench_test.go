package optimizer_test

import (
	"testing"

	"galo/internal/optimizer"
	"galo/internal/workload/tpcds"
)

// planningCases names one tpcds.Queries() entry per join count — the shapes
// of the bench/ routinized pool (web_sales x item, Figure 3, star, snowflake,
// 5-join snowflake) and TPCDS.Q91, the widest query under JoinEnumDPLimit.
// BENCH_optimizer.json's planning section measures the same entries.
var planningCases = []struct {
	name  string
	index int
}{{"j1", 4}, {"j2", 8}, {"j3", 34}, {"j4", 40}, {"j5", 55}, {"j8", 90}}

func BenchmarkOptimize(b *testing.B) {
	opt := optimizer.New(goldenTPCDS(b).Catalog, optimizer.DefaultOptions())
	all := tpcds.Queries()
	for _, c := range planningCases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := opt.Optimize(all[c.index]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestOptimizeAllocCeiling is the clock-free half of the planning regression
// gate: allocation counts repeat exactly, so CI can pin them where it cannot
// pin milliseconds. Before the planning context the 3-join star (j3) took
// 22 560 allocations per Optimize and the 4-join snowflake (j4) 114 518.
func TestOptimizeAllocCeiling(t *testing.T) {
	opt := optimizer.New(goldenTPCDS(t).Catalog, optimizer.DefaultOptions())
	all := tpcds.Queries()
	ceilings := map[string]float64{"j3": 2500, "j4": 10000}
	for _, c := range planningCases {
		ceiling, gated := ceilings[c.name]
		if !gated {
			continue
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := opt.Optimize(all[c.index]); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s (%s): %.0f allocations per Optimize (ceiling %.0f)", c.name, all[c.index].Name, allocs, ceiling)
		if allocs > ceiling {
			t.Errorf("%s (%s): %.0f allocations per Optimize, ceiling is %.0f", c.name, all[c.index].Name, allocs, ceiling)
		}
	}
}
