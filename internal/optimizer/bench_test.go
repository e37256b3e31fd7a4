package optimizer_test

import (
	"runtime"
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
// gate: allocation counts and bytes repeat exactly (under -race too), so CI
// can pin them where it cannot pin milliseconds. Ceilings are 1.3x what one
// Optimize measures now that candidates are slab values and plan nodes are
// built once, for the winner. With a qgm.Node and a planCand per admitted
// candidate the same calls took, in allocations / bytes: j1 137 / 11 363,
// j2 330 / 36 329, j3 669 / 85 892, j4 1 697 / 233 452, j5 3 835 / 512 489,
// j8 79 181 / 9 082 147 — every ceiling is below its own "before", so going
// back fails all twelve. j1 and j2 matter most: scratch sized for a wide query
// shows up there first, and one- and two-join planning is most of what a cold
// serving workload allocates.
func TestOptimizeAllocCeiling(t *testing.T) {
	opt := optimizer.New(goldenTPCDS(t).Catalog, optimizer.DefaultOptions())
	all := tpcds.Queries()
	ceilings := map[string]struct {
		allocs float64
		bytes  uint64
	}{ // measured:
		"j1": {100, 11_200},    // 78 allocations, 8 628 bytes
		"j2": {150, 24_000},    // 116, 18 424
		"j3": {180, 45_500},    // 139, 34 976
		"j4": {235, 89_000},    // 182, 68 504
		"j5": {275, 169_000},   // 211, 130 140
		"j8": {450, 1_910_000}, // 348, 1 468 912
	}
	for _, c := range planningCases {
		ceiling, q := ceilings[c.name], all[c.index]
		run := func() {
			if _, _, err := opt.Optimize(q); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, run)
		// TotalAlloc is exact and cumulative (no sampling, and a collection in
		// the middle takes nothing away); the lowest of a few windows drops
		// whatever the test binary's other goroutines allocated meanwhile.
		const windows, runs = 4, 4
		bytes := ^uint64(0)
		for w := 0; w < windows; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		t.Logf("%s (%s): %.0f allocations and %d bytes per Optimize (ceilings %.0f, %d)", c.name, q.Name, allocs, bytes, ceiling.allocs, ceiling.bytes)
		if allocs > ceiling.allocs {
			t.Errorf("%s (%s): %.0f allocations per Optimize, ceiling is %.0f", c.name, q.Name, allocs, ceiling.allocs)
		}
		if bytes > ceiling.bytes {
			t.Errorf("%s (%s): %d bytes per Optimize, ceiling is %d", c.name, q.Name, bytes, ceiling.bytes)
		}
	}
}
