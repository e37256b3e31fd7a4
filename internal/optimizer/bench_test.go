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
// gate: allocation counts and bytes repeat exactly, so CI can pin them where it
// cannot pin milliseconds. Ceilings are 1.3x what one Optimize measures now
// that the slab, the DP table and the access paths come out of a recycled
// arena, a finished subset's displaced candidates leave the slab, and the
// front half copies each predicate once. Before (a fresh slab per call, sized
// by the query) the same calls took, in allocations / bytes: j1 78 / 8 628,
// j2 116 / 18 424, j3 139 / 34 976, j4 182 / 68 504, j5 211 / 130 140,
// j8 348 / 1 468 912 — every ceiling is below its own "before", so going back
// fails all twelve; and before candidates were slab values at all, j1 137 /
// 11 363 up to j8 79 181 / 9 082 147. j1 and j2 matter most: one- and two-join
// planning is most of what a cold serving workload allocates. Not under the
// race detector: there sync.Pool drops a quarter of what is Put, and a dropped
// arena is a chunk, a table and two path lists allocated again.
func TestOptimizeAllocCeiling(t *testing.T) {
	if optimizer.RaceDetector {
		t.Skip("sync.Pool drops arenas at random under the race detector")
	}
	opt := optimizer.New(goldenTPCDS(t).Catalog, optimizer.DefaultOptions())
	all := tpcds.Queries()
	ceilings := map[string]struct {
		allocs float64
		bytes  uint64
	}{ // measured:
		"j1": {78, 6_150},   // 60 allocations, 4 728 bytes
		"j2": {110, 9_200},  // 84, 7 056
		"j3": {127, 11_600}, // 97, 8 896
		"j4": {166, 15_700}, // 127, 12 040
		"j5": {192, 19_800}, // 147, 15 176
		"j8": {246, 26_800}, // 189, 20 596
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
