package optimizer_test

import (
	"runtime"
	"testing"

	"galo/internal/optimizer"
	"galo/internal/sqlparser"
	"galo/internal/workload/tpcds"
)

// planningCases names one tpcds.Queries() entry per join count — the shapes
// of the bench/ routinized pool (web_sales x item, Figure 3, star, snowflake,
// 5-join snowflake) and TPCDS.Q91, the widest query under JoinEnumDPLimit —
// and, as sql, the shape of the bench/ cold_large_kb stream: one join whose
// BETWEEN on the join key the rewrite tier carries across to the fact table.
// BENCH_optimizer.json's planning section measures the tpcds entries.
var planningCases = []struct {
	name  string
	index int
	sql   string
}{{"j1", 4, ""}, {"j2", 8, ""}, {"j3", 34, ""}, {"j4", 40, ""}, {"j5", 55, ""}, {"j8", 90, ""},
	{"transitive", -1, `SELECT ss_quantity, ss_sales_price FROM store_sales, date_dim
		WHERE ss_sold_date_sk = d_date_sk AND d_date_sk BETWEEN 17 AND 41 AND ss_sales_price < 123.450000042`}}

// planningQuery returns the query of a planning case.
func planningQuery(all []*sqlparser.Query, index int, sql string) *sqlparser.Query {
	if sql != "" {
		q := sqlparser.MustParse(sql)
		q.Name = "cold_large_kb"
		return q
	}
	return all[index]
}

func BenchmarkOptimize(b *testing.B) {
	opt := optimizer.New(goldenTPCDS(b).Catalog, optimizer.DefaultOptions())
	all := tpcds.Queries()
	for _, c := range planningCases {
		q := planningQuery(all, c.index, c.sql)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := opt.Optimize(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestOptimizeAllocCeiling is the clock-free half of the planning regression
// gate: allocation counts and bytes repeat exactly, so CI can pin them where it
// cannot pin milliseconds. Ceilings are 1.3x what one Optimize measures now
// that the front half prepares a query without rendering or regrowing it (one
// clone sized for what the rewrite tier infers, predicates compared as values,
// notes rendered when read, quantifiers, their predicates and columns each
// from one array, no string-keyed maps) and a plan's nodes and texts each
// come from one array. Before that, the same calls took, in allocations /
// bytes: j1 50 / 3 796, j2 76 / 6 032, j3 93 / 7 696, j4 125 / 10 568,
// j5 145 / 13 264, j8 190 / 18 336, transitive 77 / 7 552 — every ceiling is
// below its own "before", so going back fails all fourteen. Earlier still (a
// fresh slab per call, sized by the query): j1 78 / 8 628 up to j8 348 /
// 1 468 912; and before candidates were slab values at all, j1 137 / 11 363 up
// to j8 79 181 / 9 082 147. j1, j2 and transitive matter most: one- and
// two-join planning is most of what a cold serving workload allocates. Not
// under the race detector: there sync.Pool drops a quarter of what is Put, and
// a dropped arena is a chunk, a table and two path lists allocated again.
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
		"j1":         {28, 3_700},  // 21 allocations, 2 808 bytes
		"j2":         {32, 5_900},  // 24, 4 496
		"j3":         {34, 7_500},  // 26, 5 736
		"j4":         {38, 9_650},  // 29, 7 392
		"j5":         {45, 11_700}, // 34, 8 992
		"j8":         {55, 17_400}, // 42, 13 368
		"transitive": {33, 4_600},  // 25, 3 536
	}
	for _, c := range planningCases {
		ceiling, q := ceilings[c.name], planningQuery(all, c.index, c.sql)
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
