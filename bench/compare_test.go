package main

import (
	"strings"
	"testing"
)

// run builds a synthetic result of one workload.
func run(workload string, rps, p50, sliceSpread, rewritten float64) *result {
	return &result{
		Workload: workload,
		EndToEnd: map[string]metric{"reopt_rps": {Value: rps, Unit: "req/s"}, "reopt_p50_ms": {Value: p50, Unit: "ms"}},
		PerLayer: map[string]metric{"bench.rps_slice_spread": {Value: sliceSpread, Unit: "ratio"}, "core.rewritten_share": {Value: rewritten, Unit: "ratio"}},
	}
}

func TestCompareVerdicts(t *testing.T) {
	var decl declaration
	decl.Workloads = append(decl.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	decl.EndToEnd = []declared{
		{Name: "reopt_rps", Unit: "req/s", Better: "higher", Bound: 0.10},
		{Name: "reopt_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	}
	for _, tc := range []struct {
		name      string
		a, b      []*result
		regressed bool
		want      []string // one substring per expected row, in order
	}{
		{"within the bounds",
			[]*result{run("w", 100, 10, 0.02, 0.25), run("w", 102, 10.1, 0.02, 0.25)},
			[]*result{run("w", 97, 10.4, 0.02, 0.25), run("w", 99, 10.5, 0.02, 0.25)},
			false, []string{"reopt_rps", "unchanged", "reopt_p50_ms", "unchanged", "core.rewritten_share", "identical"}},
		{"lower throughput and higher latency both regress",
			[]*result{run("w", 100, 10, 0.02, 0.25)},
			[]*result{run("w", 85, 11.5, 0.02, 0.25)},
			true, []string{"reopt_rps", "regressed", "reopt_p50_ms", "regressed"}},
		{"better beyond the bound is an improvement",
			[]*result{run("w", 100, 10, 0.02, 0.25)},
			[]*result{run("w", 120, 8, 0.02, 0.25)},
			false, []string{"reopt_rps", "improved", "reopt_p50_ms", "improved"}},
		{"an unsteady window is unresolved, not unchanged",
			[]*result{run("w", 100, 10, 0.30, 0.25)},
			[]*result{run("w", 101, 10, 0.02, 0.25)},
			false, []string{"reopt_rps", "unresolved", "reopt_p50_ms", "unresolved"}},
		{"runs that disagree among themselves are unresolved",
			[]*result{run("w", 90, 10, 0.02, 0.25), run("w", 110, 10, 0.02, 0.25)},
			[]*result{run("w", 100, 10, 0.02, 0.25), run("w", 100, 10, 0.02, 0.25)},
			false, []string{"reopt_rps", "unresolved", "reopt_p50_ms", "unchanged"}},
		{"an exact count that differs fails the comparison",
			[]*result{run("w", 100, 10, 0.02, 0.25)},
			[]*result{run("w", 100, 10, 0.02, 0.30)},
			true, []string{"core.rewritten_share", "DIFFERS"}},
		{"a workload missing from one side is skipped",
			[]*result{run("other", 100, 10, 0.02, 0.25)},
			[]*result{run("w", 100, 10, 0.02, 0.25)},
			false, nil},
	} {
		var out strings.Builder
		if got := compare(decl, tc.a, tc.b, &out); got != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", tc.name, got, tc.regressed, out.String())
		}
		rest := out.String()
		for _, want := range tc.want {
			i := strings.Index(rest, want)
			if i < 0 {
				t.Errorf("%s: output lacks %q (in order)\n%s", tc.name, want, out.String())
				break
			}
			rest = rest[i+len(want):]
		}
	}
}
