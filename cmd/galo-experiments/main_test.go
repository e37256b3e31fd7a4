package main

import "testing"

// TestExperimentsFor pins the -exp grammar: "all", or digits 1..6, and
// nothing else — a value naming no experiment used to run nothing and exit 0.
func TestExperimentsFor(t *testing.T) {
	for _, tc := range []struct {
		exp  string
		want []int // nil: an error
	}{
		{"all", []int{1, 2, 3, 4, 5, 6}},
		{"1", []int{1}},
		{"6", []int{6}},
		{"12", []int{1, 2}},
		{"7", nil},
		{"foo", nil},
		{"", nil},
	} {
		run, err := experimentsFor(tc.exp)
		if (err != nil) != (tc.want == nil) {
			t.Errorf("-exp %q: err = %v", tc.exp, err)
			continue
		}
		var want [7]bool
		for _, n := range tc.want {
			want[n] = true
		}
		if run != want {
			t.Errorf("-exp %q runs %v, want %v", tc.exp, run, want)
		}
	}
}
