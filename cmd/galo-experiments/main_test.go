package main

import (
	"testing"

	"galo/internal/experiments"
)

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

// TestConfigFor pins what the workload-size flags may say: a negative -scale,
// -tpcds-queries or -client-queries is an error (a negative count once ran
// the whole workload, which scenario.First returns for any n below one, and
// a negative scale was silently replaced by the default); zero keeps the
// harness default. It builds configurations only and runs no workload.
func TestConfigFor(t *testing.T) {
	def := experiments.DefaultConfig()
	for _, tc := range []struct {
		name                  string
		scale                 float64
		tpcds, client         int
		wantErr               bool
		wantTPCDS, wantClient int
		wantScale             float64
	}{
		{name: "defaults", wantTPCDS: def.TPCDSQueries, wantClient: def.ClientQueries, wantScale: def.Scale},
		{name: "counts", scale: 0.3, tpcds: 99, client: 116, wantTPCDS: 99, wantClient: 116, wantScale: 0.3},
		{name: "negative tpcds", tpcds: -1, wantErr: true},
		{name: "negative client", client: -1, wantErr: true},
		{name: "negative scale", scale: -0.5, wantErr: true},
	} {
		cfg, err := configFor(tc.scale, 0, tc.tpcds, tc.client)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
			continue
		}
		if err == nil && (cfg.TPCDSQueries != tc.wantTPCDS || cfg.ClientQueries != tc.wantClient || cfg.Scale != tc.wantScale) {
			t.Errorf("%s: config has %d TPC-DS and %d client queries at scale %v, want %d, %d, %v",
				tc.name, cfg.TPCDSQueries, cfg.ClientQueries, cfg.Scale, tc.wantTPCDS, tc.wantClient, tc.wantScale)
		}
	}
}
