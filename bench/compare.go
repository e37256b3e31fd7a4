package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// declaration is the part of BENCHMARK.json the comparison needs.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exactMetrics are counts of the single-threaded traced pass: they depend on
// the seed and the code only, so two runs of one commit must agree to the
// last digit and a difference between two commits is a behaviour change, not
// noise.
var exactMetrics = []string{
	"core.rewritten_share", "executor.sim_speedup", "executor.sim_millis", "executor.peak_rows",
	"optimizer.plans_considered", "qgm.fragments_per_req", "transform.query_bytes_per_req",
	"matching.probes_per_req", "learning.templates_added",
}

// sliceTimed are the end-to-end timings rescaled to nominal machine speed
// slice by slice; when the rescaled window was still uneven
// (bench.rps_slice_spread), the metric cannot be told apart from noise.
var sliceTimed = map[string]bool{"reopt_rps": true, "reopt_p50_ms": true, "reopt_p99_ms": true, "cpu_ms_per_req": true}

// loadResults reads a result set: the array an all-workloads run writes, or
// the single object one workload writes.
func loadResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []*result
	if err := json.Unmarshal(data, &set); err != nil {
		one := &result{}
		if err := json.Unmarshal(data, one); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set = []*result{one}
	}
	return set, nil
}

func compareFiles(root, aPath, bPath string, w io.Writer) (regressed bool, err error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var decl declaration
	if err := json.Unmarshal(data, &decl); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := loadResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadResults(bPath)
	if err != nil {
		return false, err
	}
	return compare(decl, a, b, w), nil
}

// values gathers one metric of one workload over the runs of a result set.
func values(set []*result, workload, name string) []float64 {
	var out []float64
	for _, r := range set {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.EndToEnd[name]; ok {
			out = append(out, m.Value)
		} else if m, ok := r.PerLayer[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compare prints one row per workload × end-to-end metric with both medians
// and b's ratio to a, judged against the metric's bound, then one row per
// exact count. It reports whether any metric regressed or any exact count
// differs.
//
// A metric within its bound is "unchanged" only if the runs were steady
// enough to tell: when either side's run-to-run spread — or, for the
// timings, the spread left within a window after rescaling — is wider than
// the bound, the row reads "unresolved" instead.
func compare(decl declaration, a, b []*result, w io.Writer) (regressed bool) {
	fmt.Fprintf(w, "%-22s %-30s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "verdict")
	for _, wl := range decl.Workloads {
		noisy := 0.0
		for _, set := range [][]*result{a, b} {
			for _, v := range values(set, wl.Name, "bench.rps_slice_spread") {
				noisy = max(noisy, v)
			}
		}
		for _, m := range decl.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma // share of a's median by which b is worse
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "unchanged"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			case sliceTimed[m.Name] && noisy > m.Bound, quartileSpread(va) > m.Bound, quartileSpread(vb) > m.Bound:
				verdict = "unresolved"
			case worse < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-22s %-30s %14.4f %14.4f %9.4f %7.2f  %s\n", wl.Name, m.Name+" "+m.Unit, ma, mb, mb/ma, m.Bound, verdict)
		}
		for _, name := range exactMetrics {
			va, vb := values(a, wl.Name, name), values(b, wl.Name, name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			// Runs pair up by seed; sorting pairs them when both sets ran the same seeds.
			sort.Float64s(va)
			sort.Float64s(vb)
			verdict := "identical"
			if fmt.Sprint(va) != fmt.Sprint(vb) {
				verdict = "DIFFERS"
				regressed = true
			}
			fmt.Fprintf(w, "%-22s %-30s %14.6g %14.6g %9s %7s  %s\n", wl.Name, name, median(va), median(vb), "", "exact", verdict)
		}
	}
	return regressed
}
