package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestQuickRunOfEveryWorkload is the -quick smoke run: every workload set up
// once and driven for two seconds with the traced pass on, so the benchmark
// keeps compiling against the layers it calls and every answer check and
// workload gate keeps firing. It also checks that a run reports exactly the
// metrics BENCHMARK.json declares.
func TestQuickRunOfEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for two seconds")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(specs))
	}
	for i, s := range specs {
		if decl.Workloads[i].Name != s.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, decl.Workloads[i].Name, s.name)
		}
		res, spans, err := runWorkload(options{workload: s.name, seed: 1, seconds: 2, trace: true, quick: true, root: root})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: failed %d of %d, failed checks %v", s.name, res.Failed, res.Attempted, res.Checks)
		}
		if len(spans.spans) == 0 {
			t.Errorf("%s: the traced pass recorded no span", s.name)
		}
		for _, group := range []struct {
			declared []struct{ Name, Unit string }
			reported map[string]metric
		}{{decl.EndToEnd, res.EndToEnd}, {decl.PerLayer, res.PerLayer}} {
			if len(group.declared) != len(group.reported) {
				t.Errorf("%s: %d metrics declared, %d reported", s.name, len(group.declared), len(group.reported))
			}
			for _, d := range group.declared {
				if m, ok := group.reported[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s: metric %s (%s) declared but reported as %+v", s.name, d.Name, d.Unit, m)
				}
			}
		}
		for name, m := range res.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want > 0", s.name, name, m.Value)
			}
		}
	}
}
