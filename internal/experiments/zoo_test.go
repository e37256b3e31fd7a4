package experiments

import (
	"testing"

	"galo/internal/storage"
	"galo/internal/workload/client"
	"galo/internal/workload/scenario"
	"galo/internal/workload/tpcds"
)

// zooTestConfig runs the zoo at gate-test scale: small enough for tier-1,
// large enough that the hazards are unmistakable.
func zooTestConfig() Config {
	cfg := DefaultConfig()
	cfg.WorkloadScales = map[string]float64{"ohlc": 0.15, "joblike": 0.15, "trace": 0.15}
	return cfg
}

// TestZooHazardGates is the zoo's adversarial gate: for every scenario, the
// estimation hazard must actually fire under default statistics (per-scan
// q-error p90 > 10) and the scenario's Learn remedy must actually fix it
// (p90 < 2). A scenario failing the pre-learning bound is decorative; one
// failing the post-learning bound has no working remedy.
func TestZooHazardGates(t *testing.T) {
	results, err := RunZoo(zooTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Scenarios()) {
		t.Fatalf("RunZoo returned %d results, want %d", len(results), len(Scenarios()))
	}
	for _, r := range results {
		r := r
		t.Run(r.Scenario, func(t *testing.T) {
			if r.Scans < 8 {
				t.Errorf("only %d scans measured; hazard queries too thin", r.Scans)
			}
			if r.PreP90 <= 10 {
				t.Errorf("pre-learning q-error p90 = %.2f, want > 10: the hazard does not fire", r.PreP90)
			}
			if r.PostP90 >= 2 {
				t.Errorf("post-learning q-error p90 = %.2f, want < 2: the remedy does not work", r.PostP90)
			}
			if r.PostP90 >= r.PreP90 {
				t.Errorf("learning did not improve p90: pre %.2f vs post %.2f", r.PreP90, r.PostP90)
			}
		})
	}
}

// TestZooGeneratorsDeterministic holds every workload — TPC-DS, client and the
// zoo — to the determinism invariant: the same options produce byte-identical
// datasets and query lists on repeated runs (and across -cpu counts — CI runs
// this test under -cpu 1,4), different seeds produce different data, and
// Learn never touches a stored row.
func TestZooGeneratorsDeterministic(t *testing.T) {
	for _, sc := range workloads() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			gen := sc.DefaultGen()
			gen.Scale = 0.1
			var dbFP, qFP uint64
			for run := 0; run < 2; run++ {
				db, err := sc.Generate(gen)
				if err != nil {
					t.Fatal(err)
				}
				fp := scenario.Fingerprint(db)
				qfp := scenario.FingerprintQueries(sc.HazardQueries(db, 0))
				if run == 0 {
					dbFP, qFP = fp, qfp
					if _, err := sc.Learn(db); err != nil {
						t.Fatal(err)
					}
					if fp := scenario.Fingerprint(db); fp != dbFP {
						t.Errorf("Learn changed the dataset fingerprint %x to %x", dbFP, fp)
					}
					continue
				}
				if fp != dbFP {
					t.Errorf("run %d: dataset fingerprint %x != first run %x", run, fp, dbFP)
				}
				if qfp != qFP {
					t.Errorf("run %d: query-list fingerprint %x != first run %x", run, qfp, qFP)
				}
			}
			gen.Seed += 7
			db, err := sc.Generate(gen)
			if err != nil {
				t.Fatal(err)
			}
			if fp := scenario.Fingerprint(db); fp == dbFP {
				t.Errorf("different seed produced identical dataset fingerprint %x", fp)
			}
		})
	}
}

// TestHarnessSeedRule pins how the harness seeds every workload from
// Config.Seed: TPC-DS is generated at Seed and client at Seed+1 (what the
// harness did before the workloads shared one path), at the default seed and
// at another one.
func TestHarnessSeedRule(t *testing.T) {
	for _, seed := range []int64{defaultSeed, 7} {
		cfg := DefaultConfig()
		cfg.Seed, cfg.Scale = seed, 0.05
		for _, want := range []struct {
			sc       scenario.Scenario
			generate func(scenario.GenOptions) (*storage.Database, error)
			seed     int64
		}{{tpcds.New(), tpcds.Generate, seed}, {client.New(), client.Generate, seed + 1}} {
			db, _, err := cfg.generate(want.sc)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := want.generate(scenario.GenOptions{Seed: want.seed, Scale: 0.05, Hazards: true})
			if err != nil {
				t.Fatal(err)
			}
			if got, fp := scenario.Fingerprint(db), scenario.Fingerprint(ref); got != fp {
				t.Errorf("seed %d: the harness's %s fingerprint %x, Generate at seed %d gives %x", seed, want.sc.Name(), got, want.seed, fp)
			}
		}
	}
}

// TestScaleForPerWorkload pins the per-workload scale contract: explicit
// entries win, missing or non-positive entries fall back to the global
// Scale, and the default configuration keeps the zoo scenarios at their own
// scales rather than the TPC-DS harness scale.
func TestScaleForPerWorkload(t *testing.T) {
	cfg := Config{Scale: 2.0, WorkloadScales: map[string]float64{"ohlc": 0.5, "trace": 0}}
	if got := cfg.ScaleFor("ohlc"); got != 0.5 {
		t.Errorf("ScaleFor(ohlc) = %v, want 0.5", got)
	}
	if got := cfg.ScaleFor("trace"); got != 2.0 {
		t.Errorf("ScaleFor(trace) with zero entry = %v, want fallback 2.0", got)
	}
	if got := cfg.ScaleFor("joblike"); got != 2.0 {
		t.Errorf("ScaleFor(joblike) missing entry = %v, want fallback 2.0", got)
	}
	def := DefaultConfig()
	for _, name := range []string{"ohlc", "joblike", "trace"} {
		if _, ok := def.WorkloadScales[name]; !ok {
			t.Errorf("DefaultConfig has no per-workload scale for %q", name)
		}
	}
	if def.ScaleFor("ohlc") >= def.ScaleFor("tpcds") {
		t.Errorf("default ohlc scale %v should be below the tpcds scale %v (deep calendar at small row counts)",
			def.ScaleFor("ohlc"), def.ScaleFor("tpcds"))
	}
}
