// Command galo-experiments regenerates the paper's tables and figures
// (Exp-1 .. Exp-6, Figures 9-14) using the experiment harness and prints each
// as a text table. README.md's "Experiments" section says what each prints and
// records the measured numbers.
//
// Usage:
//
//	galo-experiments -exp all            # run everything (several minutes)
//	galo-experiments -exp 1              # Figure 9  (learning scalability)
//	galo-experiments -exp 2              # Figure 10 (re-optimization gains + reuse)
//	galo-experiments -exp 3              # Figure 11 (matching scalability)
//	galo-experiments -exp 4              # Figure 12 (routinization)
//	galo-experiments -exp 5              # Figures 13 and 14 (vs experts; -exp 6 is the same run)
//	galo-experiments -exp 13             # Figure 9, then Figure 11
//	galo-experiments -exp 2 -scale 0.3 -tpcds-queries 99 -client-queries 116
package main

import (
	"flag"
	"fmt"
	"os"

	"galo/internal/experiments"
)

// experimentsFor maps the -exp value to the experiments to run, indexed 1..6:
// "all", or any concatenation of those digits. Exp-5 and Exp-6 are one run.
func experimentsFor(exp string) (run [7]bool, err error) {
	switch exp {
	case "":
		return run, fmt.Errorf("-exp is empty")
	case "all":
		exp = "123456"
	}
	for _, d := range exp {
		if d < '1' || d > '6' {
			return [7]bool{}, fmt.Errorf("-exp %q: %q is not an experiment", exp, d)
		}
		run[d-'0'] = true
	}
	return run, nil
}

// configFor applies the -scale, -seed, -tpcds-queries and -client-queries
// values to the harness defaults; a zero keeps the default. A negative scale
// or query count is an error: scenario.First reads any count below one as
// "every query", and the whole workload at the default scale does not fit in
// a few gigabytes.
func configFor(scale float64, seed int64, tpcdsQueries, clientQueries int) (experiments.Config, error) {
	cfg := experiments.DefaultConfig()
	switch {
	case scale < 0:
		return cfg, fmt.Errorf("-scale %v is negative", scale)
	case tpcdsQueries < 0:
		return cfg, fmt.Errorf("-tpcds-queries %d is negative", tpcdsQueries)
	case clientQueries < 0:
		return cfg, fmt.Errorf("-client-queries %d is negative", clientQueries)
	}
	if scale > 0 {
		cfg.Scale = scale
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	if tpcdsQueries != 0 {
		cfg.TPCDSQueries = tpcdsQueries
	}
	if clientQueries != 0 {
		cfg.ClientQueries = clientQueries
	}
	return cfg, nil
}

func main() {
	exp := flag.String("exp", "all", "experiments to run: all, or digits 1..6 (5 and 6 are one run, Exp-5 with Exp-6)")
	scale := flag.Float64("scale", 0, "data scale factor (0 = harness default)")
	seed := flag.Int64("seed", 0, "generation seed (0 = harness default)")
	tpcdsQueries := flag.Int("tpcds-queries", 0, "number of TPC-DS queries (0 = harness default, 99 = full workload)")
	clientQueries := flag.Int("client-queries", 0, "number of client queries (0 = harness default, 116 = full workload)")
	flag.Parse()
	run, err := experimentsFor(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "galo-experiments:", err)
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := configFor(*scale, *seed, *tpcdsQueries, *clientQueries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "galo-experiments:", err)
		flag.Usage()
		os.Exit(2)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "galo-experiments:", err)
		os.Exit(1)
	}

	if run[1] {
		rows, err := experiments.RunExp1(cfg, []int{1, 2, 3, 4})
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderExp1(rows))
	}
	if run[2] {
		res, err := experiments.RunExp2(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderExp2(res))
	}
	if run[3] {
		rows, err := experiments.RunExp3(cfg, []int{2, 4, 8, 15, 24, 32})
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderExp3(rows))
	}
	if run[4] {
		rows, err := experiments.RunExp4(cfg, []int{10, 20, 40, 80}, []int{50, 200, 500, 1000})
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderExp4(rows))
	}
	if run[5] || run[6] {
		rows, err := experiments.RunExp56(cfg)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderExp56(rows))
	}
}
