// Command bench is the repository's benchmark: it generates /reopt traffic
// from a seed, drives the real core.System API handler over loopback HTTP,
// checks the answers, and reports the end-to-end and per-layer metrics that
// BENCHMARK.json declares. See README.md in this directory.
//
//	go run -C bench . -seed 1                 all four workloads, one process each
//	go run -C bench . -workload routinized    one workload in this process
//	go run -C bench . -quick                  a 2-second smoke run of all four
//	go run -C bench . -compare a.json b.json  apply BENCHMARK.json's bounds to two result sets
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "run this one workload in this process (default: all, one process each)")
	seeds := flag.String("seed", "1", "traffic seed; a comma-separated list runs all workloads once per seed")
	seconds := flag.Float64("seconds", 16, "length of the timed window")
	trace := flag.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics instead of the end-to-end ones")
	quick := flag.Bool("quick", false, "smoke run: 2-second windows, one set-up, sample-count gate off")
	out := flag.String("out", "", "where the all-workloads run writes its result set (default bench/out/results.json)")
	compareMode := flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *compareMode {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		regressed, err := compareFiles(root, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *quick {
		*seconds = 2
	}
	if *seconds < 1 {
		fatal(errors.New("-seconds must be at least 1"))
	}
	if *workload == "" {
		if *out == "" {
			*out = filepath.Join(root, "bench", "out", "results.json")
		}
		if err := runAll(root, strings.Split(*seeds, ","), *seconds, *quick, *out); err != nil {
			fatal(err)
		}
		return
	}
	seed, err := strconv.ParseInt(*seeds, 10, 64)
	if err != nil {
		fatal(fmt.Errorf("-seed with -workload takes one integer: %w", err))
	}
	res, spans, err := runWorkload(options{workload: *workload, seed: seed, seconds: *seconds, trace: *trace == 1, quick: *quick, root: root})
	if err != nil {
		fatal(err)
	}
	if err := emit(root, res, spans, *trace == 1); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// findRoot walks up from the working directory to the one holding
// BENCHMARK.json, so the benchmark runs the same from the checkout root
// (bench/run.sh) and from bench/ (go run -C bench, go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// emit prints every measured metric by name, writes the result and the trace
// under bench/out, and ends standard output with the one-line JSON object
// the benchmark contract asks for: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func emit(root string, res *result, spans *tracer, traced bool) error {
	outDir := filepath.Join(root, "bench", "out")
	printMetrics(res)
	if err := writeJSON(filepath.Join(outDir, res.Workload+".json"), res); err != nil {
		return err
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	reported := res.EndToEnd
	if traced {
		reported = res.PerLayer
		doc := struct {
			Env   env    `json:"env"`
			Spans []span `json:"spans"`
		}{res.Env, spans.spans}
		if err := writeJSON(filepath.Join(outDir, res.Workload+".trace.json"), doc); err != nil {
			return err
		}
	}
	for name, m := range reported {
		line.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func printMetrics(res *result) {
	fmt.Printf("workload %s  seed %d  %d clients  %.0f-s window  %d cpus  GOMAXPROCS %d  %s  commit %s\n",
		res.Workload, res.Env.Seed, res.Env.Clients, res.Env.WindowSeconds, res.Env.CPUs, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Commit)
	for _, group := range []map[string]metric{res.EndToEnd, res.PerLayer} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := group[name]
			samples := ""
			if m.N > 0 {
				samples = fmt.Sprintf("  (n=%d)", m.N)
			}
			fmt.Printf("  %-32s %14.4f %-6s%s\n", name, m.Value, m.Unit, samples)
		}
	}
	fmt.Printf("  attempted %d  failed %d  failed_share %.6f\n", res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, c := range res.Checks {
		fmt.Printf("  FAILED CHECK: %s\n", c)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload once per seed, each in its own process (so one
// workload's heap, caches and peak RSS cannot leak into the next), with the
// traced pass on, and gathers the per-workload results into one result set.
func runAll(root string, seeds []string, seconds float64, quick bool, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var results []*result
	var failed []string
	for _, seed := range seeds {
		for _, s := range specs {
			args := []string{"-workload", s.name, "-seed", strings.TrimSpace(seed), "-seconds", fmt.Sprint(seconds), "-trace", "1"}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Dir = root
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var exit *exec.ExitError
			if runErr != nil && !(errors.As(runErr, &exit) && exit.ExitCode() == 1) {
				return fmt.Errorf("%s seed %s: %w", s.name, seed, runErr)
			}
			if runErr != nil {
				failed = append(failed, s.name+" seed "+seed)
			}
			data, err := os.ReadFile(filepath.Join(root, "bench", "out", s.name+".json"))
			if err != nil {
				return err
			}
			res := &result{}
			if err := json.Unmarshal(data, res); err != nil {
				return err
			}
			results = append(results, res)
		}
	}
	if err := writeJSON(outPath, results); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d runs)\n", outPath, len(results))
	if len(failed) > 0 {
		return fmt.Errorf("failed checks in: %s", strings.Join(failed, ", "))
	}
	return nil
}
