package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// options selects one run of one workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// quick shrinks warm-up, set-up repeats and cold boots and waives the
	// sample-count gate: a smoke run that keeps every check firing.
	quick bool
	// root is the checkout root (the directory holding BENCHMARK.json).
	root string
}

// metric is one reported number. N is the sample count behind a timing.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// env records where and how a result was measured.
type env struct {
	CPUs          int     `json:"cpus"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	Seed          int64   `json:"seed"`
	Clients       int     `json:"clients"`
	WindowSeconds float64 `json:"window_seconds"`
	Quick         bool    `json:"quick,omitempty"`
}

// result is one run of one workload, as written to bench/out/<workload>.json.
type result struct {
	Workload  string            `json:"workload"`
	Env       env               `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []string          `json:"failed_checks,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runWorkload sets the workload's deployment up, drives the timed window
// (tracing off), checks every answer, optionally makes the traced pass, and
// shuts the deployment down. An error means the run could not be measured;
// failed checks are reported in the result instead.
func runWorkload(o options) (*result, *tracer, error) {
	s, ok := specByName(o.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	warmUp, setUps, boots, minSamples := 2*time.Second, 3, 5, 500
	if o.quick {
		warmUp, setUps, boots, minSamples = 300*time.Millisecond, 1, 2, 1
	}
	outDir := filepath.Join(o.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}

	// Set up several times and report the median: one set-up is a single
	// sample of a seconds-long, allocation-heavy computation. Each is reported
	// at nominal machine speed, from kernel runs made beside it.
	cal := newCalibrator()
	var fx *fixture
	var setupS []float64
	for r := 0; r < setUps; r++ {
		if fx != nil {
			if err := fx.discard(); err != nil {
				return nil, nil, err
			}
		}
		slowdown := cal.background()
		start := time.Now()
		var err error
		fx, err = setUp(s, outDir)
		took := time.Since(start).Seconds()
		setupS = append(setupS, took/slowdown())
		if err != nil {
			return nil, nil, err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = fx.stop() // error path only; the success path checks stop's error
		}
		if fx.dataDir != "" {
			_ = os.RemoveAll(fx.dataDir)
		}
	}()

	var pool []request
	var reqs stream
	switch {
	case s.distinct:
		reqs = coldStream(o.seed)
	case s.execute:
		pool = executePool(fx.db)
	default:
		pool = routinizedPool()
	}
	if pool != nil {
		reqs = cycle(o.seed, pool)
	}
	expected := map[string]answer{}
	for _, req := range pool {
		res, err := reference(fx.sys, req)
		if err != nil {
			return nil, nil, err
		}
		expected[req.name] = answerOf(res)
	}
	baseTemplates := fx.sys.KB().Size()

	// The first s.traced indices are left to the traced pass, so that on the
	// distinct stream it too sees queries the server never served.
	var next atomic.Int64
	next.Store(int64(s.traced))
	drive(fx, cal, reqs, &next, warmUp)
	window := time.Duration(o.seconds * float64(time.Second))
	var pub publishing
	var pubErr error
	var writer sync.WaitGroup
	if s.publish {
		writer.Add(1)
		go func() {
			defer writer.Done()
			pub, pubErr = publish(fx, o.seed, window)
		}()
	}
	heap := sampleHeap()
	w := drive(fx, cal, reqs, &next, window)
	heapMB := heap.stop()
	writer.Wait()
	if pubErr != nil {
		return nil, nil, pubErr
	}

	res := &result{
		Workload: s.name,
		Env: env{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Seed: o.seed, Clients: s.clients, WindowSeconds: o.seconds, Quick: o.quick},
		Attempted: w.attempted,
		Failed:    w.failed,
	}
	check := func(ok bool, format string, args ...any) {
		if !ok {
			res.Checks = append(res.Checks, fmt.Sprintf(format, args...))
		}
	}

	wrong, err := checkAnswers(fx, reqs, &w, expected)
	if err != nil {
		return nil, nil, err
	}
	res.Failed += wrong
	if s.execute {
		checked, changed, err := checkRewritesPreserveResults(fx, pool)
		if err != nil {
			return nil, nil, err
		}
		check(checked > 0, "no pool query was rewritten, so no rewrite was validated")
		check(changed == 0, "%d of %d rewrites changed their query's result", changed, checked)
	}
	stats, err := fetchStats(fx)
	if err != nil {
		return nil, nil, fmt.Errorf("GET /stats: %w", err)
	}

	check(len(w.samples) >= minSamples, "window holds %d samples, need %d", len(w.samples), minSamples)
	if len(w.samples) == 0 || len(w.calib) == 0 {
		return nil, nil, fmt.Errorf("%d requests and %d kernel runs completed in the window", len(w.samples), len(w.calib))
	}
	hitRatio := 0.0
	if w.probes > 0 {
		hitRatio = float64(w.cacheHits) / float64(w.probes)
	}
	switch {
	case s.distinct:
		check(hitRatio <= 0.10, "cache hit ratio %.3f, want <= 0.10 on a distinct stream", hitRatio)
	case !s.publish: // a publication invalidates a shard's entries; without a writer a pool stays warm
		check(hitRatio >= 0.95, "cache hit ratio %.3f, want >= 0.95 on a repeating pool", hitRatio)
	}

	// The end-to-end timings are reported at nominal machine speed (calib.go):
	// a request's latency, a slice's wall time and the CPU it burned are each
	// divided by the slowdown the reference kernel showed in that slice.
	slowdown, kernelBusy := w.slowdowns()
	lat, whole := make([]float64, len(w.samples)), make([]float64, len(w.samples))
	meanUs := 0.0
	for i, sm := range w.samples {
		whole[i] = millis(sm.latency)
		lat[i] = whole[i] / slowdown[w.sliceAt(sm.end)]
		meanUs += whole[i] * 1000 / float64(len(whole))
	}
	sort.Float64s(lat)
	sort.Float64s(whole)
	var nominalS, cpuMs float64
	for k, f := range slowdown {
		nominalS += (w.bounds[k+1] - w.bounds[k]).Seconds() / f
		cpuMs += millis(w.cpuMarks[k+1]-w.cpuMarks[k]-kernelBusy[k]) / f
	}
	// Requests per nominal second in each whole four seconds of the window
	// (a pool cycle takes under half a second): their spread says whether the
	// rescaled window was steady.
	const group = 4 * time.Second
	perGroup := make([]float64, int(w.seconds/group.Seconds()))
	for _, sm := range w.samples {
		if g := int(sm.end / group); g < len(perGroup) {
			perGroup[g] += slowdown[w.sliceAt(sm.end)] / group.Seconds()
		}
	}
	kernelMs := make([]float64, len(w.calib))
	for i, c := range w.calib {
		kernelMs[i] = millis(c.took)
	}
	requestBytes := float64(w.allocated - uint64(len(w.calib))*cal.allocPerRun)
	res.EndToEnd = map[string]metric{
		"setup_s":          {Value: median(setupS), Unit: "s", N: len(setupS)},
		"reopt_rps":        {Value: float64(len(lat)) / nominalS, Unit: "req/s", N: len(lat)},
		"reopt_p50_ms":     {Value: percentile(lat, 0.5), Unit: "ms", N: len(lat)},
		"reopt_p99_ms":     {Value: percentile(lat, 0.99), Unit: "ms", N: len(lat)},
		"cpu_ms_per_req":   {Value: cpuMs / float64(len(lat)), Unit: "ms", N: len(lat)},
		"alloc_kb_per_req": {Value: requestBytes / 1024 / float64(len(lat)), Unit: "KB", N: len(lat)},
		"heap_mb":          {Value: median(heapMB), Unit: "MB", N: len(heapMB)},
	}

	var tr *traced
	var t *tracer
	singleUs := 0.0
	if o.trace {
		// One client, tracing off: two whole cycles of a pool, or as many
		// fresh requests of the distinct stream as the traced pass replays.
		from, n := 0, 2*len(pool)
		if pool == nil {
			from, n = int(next.Load()), s.traced
		}
		if singleUs, err = singleClientMean(fx, reqs, from, n); err != nil {
			return nil, nil, err
		}
		t = newTracer()
		if tr, err = tracedPass(fx, reqs, pool, t); err != nil {
			return nil, nil, err
		}
		res.Failed += tr.wrong
	}

	// Shut down gracefully; the publishing workload then boots cold from
	// what reached the disk.
	templates, epochs, walStats := fx.sys.KB().Size(), fx.sys.KB().Epochs(), fx.sys.PersistStats()
	stopped = true
	if err := fx.stop(); err != nil {
		return nil, nil, fmt.Errorf("shutdown: %w", err)
	}
	var rec recovery
	if s.publish {
		check(templates == baseTemplates+pub.acked, "KB holds %d templates, want %d + %d acknowledged", templates, baseTemplates, pub.acked)
		if rec, err = recoverColdBoots(fx, boots, templates, epochs); err != nil {
			check(false, "%v", err)
		}
	}

	if o.trace {
		n := tr.requests
		staged := 0.0
		for _, name := range stagedNames {
			staged += t.per(name, n)
		}
		reoptStaged := 0.0
		for _, name := range reoptimizeNames {
			reoptStaged += t.per(name, n)
		}
		execUs := t.per("executor.execute_orig", n) + t.per("executor.execute_rewritten", n)
		us := func(v float64) metric { return metric{Value: v, Unit: "us", N: n} }
		count := func(v float64) metric { return metric{Value: v, Unit: "count"} }
		ratio := func(v float64) metric { return metric{Value: v, Unit: "ratio"} }
		perProbe := func(name string) metric {
			a := t.us[name]
			if a == nil {
				return metric{Unit: "us"}
			}
			return metric{Value: a.mean(), Unit: "us", N: a.n}
		}
		m := map[string]metric{
			"sqlparser.parse_us":            us(t.per("sqlparser.parse", n)),
			"optimizer.first_us":            us(t.per("optimizer.first", n)),
			"optimizer.second_us":           us(t.per("optimizer.second", n)),
			"optimizer.plans_considered":    count(float64(tr.plansConsidered)),
			"qgm.enumerate_us":              us(t.per("qgm.enumerate", n)),
			"qgm.fragments_per_req":         count(float64(tr.fragments) / float64(n)),
			"qgm.format_us":                 us(t.per("qgm.format", n)),
			"transform.fragment_query_us":   us(t.per("transform.fragment_query", n)),
			"transform.query_bytes_per_req": count(float64(tr.queryBytes) / float64(n)),
			"matching.match_plan_us":        us(t.per("matching.match_plan", n)),
			"matching.self_us":              us(tr.selfUs / float64(n)),
			"matching.probes_per_req":       count(float64(tr.probes) / float64(n)),
			"matching.cache_hit_ratio":      ratio(hitRatio),
			"matching.deduped_probes":       count(float64(stats.DedupedProbes)),
			"fuseki.local_select_us":        perProbe("fuseki.local_select"),
			"sparql.parse_us":               perProbe("sparql.parse"),
			"sparql.execute_us":             perProbe("sparql.execute"),
			"sparql.solutions_per_probe":    count(tr.solutions.mean()),
			"rdf.triples":                   count(float64(fx.sys.KB().Triples())),
			"kb.templates":                  count(float64(templates)),
			"guideline.parse_us":            us(t.per("guideline.parse", n)),
			"guideline.merge_us":            us(t.per("guideline.merge", n)),
			"guideline.xml_us":              us(t.per("guideline.xml", n)),
			"core.reoptimize_us":            us(t.per("core.reoptimize", n)),
			"core.json_encode_us":           us(t.per("core.json_encode", n)),
			"core.http_transport_us":        us(t.per("core.http_transport", n)),
			"core.http_wall_us":             {Value: singleUs, Unit: "us"},
			"core.trace_coverage":           ratio(staged / singleUs),
			"core.rewritten_share":          ratio(float64(tr.rewritten) / float64(n)),
			"executor.execute_orig_us":      us(t.per("executor.execute_orig", n)),
			"executor.execute_rewritten_us": us(t.per("executor.execute_rewritten", n)),
			"executor.rows_per_s":           {Unit: "1/s"},
			"executor.peak_rows":            count(float64(tr.peakRows)),
			"executor.sim_millis":           {Value: tr.simOrigMs / float64(n), Unit: "ms"},
			"executor.sim_speedup":          {Unit: "x"},
			"executor.share":                ratio(execUs / staged),
			"kb.ntriples_dump_ms":           {Value: tr.dumpMs, Unit: "ms"},
			"kb.load_ntriples_ms":           {Value: fx.loadNTriplesMs, Unit: "ms"},
			"kb.add_us":                     {Value: median(pub.addUs), Unit: "us", N: len(pub.addUs)},
			"kb.add_us_last50":              {Unit: "us"},
			"kb.publish_p50_ms":             {Unit: "ms"},
			"kb.publish_tail_ms":            {Unit: "ms"},
			"kb.publish_tail_percentile":    {Unit: "ratio"},
			"wal.appends":                   {Unit: "count"},
			"wal.bytes_per_publish":         {Unit: "count"},
			"wal.fsyncs":                    {Unit: "count"},
			"wal.snapshots":                 {Unit: "count"},
			"wal.records_replayed":          count(float64(rec.recordsReplayed)),
			"wal.recover_ms":                {Value: median(rec.bootMs), Unit: "ms", N: len(rec.bootMs)},
			"wal.recover_us_per_template":   {Unit: "us"},
			"learning.learn_wall_s":         {Value: fx.learn.WallMillis / 1000, Unit: "s"},
			"learning.subqueries_per_s":     {Value: float64(fx.learn.SubQueriesAnalyzed) / (fx.learn.WallMillis / 1000), Unit: "1/s"},
			"learning.templates_added":      count(float64(fx.learn.TemplatesAdded)),
			"fleet.remote_select_us":        perProbe("fleet.remote_select"),
			"fleet.retries":                 count(float64(tr.fleetRetries)),
			"bench.tracing_overhead_ratio":  ratio(reoptStaged / t.per("core.reoptimize", n)),
			"bench.generator_late_ms":       {Value: median(pub.lateMs), Unit: "ms", N: len(pub.lateMs)},
			"bench.rps_slice_spread":        ratio(quartileSpread(perGroup)),
			"bench.calib_ms":                {Value: median(kernelMs), Unit: "ms", N: len(kernelMs)},
			"bench.window_rps":              {Value: float64(len(whole)) / w.seconds, Unit: "req/s", N: len(whole)},
			"bench.window_p50_ms":           {Value: percentile(whole, 0.5), Unit: "ms", N: len(whole)},
			"bench.window_p99_ms":           {Value: percentile(whole, 0.99), Unit: "ms", N: len(whole)},
			"bench.concurrency_inflation":   ratio(meanUs / singleUs),
		}
		for j := 1; j <= 5; j++ {
			name := fmt.Sprintf("optimizer.first_us_j%d", j)
			m[name] = metric{Unit: "us"}
			if a := tr.firstByJoins[j]; a != nil {
				m[name] = metric{Value: a.mean(), Unit: "us", N: a.n}
			}
		}
		if execUs > 0 {
			m["executor.rows_per_s"] = metric{Value: float64(tr.execRows) / (execUs * float64(n) / 1e6), Unit: "1/s"}
			m["executor.sim_speedup"] = metric{Value: tr.simOrigMs / tr.simGaloMs, Unit: "x"}
			check(execUs/staged >= 0.7, "executor share %.2f of a staged request, want >= 0.7", execUs/staged)
		}
		if s.publish {
			sorted := append([]float64(nil), pub.latencyMs...)
			sort.Float64s(sorted)
			// The tail is the highest percentile the publication count supports.
			tail := supportedPercentile(len(sorted))
			last := pub.addUs[max(0, len(pub.addUs)-50):]
			m["kb.add_us_last50"] = metric{Value: median(last), Unit: "us", N: len(last)}
			m["kb.publish_p50_ms"] = metric{Value: percentile(sorted, 0.5), Unit: "ms", N: len(sorted)}
			m["kb.publish_tail_ms"] = metric{Value: percentile(sorted, tail), Unit: "ms", N: len(sorted)}
			m["kb.publish_tail_percentile"] = ratio(tail)
			if walStats != nil && pub.acked > 0 {
				m["wal.appends"] = count(float64(walStats.WALAppends))
				m["wal.bytes_per_publish"] = count(float64(walStats.WALBytes) / float64(pub.acked))
				m["wal.fsyncs"] = count(float64(walStats.Fsyncs))
				m["wal.snapshots"] = count(float64(walStats.Snapshots))
			}
			if rec.templates > 0 {
				m["wal.recover_us_per_template"] = metric{Value: median(rec.bootMs) * 1000 / float64(rec.templates), Unit: "us"}
			}
		}
		res.PerLayer = m
	}
	if o.trace {
		res.PerLayer["bench.peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
	}
	check(res.Failed == 0, "%d of %d requests failed or answered wrongly", res.Failed, res.Attempted)
	res.Correct = len(res.Checks) == 0
	return res, t, nil
}
