package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"galo/internal/core"
	"galo/internal/matching"
	"galo/internal/sqlparser"
)

// answer is the part of a /reopt response the benchmark checks: whether the
// plan was rewritten and which templates matched, in order.
type answer struct {
	rewritten bool
	templates string
}

func answerOf(res *matching.Result) answer {
	a := answer{rewritten: res.Rewritten()}
	for _, m := range res.Matches {
		a.templates += m.TemplateIRI + ","
	}
	return a
}

// reference re-optimizes the request in process, bypassing HTTP: the answer
// the served response must equal.
func reference(sys *core.System, req request) (*matching.Result, error) {
	q, err := sqlparser.Parse(req.sql)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", req.name, err)
	}
	q.Name = req.name
	res, err := sys.Reoptimize(q)
	if err != nil {
		return nil, fmt.Errorf("%s: reoptimize: %w", req.name, err)
	}
	return res, nil
}

// response is what the client decodes of a ReoptResponse; the plan texts are
// read off the wire but not kept.
type response struct {
	Rewritten bool `json:"rewritten"`
	Matches   []struct {
		TemplateIRI string `json:"template_iri"`
	} `json:"matches"`
	Probes    int `json:"probes"`
	CacheHits int `json:"cache_hits"`
}

func (r *response) answer() answer {
	a := answer{rewritten: r.Rewritten}
	for _, m := range r.Matches {
		a.templates += m.TemplateIRI + ","
	}
	return a
}

// sample is one completed request of the timed window.
type sample struct {
	index   int
	end     time.Duration // since the window opened
	latency time.Duration
	got     answer
}

// window is what the closed-loop clients observed between two instants.
type window struct {
	seconds   float64
	samples   []sample
	attempted int
	failed    int // transport errors, non-200 and undecodable bodies
	probes    int64
	cacheHits int64
	allocated uint64 // bytes the process allocated on the heap over the window, kernel runs included
	// calib are the reference-kernel runs the clients made between requests.
	calib []calibSample
	// bounds[k] and bounds[k+1] delimit slice k of the window; cpuMarks[k] is
	// the process's cumulative user+sys CPU at bounds[k].
	bounds   []time.Duration
	cpuMarks []time.Duration
}

// sliceLength is the grain at which the machine's speed is followed: each
// request is rescaled by the kernel runs of the quarter second it ended in.
// Rescaling by slice, not by window, halved the run-to-run spread in sizing
// runs; the interference changes within seconds.
const sliceLength = 250 * time.Millisecond

// heapAllocated is the cumulative number of bytes allocated on the Go heap.
func heapAllocated() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler reads the Go heap's size every 20 ms while a window runs.
type heapSampler struct {
	quit chan struct{}
	done chan []float64
}

// sampleHeap starts sampling "/memory/classes/heap/objects:bytes" — live
// objects plus dead ones not yet swept, the sawtooth between collections —
// which, unlike the resident set, forgets the set-up's peak.
func sampleHeap() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var mb []float64
		for {
			select {
			case <-h.quit:
				h.done <- mb
				return
			case <-tick.C:
				metrics.Read(sample)
				mb = append(mb, float64(sample[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the samples in MB.
func (h *heapSampler) stop() []float64 {
	close(h.quit)
	return <-h.done
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// drive runs a closed loop of `clients` goroutines against the fixture for d:
// each draws the next stream index from the shared counter, posts it, and
// only then draws again; every calibEvery it times the reference kernel
// before its next request. Requests still in flight at the deadline complete
// but are not counted.
func drive(fx *fixture, cal *calibrator, reqs stream, next *atomic.Int64, d time.Duration) window {
	httpc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: fx.spec.clients}}
	defer httpc.CloseIdleConnections()
	parts := make([]window, fx.spec.clients)
	total := window{seconds: d.Seconds()}
	for b := time.Duration(0); b < d; b += sliceLength {
		total.bounds = append(total.bounds, b)
	}
	total.bounds = append(total.bounds, d)
	var wg sync.WaitGroup
	alloc0 := heapAllocated()
	start := time.Now()
	marks := make(chan []time.Duration, 1)
	go func() {
		cpu := []time.Duration{processCPU()}
		for _, b := range total.bounds[1:] {
			time.Sleep(b - time.Since(start))
			cpu = append(cpu, processCPU())
		}
		marks <- cpu
	}()
	for c := range parts {
		wg.Add(1)
		go func(w *window) {
			defer wg.Done()
			calibrated := time.Duration(-calibEvery)
			for {
				if at := time.Since(start); at-calibrated >= calibEvery && at < d {
					w.calib = append(w.calib, calibSample{at: at, took: cal.run()})
					calibrated = at
				}
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				if t0.Sub(start) >= d {
					return
				}
				var out response
				err := post(httpc, fx.url+"/reopt", reqs(i).body, &out)
				end := time.Since(start)
				if end > d {
					return
				}
				w.attempted++
				if err != nil {
					if w.failed++; w.failed == 1 {
						fmt.Fprintf(os.Stderr, "request %d failed: %v\n", i, err)
					}
					continue
				}
				w.probes += int64(out.Probes)
				w.cacheHits += int64(out.CacheHits)
				w.samples = append(w.samples, sample{index: i, end: end, latency: end - t0.Sub(start), got: out.answer()})
			}
		}(&parts[c])
	}
	wg.Wait()
	total.allocated = heapAllocated() - alloc0
	total.cpuMarks = <-marks
	for _, p := range parts {
		total.samples = append(total.samples, p.samples...)
		total.calib = append(total.calib, p.calib...)
		total.attempted += p.attempted
		total.failed += p.failed
		total.probes += p.probes
		total.cacheHits += p.cacheHits
	}
	return total
}

// singleClientMean posts requests [from, from+n) of the stream one after the
// other and returns their mean latency in µs: the tracing-off, no-contention
// reference the staged spans of the single-threaded traced pass must add up to.
func singleClientMean(fx *fixture, reqs stream, from, n int) (float64, error) {
	httpc := &http.Client{}
	defer httpc.CloseIdleConnections()
	start := time.Now()
	for i := from; i < from+n; i++ {
		var out response
		if err := post(httpc, fx.url+"/reopt", reqs(i).body, &out); err != nil {
			return 0, fmt.Errorf("single-client request %d: %w", i, err)
		}
	}
	return micros(time.Since(start)) / float64(n), nil
}

func post(c *http.Client, url string, body []byte, out any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return err
}

// sliceAt is the slice of the window an instant falls in.
func (w *window) sliceAt(at time.Duration) int {
	return min(int(at/sliceLength), len(w.bounds)-2)
}

// slowdowns returns, for each slice of the window, how many times slower than
// nominal the machine ran and how long the kernel kept the clients busy: the
// median of the kernel runs started in the slice over calibNominal. A slice
// with fewer than two runs (a stall swallowed them) takes the window's median.
func (w *window) slowdowns() (factor []float64, busy []time.Duration) {
	slices := len(w.bounds) - 1
	runs := make([][]float64, slices)
	busy = make([]time.Duration, slices)
	var all []float64
	for _, c := range w.calib {
		k := w.sliceAt(c.at)
		runs[k] = append(runs[k], c.took.Seconds())
		all = append(all, c.took.Seconds())
		busy[k] += c.took
	}
	factor = make([]float64, slices)
	for k := range factor {
		took := runs[k]
		if len(took) < 2 {
			took = all
		}
		factor[k] = median(took) / calibNominal.Seconds()
	}
	return factor, busy
}

// publishing is what the open-loop writer observed.
type publishing struct {
	latencyMs []float64 // from each publication's due time to its acknowledgement
	addUs     []float64 // KB.Add alone
	lateMs    []float64 // how far behind its schedule the generator started each one
	acked     int
}

// publishRate is the writer's fixed schedule.
const publishRate = 20 // per second

// publish adds one template every 1/publishRate seconds until d has passed,
// on a schedule fixed at the start: a publication that finds the previous one
// still running starts late, and its latency counts from when it was due.
func publish(fx *fixture, seed int64, d time.Duration) (publishing, error) {
	var p publishing
	knowledge := fx.sys.KB()
	start := time.Now()
	for i := 0; ; i++ {
		due := time.Duration(i) * time.Second / publishRate
		if due >= d {
			return p, nil
		}
		time.Sleep(due - time.Since(start))
		begin := time.Since(start)
		created, err := knowledge.Add(publishTemplate(seed, i))
		end := time.Since(start)
		if err != nil {
			return p, fmt.Errorf("publication %d: %w", i, err)
		}
		if !created {
			return p, fmt.Errorf("publication %d merged into an existing template", i)
		}
		p.acked++
		p.latencyMs = append(p.latencyMs, millis(end-due))
		p.addUs = append(p.addUs, micros(end-begin))
		p.lateMs = append(p.lateMs, millis(begin-due))
	}
}

// statsView is the part of GET /stats the benchmark reads.
type statsView struct {
	DedupedProbes int64 `json:"deduped_probes"`
}

func fetchStats(fx *fixture) (statsView, error) {
	var st statsView
	resp, err := http.Get(fx.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// checkAnswers compares served answers with in-process references and
// returns how many differ. Pool workloads check every sample against the
// pool's precomputed answers; the distinct stream re-optimizes every
// verifyEvery-th request after the window (doing it before would warm the
// cache the workload exists to miss).
func checkAnswers(fx *fixture, reqs stream, w *window, expected map[string]answer) (wrong int, err error) {
	const verifyEvery = 16
	for _, s := range w.samples {
		req := reqs(s.index)
		want, ok := expected[req.name]
		if !ok {
			if s.index%verifyEvery != 0 {
				continue
			}
			res, err := reference(fx.sys, req)
			if err != nil {
				return wrong, err
			}
			want = answerOf(res)
		}
		if s.got != want {
			if wrong++; wrong == 1 {
				fmt.Fprintf(os.Stderr, "%s: served %+v, reference %+v\n", req.name, s.got, want)
			}
		}
	}
	return wrong, nil
}

// checkRewritesPreserveResults executes the original and the re-optimized
// plan of every pool query that is rewritten and compares the row multisets.
func checkRewritesPreserveResults(fx *fixture, pool []request) (checked, wrong int, err error) {
	for _, req := range pool {
		res, err := reference(fx.sys, req)
		if err != nil {
			return checked, wrong, err
		}
		if !res.Rewritten() {
			continue
		}
		orig, err := fx.sys.Execute(res.OriginalPlan, res.Query)
		if err != nil {
			return checked, wrong, fmt.Errorf("%s: execute original: %w", req.name, err)
		}
		galo, err := fx.sys.Execute(res.ReoptimizedPlan, res.Query)
		if err != nil {
			return checked, wrong, fmt.Errorf("%s: execute rewritten: %w", req.name, err)
		}
		checked++
		a, b := make([]string, len(orig.Rows)), make([]string, len(galo.Rows))
		for i, row := range orig.Rows {
			a[i] = fmt.Sprint(row)
		}
		for i, row := range galo.Rows {
			b[i] = fmt.Sprint(row)
		}
		sort.Strings(a)
		sort.Strings(b)
		if !reflect.DeepEqual(a, b) {
			wrong++
			fmt.Fprintf(os.Stderr, "%s: rewrite changed the result (%d rows vs %d)\n", req.name, len(a), len(b))
		}
	}
	return checked, wrong, nil
}

// recovery is what cold boots over the final data directory showed.
type recovery struct {
	bootMs          []float64
	templates       int
	recordsReplayed int64
}

// recoverColdBoots boots `boots` fresh systems, each over its own copy of
// the closed data directory (a boot compacts what it recovers, so a second
// boot over the same directory would measure something else), and checks each
// recovers exactly the templates and the epoch vector the closed system had.
func recoverColdBoots(fx *fixture, boots, wantTemplates int, wantEpochs []uint64) (recovery, error) {
	var rec recovery
	for b := 0; b < boots; b++ {
		dir := fmt.Sprintf("%s-boot%d", fx.dataDir, b)
		if err := os.CopyFS(dir, os.DirFS(fx.dataDir)); err != nil {
			return rec, err
		}
		cfg := fx.cfg
		cfg.DataDir = dir
		sys := core.NewSystem(fx.db, cfg)
		start := time.Now()
		info, err := sys.OpenDataDir()
		took := time.Since(start)
		sys.Close()
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		if err != nil {
			return rec, fmt.Errorf("cold boot %d: %w", b, err)
		}
		if !info.Recovered || info.Rerouted || info.Templates != wantTemplates || !reflect.DeepEqual(info.Epochs, wantEpochs) {
			return rec, fmt.Errorf("cold boot %d recovered %+v, want %d templates at epochs %v", b, *info, wantTemplates, wantEpochs)
		}
		rec.bootMs = append(rec.bootMs, millis(took))
		rec.templates = info.Templates
		rec.recordsReplayed = info.Stats.RecordsReplayed
	}
	return rec, nil
}
