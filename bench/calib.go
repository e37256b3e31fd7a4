package main

import (
	"fmt"
	"sort"
	"time"
)

// The sandbox's speed drifts by 30–50 % over minutes for memory-heavy Go code
// while a register-only loop barely moves (README, "Steadiness"), so a wall
// time says as much about the minute it was taken in as about the program.
// The benchmark therefore times, between the requests, a fixed kernel of its
// own that does what the program's hot paths do — build and probe a hash
// table of boxed rows, append, sort, concatenate strings, allocate — and
// reports every end-to-end timing at the speed at which that kernel takes
// calibNominal.

// calibNominal is the machine speed the timings are reported at: one run of
// the reference kernel takes this long (alone on the quiet sandbox it takes
// 1.15 ms; beside two busy clients 1.2 to 1.9 ms).
const calibNominal = time.Millisecond

// calibEvery is how long a client serves requests between two kernel runs:
// about 5 % of its time goes to the kernel.
const calibEvery = 30 * time.Millisecond

// calibrator holds the kernel's fixed inputs. They are only read, so the
// clients share one.
type calibrator struct {
	left, right [][]any
	groups      int    // the kernel's result, the same on every run
	allocPerRun uint64 // bytes one run allocates, taken out of alloc_kb_per_req
}

// calibSample is one timed kernel run.
type calibSample struct {
	at   time.Duration // start, since the window opened
	took time.Duration
}

// newCalibrator draws the inputs from a fixed xorshift sequence and measures
// what one run allocates; call it while nothing else in the process runs.
func newCalibrator() *calibrator {
	x := uint64(4242)
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	c := &calibrator{left: make([][]any, 4096), right: make([][]any, 1024)}
	for i := range c.left {
		c.left[i] = []any{int64(next(1024)), float64(next(100000)) / 100, fmt.Sprintf("item-%d", next(5000))}
	}
	for i := range c.right {
		c.right[i] = []any{int64(i), fmt.Sprintf("cat-%d", next(12)), int64(next(3))}
	}
	c.groups = c.kernel()
	const runs = 8
	before := heapAllocated()
	for r := 0; r < runs; r++ {
		c.kernel()
	}
	c.allocPerRun = (heapAllocated() - before) / runs
	return c
}

// kernel hash-joins left to the two thirds of right that pass a filter, sorts
// the joined rows by a float column and groups them by a string key.
func (c *calibrator) kernel() int {
	build := map[int64][]int{}
	for i, r := range c.right {
		if r[2].(int64) != 0 {
			k := r[0].(int64)
			build[k] = append(build[k], i)
		}
	}
	var out [][]any
	for _, l := range c.left {
		for _, ri := range build[l[0].(int64)] {
			out = append(out, []any{l[0], l[1], l[2], c.right[ri][1]})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a][1].(float64) < out[b][1].(float64) })
	sums := map[string]float64{}
	for _, o := range out {
		sums[o[3].(string)+"|"+o[2].(string)] += o[1].(float64)
	}
	return len(sums)
}

// run times one kernel run.
func (c *calibrator) run() time.Duration {
	start := time.Now()
	if got := c.kernel(); got != c.groups {
		panic(fmt.Sprintf("calibration kernel returned %d groups, then %d", c.groups, got))
	}
	return time.Since(start)
}

// background times the kernel every calibEvery beside whatever the caller does
// next; stop ends that and returns how many times slower than nominal the
// machine ran meanwhile: the fastest decile of the runs over calibNominal.
// Not the median as in a window: a set-up alternates between phases that keep
// one core busy and two, a kernel run that has to share a core only ever
// takes longer, and the median flipped between the two kinds from one set-up
// to the next (quartile spread of setup_s 18–22 % by the median, 5–9 % by
// the fastest decile, over 200 set-ups of each of three workloads).
func (c *calibrator) background() (stop func() float64) {
	quit := make(chan struct{})
	done := make(chan float64)
	go func() {
		took := []float64{c.run().Seconds()}
		for {
			select {
			case <-quit:
				sort.Float64s(took)
				done <- percentile(took, 0.1) / calibNominal.Seconds()
				return
			case <-time.After(calibEvery):
				took = append(took, c.run().Seconds())
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-done
	}
}
