package executor

import (
	"regexp"
	"sync"
)

// residency is the single high-water implementation of intermediate-row
// accounting, shared by the serial operators and the exchange operator
// (RunStats.PeakIntermediateRows/Bytes). An operator holds the rows it
// buffers (sort buffers, hash build sides, group-by key sets) and releases
// them when its state is dropped;
// the peak is the worst simultaneous footprint.
//
// All holds and releases of one execution happen on the thread currently
// driving the cursor (exchange workers buffer locally, and the SORT or GRPBY
// above them holds), so the tracker needs no synchronization.
type residency struct {
	curRows, peakRows   int64
	curBytes, peakBytes int64
}

func (r *residency) hold(rows int, bytes int64) {
	r.curRows += int64(rows)
	r.curBytes += bytes
	if r.curRows > r.peakRows {
		r.peakRows = r.curRows
	}
	if r.curBytes > r.peakBytes {
		r.peakBytes = r.curBytes
	}
}

func (r *residency) release(rows int, bytes int64) {
	r.curRows -= int64(rows)
	r.curBytes -= bytes
}

// likeCacheCap bounds the process-wide compiled-LIKE-pattern cache. Real
// workloads repeat a small set of patterns across executions (routinized
// re-optimization re-runs the same queries), so a few hundred entries cover
// them; an adversarial stream of unique patterns just cycles the cache.
const likeCacheCap = 256

// likePatternCache is the process-wide compiled LIKE pattern cache. It
// replaced the per-execution map: routinized repeats of the same query were
// recompiling identical patterns once per execution, and exchange workers
// need a concurrency-safe path anyway.
type likePatternCache struct {
	mu sync.Mutex
	m  map[string]*regexp.Regexp
}

var likeCache = &likePatternCache{m: make(map[string]*regexp.Regexp)}

// get returns the compiled regexp for a LIKE pattern (nil when the pattern
// cannot compile — also cached, so a bad pattern is not recompiled per row).
func (lc *likePatternCache) get(pattern string) *regexp.Regexp {
	lc.mu.Lock()
	re, ok := lc.m[pattern]
	lc.mu.Unlock()
	if ok {
		return re
	}
	// Compile outside the lock; a concurrent miss on the same pattern just
	// compiles twice and the second insert wins harmlessly.
	re = compileLike(pattern)
	lc.mu.Lock()
	if len(lc.m) >= likeCacheCap {
		// Evict an arbitrary entry (map iteration order): bounded beats LRU
		// bookkeeping on a cache this small and this hot.
		for k := range lc.m {
			delete(lc.m, k)
			break
		}
	}
	lc.m[pattern] = re
	lc.mu.Unlock()
	return re
}

// size reports the current entry count (tests).
func (lc *likePatternCache) size() int {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return len(lc.m)
}
