package fleet

import (
	"errors"
	"math"
	"sync/atomic"
	"time"
)

// rebalanceMaxMinRatio is the skew trigger: when the busiest shard received
// more than this many times the probes of the idlest shard within the last
// window, one hot shape migrates.
const rebalanceMaxMinRatio = 2

// RebalanceOptions configures the probe-skew rebalancer.
type RebalanceOptions struct {
	// Enabled turns the rebalancer on (core starts it with the gateway).
	Enabled bool
	// Interval is how often the rebalancer samples the probe counters and
	// considers one migration (default 5s).
	Interval time.Duration
	// MinWindowProbes is the minimum probe volume a window needs before its
	// skew is acted on; quiet windows are never rebalanced (default 64).
	MinWindowProbes int64
}

func (o RebalanceOptions) withDefaults() RebalanceOptions {
	if o.Interval <= 0 {
		o.Interval = 5 * time.Second
	}
	if o.MinWindowProbes <= 0 {
		o.MinWindowProbes = 64
	}
	return o
}

// RebalanceStats is the rebalancer's row in the /stats fleet section.
type RebalanceStats struct {
	Moves     int64   `json:"moves"`
	LastRatio float64 `json:"last_ratio"`
	Skipped   int64   `json:"skipped"`
}

// Rebalancer watches a per-shard probe counter source (the matching
// engine's ProbesByShard) and migrates the hottest shape off the busiest
// shard whenever a window's max/min probe ratio exceeds the threshold — one
// shape per window, so a large imbalance is worked off in paced steps
// instead of one bulk move.
type Rebalancer struct {
	f      *Fleet
	source func() []int64
	opts   RebalanceOptions

	last      []int64
	moves     atomic.Int64
	skipped   atomic.Int64
	lastRatio atomic.Uint64 // float64 bits

	stop chan struct{}
	done chan struct{}
}

// NewRebalancer builds a rebalancer over the fleet. source must return one
// cumulative probe counter per shard (len == f.Shards()).
func (f *Fleet) NewRebalancer(source func() []int64, opts RebalanceOptions) *Rebalancer {
	return &Rebalancer{
		f:      f,
		source: source,
		opts:   opts.withDefaults(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Start launches the sampling loop; Stop ends it.
func (r *Rebalancer) Start() {
	go func() {
		defer close(r.done)
		ticker := time.NewTicker(r.opts.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-ticker.C:
				_, _ = r.Step()
			}
		}
	}()
}

// Stop terminates the sampling loop and waits for it to exit.
func (r *Rebalancer) Stop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
}

// Step samples one window and performs at most one migration. It is the
// loop body Start drives on a ticker, exported so tests (and drills) can
// pace windows deterministically. It reports whether a shape was migrated.
func (r *Rebalancer) Step() (bool, error) {
	cur := r.source()
	if len(cur) != r.f.Shards() {
		return false, errors.New("fleet: rebalancer source length != shard count")
	}
	if r.last == nil {
		r.last = cur
		return false, nil
	}
	delta := make([]int64, len(cur))
	var total int64
	for i := range cur {
		delta[i] = cur[i] - r.last[i]
		total += delta[i]
	}
	r.last = cur
	if total < r.opts.MinWindowProbes {
		return false, nil
	}
	maxI, minI := 0, 0
	for i, d := range delta {
		if d > delta[maxI] {
			maxI = i
		}
		if d < delta[minI] {
			minI = i
		}
	}
	den := delta[minI]
	if den < 1 {
		den = 1
	}
	ratio := float64(delta[maxI]) / float64(den)
	r.lastRatio.Store(math.Float64bits(ratio))
	if ratio < rebalanceMaxMinRatio || maxI == minI {
		return false, nil
	}
	shape, ok := r.f.table.HotShape(maxI)
	if !ok || shape == "" {
		r.skipped.Add(1)
		return false, nil
	}
	if err := r.f.MigrateShape(shape, maxI, minI); err != nil {
		r.skipped.Add(1)
		if errors.Is(err, ErrShapeEmpty) {
			return false, nil // fallback-routed traffic; nothing movable
		}
		return false, err
	}
	r.moves.Add(1)
	return true, nil
}

// Stats snapshots the rebalancer's counters.
func (r *Rebalancer) Stats() RebalanceStats {
	return RebalanceStats{
		Moves:     r.moves.Load(),
		LastRatio: math.Float64frombits(r.lastRatio.Load()),
		Skipped:   r.skipped.Load(),
	}
}
