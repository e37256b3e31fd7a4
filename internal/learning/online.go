// Online incremental learning: the closing of GALO's loop at serving time.
// The batch workflow (LearnWorkload) analyzes a whole workload offline; the
// online learner instead watches executor runs as they happen, picks out the
// queries whose plans showed a large actual-vs-estimated cardinality gap —
// the signal every problem pattern in the paper stems from — and feeds them
// through the same per-query analysis, promoting the resulting templates into
// the next knowledge base epoch without any batch relearn.
package learning

import (
	"sync"
	"sync/atomic"

	"galo/internal/kb"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// OnlineOptions configures the online incremental learner.
type OnlineOptions struct {
	// Enabled turns the loop on; when false, Observe is a cheap no-op.
	Enabled bool
	// GapThreshold is the minimum actual-vs-estimated cardinality ratio
	// (qgm.Plan.MaxEstimationGap) an executed plan must show before its
	// query is analyzed; 0 means the default of 8.
	GapThreshold float64
	// QueueSize bounds the analysis backlog; observations arriving at a full
	// queue are dropped (admission control: serving latency must never wait
	// on learning). 0 means the default of 64.
	QueueSize int
}

// DefaultOnlineOptions returns the configuration used by `galo serve
// -online`.
func DefaultOnlineOptions() OnlineOptions {
	return OnlineOptions{Enabled: true, GapThreshold: 8, QueueSize: 64}
}

// OnlineStats counts what the online learner has done; all fields are
// cumulative.
type OnlineStats struct {
	// Observed counts executed plans offered to the learner.
	Observed int64
	// Triggered counts observations whose gap cleared the threshold.
	Triggered int64
	// Dropped counts triggered observations rejected because the queue was
	// full.
	Dropped int64
	// Analyzed counts queries the background worker ran analysis for.
	Analyzed int64
	// TemplatesPromoted counts templates published into the knowledge base.
	TemplatesPromoted int64
}

// Online is the incremental learning service. One background worker drains
// a bounded queue of misestimated queries and analyzes them with a learning
// Engine; Observe never blocks serving traffic.
type Online struct {
	db   *storage.Database
	kbOf func() *kb.KB
	// learnOpts configures the per-query analysis; the engine is rebuilt
	// whenever the resolved knowledge base changes (LoadKB swaps it).
	learnOpts Options
	opts      OnlineOptions

	queue   chan *sqlparser.Query
	pending sync.WaitGroup
	wg      sync.WaitGroup
	// mu guards closed and the queue's lifetime: Observe enqueues under the
	// read lock, Close flips closed and closes the queue under the write
	// lock, so an Observe racing Close can never send on a closed channel.
	mu     sync.RWMutex
	closed bool

	observed  atomic.Int64
	triggered atomic.Int64
	dropped   atomic.Int64
	analyzed  atomic.Int64
	promoted  atomic.Int64
}

// NewOnline starts an online learner over the database. kbOf resolves the
// current knowledge base at analysis time, so templates always land in the
// live KB even across LoadKB replacements. Callers must Close it.
func NewOnline(db *storage.Database, kbOf func() *kb.KB, learnOpts Options, opts OnlineOptions) *Online {
	if opts.GapThreshold <= 1 {
		opts.GapThreshold = 8
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = 64
	}
	o := &Online{
		db:        db,
		kbOf:      kbOf,
		learnOpts: learnOpts,
		opts:      opts,
		queue:     make(chan *sqlparser.Query, opts.QueueSize),
	}
	o.wg.Add(1)
	go o.worker()
	return o
}

// Observe offers one executed plan to the learner. It reports whether the
// query was enqueued for analysis; it never blocks (a full queue drops the
// observation and counts it).
func (o *Online) Observe(q *sqlparser.Query, plan *qgm.Plan) bool {
	if o == nil || q == nil || plan == nil {
		return false
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	if o.closed {
		return false
	}
	o.observed.Add(1)
	if plan.MaxEstimationGap() < o.opts.GapThreshold {
		return false
	}
	o.triggered.Add(1)
	o.pending.Add(1)
	select {
	case o.queue <- q.Clone():
		return true
	default:
		o.pending.Done()
		o.dropped.Add(1)
		return false
	}
}

// worker drains the queue: one query at a time is decomposed and analyzed
// exactly like a batch learning run would (structure claims dedupe repeat
// offenders), and any winning templates publish a new knowledge base epoch.
func (o *Online) worker() {
	defer o.wg.Done()
	var engine *Engine
	for q := range o.queue {
		knowledge := o.kbOf()
		if engine == nil || engine.KB != knowledge {
			// The knowledge base was replaced (LoadKB): later analyses must
			// promote into the live KB. Structure claims reset with the
			// engine, which at worst re-analyzes a structure the old KB had
			// seen — the KB merge de-duplicates the outcome.
			engine = New(o.db, knowledge, o.learnOpts)
		}
		qr, err := engine.LearnQuery(q)
		o.analyzed.Add(1)
		if err == nil && qr != nil {
			o.promoted.Add(int64(qr.TemplatesAdded))
		}
		o.pending.Done()
	}
}

// Flush blocks until every enqueued observation has been analyzed — for
// tests and benchmarks that need the next epoch published deterministically.
// It holds the write lock while draining, so Observe calls arriving during
// a Flush wait for it rather than racing the WaitGroup from zero (which is
// documented WaitGroup misuse).
func (o *Online) Flush() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.pending.Wait()
}

// Stats returns a snapshot of the learner's counters.
func (o *Online) Stats() OnlineStats {
	return OnlineStats{
		Observed:          o.observed.Load(),
		Triggered:         o.triggered.Load(),
		Dropped:           o.dropped.Load(),
		Analyzed:          o.analyzed.Load(),
		TemplatesPromoted: o.promoted.Load(),
	}
}

// Close stops the worker after draining the queue. Observe calls arriving
// after Close are no-ops.
func (o *Online) Close() {
	if o == nil {
		return
	}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	close(o.queue)
	o.mu.Unlock()
	o.wg.Wait()
}
