package fleet

import (
	"math/rand"
	"sync"
	"time"
)

// Policy is the gateway's fault-handling configuration. The zero value is
// normalized to the defaults noted on each field.
type Policy struct {
	// ProbeTimeout is the per-attempt deadline for one probe HTTP exchange
	// (default 2s). It also lower-bounds MigrationGrace.
	ProbeTimeout time.Duration
	// MaxAttempts is how many replicas/attempts one probe may consume before
	// the error propagates (default 3).
	MaxAttempts int
	// BackoffBase and BackoffCap shape the capped exponential backoff slept
	// between attempts: attempt k sleeps a jittered duration drawn from
	// [base·2^k / 2, base·2^k), capped at BackoffCap (defaults 5ms / 250ms).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// HedgeAfter, when positive, launches a hedge probe against a second
	// replica if the first has not answered within this duration; the first
	// success wins. 0 disables hedging.
	HedgeAfter time.Duration
	// BreakerCooldown is how long a replica's tripped circuit breaker stays
	// open before admitting one half-open trial probe (default 1s).
	BreakerCooldown time.Duration
	// MigrationGrace separates the phases of a two-epoch shape migration
	// (dual-route window, post-cutover drain). 0 means ProbeTimeout: a probe
	// routed under the previous table must complete or time out before the
	// data it may read is dropped.
	MigrationGrace time.Duration
	// Seed seeds the jitter source; 0 uses a fixed default, keeping tests
	// deterministic.
	Seed int64
}

// withDefaults returns the policy with zero fields filled in.
func (p Policy) withDefaults() Policy {
	if p.ProbeTimeout <= 0 {
		p.ProbeTimeout = 2 * time.Second
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 5 * time.Millisecond
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = 250 * time.Millisecond
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = time.Second
	}
	if p.MigrationGrace <= 0 {
		p.MigrationGrace = p.ProbeTimeout
	}
	return p
}

// jitter is a mutex-guarded seeded random source: backoff jitter must be
// safe under concurrent probes yet reproducible under a fixed Policy.Seed.
type jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newJitter(seed int64) *jitter {
	if seed == 0 {
		seed = 1
	}
	return &jitter{rng: rand.New(rand.NewSource(seed))}
}

// backoff returns the sleep before retry attempt k (0-based): capped
// exponential with half-width jitter, so synchronized failures do not
// reconverge on the replica in lockstep.
func (j *jitter) backoff(p Policy, attempt int) time.Duration {
	d := p.BackoffBase << uint(attempt)
	if d > p.BackoffCap || d <= 0 {
		d = p.BackoffCap
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	half := d / 2
	return half + time.Duration(j.rng.Int63n(int64(half)+1))
}
