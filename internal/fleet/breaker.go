package fleet

import (
	"sync"
	"time"
)

// Breaker states.
const (
	breakerClosed   = "closed"    // healthy, all traffic admitted
	breakerOpen     = "open"      // tripped, traffic rejected until cooldown
	breakerHalfOpen = "half-open" // cooldown elapsed, one trial in flight
)

// breakerThreshold is how many consecutive replica faults trip that replica's
// circuit breaker.
const breakerThreshold = 3

// breaker is a per-replica circuit breaker: breakerThreshold consecutive
// faults trip it open; after BreakerCooldown it admits exactly one trial
// probe (half-open) whose outcome either closes it again or re-opens it for
// another cooldown. It keeps a replica that is down from soaking up probe
// deadlines on every request while still rediscovering recovery quickly.
type breaker struct {
	cooldown time.Duration
	now      func() time.Time // test seam

	mu       sync.Mutex
	failures int       // consecutive faults while closed
	openedAt time.Time // when the breaker last tripped
	open     bool
	trial    bool // a half-open trial probe is in flight
	trips    int64
}

func newBreaker(cooldown time.Duration) *breaker {
	return &breaker{cooldown: cooldown, now: time.Now}
}

// allow reports whether a probe may be sent to the replica right now. In the
// open state it admits a single trial once the cooldown has elapsed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.trial || b.now().Sub(b.openedAt) < b.cooldown {
		return false
	}
	b.trial = true
	return true
}

// success records a healthy response: any state collapses back to closed.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.open = false
	b.trial = false
	b.failures = 0
}

// failure records a replica fault; it reports whether this fault tripped the
// breaker open (for the BreakerTrips counter).
func (b *breaker) failure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.open {
		// A failed half-open trial re-opens for another full cooldown.
		b.trial = false
		b.openedAt = b.now()
		return false
	}
	b.failures++
	if b.failures < breakerThreshold {
		return false
	}
	b.open = true
	b.trial = false
	b.openedAt = b.now()
	b.trips++
	return true
}

// state returns the breaker's current state name for /stats.
func (b *breaker) state() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return breakerClosed
	}
	if b.trial || b.now().Sub(b.openedAt) >= b.cooldown {
		return breakerHalfOpen
	}
	return breakerOpen
}
