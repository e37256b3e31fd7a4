package fleet

import (
	"testing"
	"time"
)

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(time.Second)
	b.now = func() time.Time { return now }

	if !b.allow() || b.state() != breakerClosed {
		t.Fatalf("new breaker must be closed and admitting")
	}
	// Two faults: still closed (threshold 3).
	b.failure()
	b.failure()
	if b.state() != breakerClosed {
		t.Fatalf("breaker open before threshold")
	}
	// A success resets the consecutive count.
	b.success()
	b.failure()
	b.failure()
	if b.state() != breakerClosed {
		t.Fatalf("success did not reset the failure streak")
	}
	if tripped := b.failure(); !tripped {
		t.Fatalf("third consecutive failure did not trip")
	}
	if b.state() != breakerOpen || b.allow() {
		t.Fatalf("tripped breaker still admits traffic")
	}
	// Cooldown elapses: exactly one half-open trial is admitted.
	now = now.Add(time.Second)
	if b.state() != breakerHalfOpen {
		t.Fatalf("state after cooldown = %s, want half-open", b.state())
	}
	if !b.allow() {
		t.Fatalf("half-open breaker refused the trial probe")
	}
	if b.allow() {
		t.Fatalf("half-open breaker admitted a second concurrent trial")
	}
	// Failed trial: open again for a full cooldown.
	b.failure()
	if b.allow() {
		t.Fatalf("breaker admitted traffic right after a failed trial")
	}
	now = now.Add(time.Second)
	if !b.allow() {
		t.Fatalf("no trial after the second cooldown")
	}
	// Successful trial closes it.
	b.success()
	if b.state() != breakerClosed || !b.allow() {
		t.Fatalf("successful trial did not close the breaker")
	}
}
