package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"galo/internal/workload/tpcds"
)

// TestGovernorPassthrough pins the off switch: a zero budget (and a nil
// governor) admit immediately, reserve nothing and keep no state.
func TestGovernorPassthrough(t *testing.T) {
	for name, g := range map[string]*execGovernor{
		"nil":         nil,
		"zero-budget": newExecGovernor(0),
	} {
		grant := g.acquire(1 << 40)
		if grant.g != nil || grant.bytes != 0 {
			t.Errorf("%s: passthrough grant reserved %d bytes", name, grant.bytes)
		}
		grant.release()
		grant.release() // idempotent
		if st := g.stats(); st != (GovernorStats{}) {
			t.Errorf("%s: passthrough governor kept state: %+v", name, st)
		}
	}
}

// TestGovernorQueuesUntilRelease pins the blocking rule: a second execution
// that does not fit the remaining budget waits until the first releases.
func TestGovernorQueuesUntilRelease(t *testing.T) {
	g := newExecGovernor(100)
	first := g.acquire(60)
	if first.bytes != 60 {
		t.Fatalf("first grant reserved %d bytes, want its estimate of 60", first.bytes)
	}

	admitted := make(chan *execGrant)
	go func() { admitted <- g.acquire(60) }()
	select {
	case <-admitted:
		t.Fatal("second 60-byte execution admitted while 60/100 reserved")
	case <-time.After(50 * time.Millisecond):
	}
	if st := g.stats(); st.ReservedBytes != 60 || st.Running != 1 {
		t.Fatalf("pre-release stats: %+v", st)
	}

	first.release()
	second := <-admitted
	if second.bytes != 60 {
		t.Errorf("queued grant reserved %d bytes, want its estimate of 60", second.bytes)
	}
	st := g.stats()
	if st.ReservedBytes != 60 || st.Running != 1 || st.AdmittedTotal != 2 || st.QueuedTotal != 1 {
		t.Errorf("post-release stats: %+v", st)
	}
	second.release()
	if st := g.stats(); st.ReservedBytes != 0 || st.Running != 0 {
		t.Errorf("final stats not drained: %+v", st)
	}
}

// TestGovernorDegradesOversizedPlan pins the degraded path: an estimate larger
// than the whole budget waits for the system to go idle, then runs alone with
// the entire budget reserved — and regular admissions hold back
// while it waits, so it cannot be starved by a stream of small plans.
func TestGovernorDegradesOversizedPlan(t *testing.T) {
	g := newExecGovernor(100)
	small := g.acquire(40)

	bigAdmitted := make(chan *execGrant)
	go func() { bigAdmitted <- g.acquire(1000) }()
	select {
	case <-bigAdmitted:
		t.Fatal("oversized execution admitted while another was running")
	case <-time.After(50 * time.Millisecond):
	}

	// A small plan that would fit the free budget must still wait behind the
	// pending big one (anti-starvation).
	lateAdmitted := make(chan *execGrant)
	go func() { lateAdmitted <- g.acquire(10) }()
	select {
	case <-lateAdmitted:
		t.Fatal("small execution jumped the queue past a pending oversized one")
	case <-time.After(50 * time.Millisecond):
	}

	small.release()
	big := <-bigAdmitted
	if big.bytes != 100 {
		t.Errorf("oversized grant reserved %d bytes, want the whole budget of 100", big.bytes)
	}
	st := g.stats()
	if st.ReservedBytes != 100 || st.DegradedTotal != 1 {
		t.Errorf("degraded stats: %+v", st)
	}
	big.release()
	late := <-lateAdmitted
	late.release()
	if st := g.stats(); st.AdmittedTotal != 3 || st.QueuedTotal != 2 || st.Running != 0 {
		t.Errorf("final stats: %+v", st)
	}
}

// TestGovernorConcurrentLoadNoDeadlock hammers the governor with a mix of
// fitting and oversized acquisitions from many goroutines; every one must be
// admitted and released, the reservation must never exceed the budget, and
// the whole run must finish (deadlock-freedom under -race -cpu 1,4).
func TestGovernorConcurrentLoadNoDeadlock(t *testing.T) {
	const budget = 1000
	g := newExecGovernor(budget)
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				est := int64(100 + 37*((i+j)%9)) // 100..396
				if (i+j)%7 == 0 {
					est = budget * 2 // oversized: exercises the degraded path
				}
				grant := g.acquire(est)
				if r := inFlight.Add(grant.bytes); r > budget && grant.bytes != 0 {
					t.Errorf("reserved bytes exceeded budget: %d > %d", r, budget)
				}
				time.Sleep(time.Duration((i+j)%3) * time.Millisecond)
				inFlight.Add(-grant.bytes)
				grant.release()
			}
		}(i)
	}
	wg.Wait()
	st := g.stats()
	if st.Running != 0 || st.ReservedBytes != 0 {
		t.Fatalf("governor not drained after load: %+v", st)
	}
	if st.AdmittedTotal != 32*20 {
		t.Fatalf("admitted %d executions, want %d", st.AdmittedTotal, 32*20)
	}
	if st.DegradedTotal == 0 || st.QueuedTotal == 0 {
		t.Fatalf("load did not exercise queue/degrade paths: %+v", st)
	}
}

// TestSystemExecuteUnderTinyBudget pins the end-to-end behaviour: a system
// with a budget far below any plan's estimate still executes correctly (every
// execution degraded: admitted alone), with identical rows and simulated cost
// to an ungoverned system.
func TestSystemExecuteUnderTinyBudget(t *testing.T) {
	db, err := tpcds.Generate(tpcds.GenOptions{Seed: 7, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	q := tpcds.Fig7Query()
	plain := NewSystem(db, DefaultConfig())
	refPlan, err := plain.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := plain.Execute(refPlan, q)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Exec.MemBudgetBytes = 1 // every plan is oversized: always degraded
	gov := NewSystem(db, cfg)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan, err := gov.Optimize(q)
			if err != nil {
				errs <- err
				return
			}
			res, err := gov.Execute(plan, q)
			if err != nil {
				errs <- err
				return
			}
			if len(res.Rows) != len(ref.Rows) || res.Stats.ElapsedMillis != ref.Stats.ElapsedMillis {
				t.Errorf("governed run diverged: %d rows / %v ms, want %d / %v",
					len(res.Rows), res.Stats.ElapsedMillis, len(ref.Rows), ref.Stats.ElapsedMillis)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := gov.ExecutorStats()
	if st.Governor.AdmittedTotal != 8 || st.Governor.DegradedTotal != 8 {
		t.Errorf("governor counters: %+v", st.Governor)
	}
	if st.Governor.Running != 0 || st.Governor.ReservedBytes != 0 {
		t.Errorf("governor not drained: %+v", st.Governor)
	}
}
