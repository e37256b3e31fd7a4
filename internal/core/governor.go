package core

import "sync"

// ExecOptions configures the system executor: the peak-residency memory
// budget concurrent executions are admitted against.
type ExecOptions struct {
	// MemBudgetBytes caps the summed estimated peak intermediate residency
	// (qgm.Plan.EstPeakResidencyBytes) of concurrently running executions.
	// An execution that does not fit waits; one whose estimate alone exceeds
	// the whole budget runs alone, degraded, with the whole budget reserved.
	// 0 disables the governor.
	MemBudgetBytes int64
}

// execGovernor admits executions against the residency budget. The policy is
// deliberately simple and deadlock-free: admission is first-come (cond
// broadcast, re-check loop), a too-big plan waits only for the system to go
// idle — which always happens, because every admitted execution releases —
// and nothing is ever rejected.
type execGovernor struct {
	mu     sync.Mutex
	cond   *sync.Cond
	budget int64

	reserved int64
	running  int
	// pendingBig counts waiting degraded-admission executions; while one is
	// queued, regular admissions hold back so a steady stream of small plans
	// cannot starve the big one.
	pendingBig int

	admitted int64 // executions admitted (including degraded)
	queued   int64 // executions that had to wait before admission
	degraded int64 // executions run alone because est > budget
}

// execGrant is one admitted execution's reservation.
type execGrant struct {
	g        *execGovernor
	bytes    int64
	released bool
}

// GovernorStats is the /stats snapshot of the admission state.
type GovernorStats struct {
	BudgetBytes   int64 `json:"budget_bytes"`
	ReservedBytes int64 `json:"reserved_bytes"`
	Running       int   `json:"running"`
	AdmittedTotal int64 `json:"admitted_total"`
	QueuedTotal   int64 `json:"queued_total"`
	DegradedTotal int64 `json:"degraded_total"`
}

func newExecGovernor(budget int64) *execGovernor {
	g := &execGovernor{budget: budget}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire blocks until the execution fits the budget and returns its grant.
func (g *execGovernor) acquire(est int64) *execGrant {
	if g == nil || g.budget <= 0 {
		return &execGrant{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	waited := false
	if est > g.budget {
		// Too big to ever fit: run it alone with the whole budget reserved —
		// degraded but never starved, since running hits zero whenever the
		// current admissions finish.
		g.pendingBig++
		for g.running > 0 {
			waited = true
			g.cond.Wait()
		}
		g.pendingBig--
		g.noteAdmit(waited)
		g.degraded++
		g.reserved += g.budget
		g.running++
		return &execGrant{g: g, bytes: g.budget}
	}
	for g.reserved+est > g.budget || g.pendingBig > 0 {
		waited = true
		g.cond.Wait()
	}
	g.noteAdmit(waited)
	g.reserved += est
	g.running++
	return &execGrant{g: g, bytes: est}
}

// noteAdmit updates the admission counters; callers hold g.mu.
func (g *execGovernor) noteAdmit(waited bool) {
	g.admitted++
	if waited {
		g.queued++
	}
}

// release returns the reservation and wakes every waiter (they re-check their
// own fit). Idempotent.
func (gr *execGrant) release() {
	if gr.g == nil || gr.released {
		gr.released = true
		return
	}
	gr.released = true
	g := gr.g
	g.mu.Lock()
	g.reserved -= gr.bytes
	g.running--
	g.mu.Unlock()
	g.cond.Broadcast()
}

// stats snapshots the governor state; zero-valued when the governor is off.
func (g *execGovernor) stats() GovernorStats {
	if g == nil {
		return GovernorStats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return GovernorStats{
		BudgetBytes:   g.budget,
		ReservedBytes: g.reserved,
		Running:       g.running,
		AdmittedTotal: g.admitted,
		QueuedTotal:   g.queued,
		DegradedTotal: g.degraded,
	}
}
