package matching

import (
	"fmt"
	"sync"

	"galo/internal/sparql"
)

// flightGroup deduplicates identical in-flight knowledge base probes: when
// several concurrent re-optimizations probe the same fragment fingerprint
// against the same knowledge base epoch, one SPARQL evaluation runs and the
// others wait for its result. Under serving concurrency this is what keeps a
// hot fragment's cold probe from being paid once per client (the cache only
// helps after the first probe completes; singleflight collapses the window
// in between).
type flightGroup struct {
	mu    sync.Mutex
	calls map[flightKey]*flightCall
}

type flightCall struct {
	done    chan struct{}
	sols    []sparql.Solution
	err     error
	joiners int // callers that joined it, under the group's mu (tests)
}

// do runs fn once per key among concurrent callers; shared reports whether
// this caller joined another caller's evaluation instead of running its own.
func (g *flightGroup) do(key flightKey, fn func() ([]sparql.Solution, error)) (sols []sparql.Solution, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = map[flightKey]*flightCall{}
	}
	if c, ok := g.calls[key]; ok {
		c.joiners++
		g.mu.Unlock()
		<-c.done
		return c.sols, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	// Deregister and release joiners even if fn panics: a leaked
	// still-registered call would hang every current and future probe for
	// this key. Joiners of a panicked call receive an error, not a silent
	// empty result; the panic itself propagates to the leader's caller.
	completed := false
	defer func() {
		if !completed {
			c.err = fmt.Errorf("matching: in-flight probe evaluation panicked")
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.sols, c.err = fn()
	completed = true
	return c.sols, false, c.err
}
