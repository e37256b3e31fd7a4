package fleet

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"galo/internal/fuseki"
	"galo/internal/sparql"
)

// replica is one read replica of one shard.
type replica struct {
	url       string
	client    *fuseki.Client
	brk       *breaker
	failures  atomic.Int64
	successes atomic.Int64
}

// ShardEndpoint is the fault-tolerant gateway to one shard's replicas. It
// implements matching.Endpoint (Select) and matching.VersionedEndpoint
// (KBVersion); it deliberately does NOT implement EpochPinner — remote
// replicas cannot pin an epoch, so probe caching uses the conservative
// version-tag path.
type ShardEndpoint struct {
	shard    int
	policy   Policy
	replicas []*replica
	jit      *jitter
	ctr      *counters
	cursor   atomic.Uint64 // round-robin base for replica choice
}

// errAllBreakersOpen is returned (wrapped) when every replica of a shard is
// refusing traffic.
var errAllBreakersOpen = errors.New("fleet: every replica breaker is open")

// retryable reports whether the fault could be specific to one replica or
// one attempt — transport failures, truncated payloads, 5xx/429 — as opposed
// to a request every replica would reject identically (4xx).
func retryable(err error) bool {
	var se *fuseki.StatusError
	if errors.As(err, &se) {
		return se.Temporary()
	}
	// Transport (*fuseki.OpError) and payload (*fuseki.DecodeError) faults —
	// and anything unrecognized — are worth another replica.
	return true
}

// pick returns the first breaker-admitted replica scanning from offset; nil
// when every breaker refuses.
func (e *ShardEndpoint) pick(offset int) *replica {
	n := len(e.replicas)
	for i := 0; i < n; i++ {
		rep := e.replicas[(offset+i)%n]
		if rep.brk.allow() {
			return rep
		}
	}
	return nil
}

// pickOther returns a breaker-admitted replica other than avoid, for hedges.
func (e *ShardEndpoint) pickOther(avoid *replica) *replica {
	n := len(e.replicas)
	start := int(e.cursor.Add(1) - 1)
	for i := 0; i < n; i++ {
		rep := e.replicas[(start+i)%n]
		if rep != avoid && rep.brk.allow() {
			return rep
		}
	}
	return nil
}

// probeOne sends one probe to one replica and settles its breaker.
func (e *ShardEndpoint) probeOne(rep *replica, queryText string) ([]sparql.Solution, error) {
	e.ctr.probes.Add(1)
	sols, err := rep.client.Select(queryText)
	if err != nil {
		if retryable(err) {
			rep.failures.Add(1)
			e.ctr.errors.Add(1)
			if rep.brk.failure() {
				e.ctr.breakerTrips.Add(1)
			}
		}
		return nil, err
	}
	rep.brk.success()
	rep.successes.Add(1)
	return sols, nil
}

// attempt runs one retry-loop attempt against primary, optionally hedging to
// a second replica when the primary is slow. It returns the replica that
// actually answered.
func (e *ShardEndpoint) attempt(primary *replica, queryText string) ([]sparql.Solution, *replica, error) {
	if e.policy.HedgeAfter <= 0 || len(e.replicas) < 2 {
		sols, err := e.probeOne(primary, queryText)
		return sols, primary, err
	}
	type outcome struct {
		rep  *replica
		sols []sparql.Solution
		err  error
	}
	ch := make(chan outcome, 2) // buffered: a late loser must not leak its goroutine
	go func() {
		sols, err := e.probeOne(primary, queryText)
		ch <- outcome{primary, sols, err}
	}()
	timer := time.NewTimer(e.policy.HedgeAfter)
	defer timer.Stop()
	timerC := timer.C
	outstanding := 1
	var firstErr error
	for {
		select {
		case o := <-ch:
			outstanding--
			if o.err == nil {
				if o.rep != primary {
					e.ctr.hedgeWins.Add(1)
				}
				return o.sols, o.rep, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if outstanding == 0 {
				return nil, primary, firstErr
			}
		case <-timerC:
			timerC = nil
			if hedge := e.pickOther(primary); hedge != nil {
				e.ctr.hedges.Add(1)
				outstanding++
				go func() {
					sols, err := e.probeOne(hedge, queryText)
					ch <- outcome{hedge, sols, err}
				}()
			}
		}
	}
}

// Select answers one SPARQL probe with up to Policy.MaxAttempts attempts:
// round-robin replica choice, failover to the next replica on retryable
// faults, capped exponential backoff with jitter between attempts, and
// optional tail-latency hedging inside each attempt. Non-retryable errors
// (4xx — the request itself is bad) propagate immediately.
func (e *ShardEndpoint) Select(queryText string) ([]sparql.Solution, error) {
	base := int(e.cursor.Add(1) - 1)
	var first *replica
	var lastErr error
	for attempt := 0; attempt < e.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			e.ctr.retries.Add(1)
			e.jitSleep(attempt - 1)
		}
		rep := e.pick(base + attempt)
		if rep == nil {
			e.ctr.noReplica.Add(1)
			lastErr = fmt.Errorf("fleet: shard %d: %w", e.shard, errAllBreakersOpen)
			continue
		}
		if first == nil {
			first = rep
		}
		sols, served, err := e.attempt(rep, queryText)
		if err == nil {
			if served != first {
				e.ctr.failovers.Add(1)
			}
			return sols, nil
		}
		if !retryable(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("fleet: shard %d: %d attempts exhausted: %w", e.shard, e.policy.MaxAttempts, lastErr)
}

func (e *ShardEndpoint) jitSleep(attempt int) {
	time.Sleep(e.jit.backoff(e.policy, attempt))
}

// KBVersion implements matching.VersionedEndpoint over a replicated shard.
// Caching across replicas is only sound when every replica that may serve
// the next probe agrees on the epoch, so it returns the advertised epoch iff
// all breaker-admitted replicas advertise the same one; any unknown or
// divergent replica disables caching (ok=false) rather than risking a cache
// entry tagged with one replica's epoch but filled by another's data.
func (e *ShardEndpoint) KBVersion() (uint64, bool) {
	var epoch uint64
	seen := false
	for _, rep := range e.replicas {
		if rep.brk.state() == breakerOpen {
			continue // not serving traffic; its staleness is irrelevant
		}
		v, ok := rep.client.AdvertisedEpoch()
		if !ok {
			// No response seen yet (e.g. gateway just started): one cheap
			// /version round trip settles it.
			var err error
			if v, err = rep.client.Version(); err != nil {
				return 0, false
			}
		}
		if seen && v != epoch {
			return 0, false
		}
		epoch, seen = v, true
	}
	return epoch, seen
}

// --- shape migration transport ----------------------------------------------

// shapeURL builds the /shape URL for one replica.
func shapeURL(base, shape string) string {
	return base + "/shape?sig=" + url.QueryEscape(shape)
}

// dumpShape downloads one shape's templates (N-Triples) from the first
// healthy replica, failing over like a probe but without hedging.
func (e *ShardEndpoint) dumpShape(shape string) (string, error) {
	var lastErr error
	base := int(e.cursor.Add(1) - 1)
	for attempt := 0; attempt < e.policy.MaxAttempts; attempt++ {
		rep := e.pick(base + attempt)
		if rep == nil {
			lastErr = fmt.Errorf("fleet: shard %d: %w", e.shard, errAllBreakersOpen)
			continue
		}
		nt, err := rep.dumpShape(shape)
		if err == nil {
			return nt, nil
		}
		lastErr = err
	}
	return "", fmt.Errorf("fleet: dump shape from shard %d: %w", e.shard, lastErr)
}

func (r *replica) dumpShape(shape string) (string, error) {
	resp, err := r.client.HTTP.Get(shapeURL(r.url, shape))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("fleet: dump shape: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// loadAll publishes the N-Triples on every replica of the shard; the first
// failure aborts (the migration retries or gives up with routing untouched).
func (e *ShardEndpoint) loadAll(ntriples string) error {
	for _, rep := range e.replicas {
		if err := rep.client.Load(ntriples); err != nil {
			return fmt.Errorf("fleet: load to %s: %w", rep.url, err)
		}
	}
	return nil
}

// dropShape removes the shape from every replica of the shard; failures are
// reported but partial (a replica that kept the templates serves harmless
// extra data that routing no longer reaches).
func (e *ShardEndpoint) dropShape(shape string) error {
	var firstErr error
	for _, rep := range e.replicas {
		req, err := http.NewRequest(http.MethodDelete, shapeURL(rep.url, shape), nil)
		if err != nil {
			return err
		}
		resp, err := rep.client.HTTP.Do(req)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && firstErr == nil {
			firstErr = fmt.Errorf("fleet: drop shape on %s: %s", rep.url, resp.Status)
		}
	}
	return firstErr
}
