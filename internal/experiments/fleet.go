package experiments

import (
	"fmt"
	"time"

	"galo/internal/fleet"
	"galo/internal/fleet/chaos"
	"galo/internal/kb"
)

// FleetHarness is an in-process chaos fleet over a knowledge base dump:
// `shards` shard groups of `replicas` chaos replicas each, every replica a
// real HTTP server over that shard's slice of the dump. Benchmarks and
// experiments point Config.Fleet at Options and then Kill/Restart replicas
// to measure the gateway's fault masking — the serving system under test
// cannot tell the harness from remote `galo shard` processes.
type FleetHarness struct {
	// Options is ready to assign to core.Config.Fleet: the replica URLs are
	// live as soon as NewFleetHarness returns.
	Options fleet.Options

	replicas [][]*chaos.Replica
}

// NewFleetHarness slices the N-Triples dump across the shard layout and
// starts every replica. A zero policy takes the fleet defaults.
func NewFleetHarness(ntriples string, shards, replicas int, policy fleet.Policy) (*FleetHarness, error) {
	if shards < 1 || replicas < 1 {
		return nil, fmt.Errorf("experiments: fleet harness needs >=1 shard and replica, got %d x %d", shards, replicas)
	}
	h := &FleetHarness{replicas: make([][]*chaos.Replica, shards)}
	h.Options.Policy = policy
	for si := 0; si < shards; si++ {
		slice, err := kb.ShardSlice(ntriples, si, shards)
		if err != nil {
			h.Close()
			return nil, err
		}
		knowledge := kb.New()
		if slice != "" {
			if err := knowledge.LoadNTriples(slice); err != nil {
				h.Close()
				return nil, err
			}
		}
		// Replicas of one shard share the handler: identical contents, the
		// way fleet replicas loaded from the same dump would serve.
		handler := fleet.NewShardServer(knowledge)
		urls := make([]string, replicas)
		for ri := 0; ri < replicas; ri++ {
			r := chaos.NewReplica(handler, chaos.NewFaults(int64(si*31+ri+1)))
			if err := r.Start(); err != nil {
				h.Close()
				return nil, err
			}
			h.replicas[si] = append(h.replicas[si], r)
			urls[ri] = r.URL()
		}
		h.Options.Shards = append(h.Options.Shards, urls)
	}
	return h, nil
}

// Replica exposes one chaos replica for kills, restarts and fault plans.
func (h *FleetHarness) Replica(shard, replica int) *chaos.Replica {
	return h.replicas[shard][replica]
}

// Kill SIGKILL-equivalently tears one replica down (listener closed,
// connections cut); Replica(shard, replica).Start() brings it back on its
// original address.
func (h *FleetHarness) Kill(shard, replica int) { h.replicas[shard][replica].Kill() }

// KillRecovery measures the gateway-visible recovery from a replica kill: it
// kills the replica and repeatedly calls probe (a closure issuing one real
// request through the gateway under test) until it succeeds, returning the
// elapsed time from SIGKILL to the first successful failover probe. The
// replica stays down; Start it explicitly if the experiment continues.
func (h *FleetHarness) KillRecovery(shard, replica int, probe func() error) (time.Duration, error) {
	h.Kill(shard, replica)
	start := time.Now()
	deadline := start.Add(30 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		if lastErr = probe(); lastErr == nil {
			return time.Since(start), nil
		}
	}
	return 0, fmt.Errorf("experiments: no successful probe within 30s of the kill: %w", lastErr)
}

// Close kills every replica.
func (h *FleetHarness) Close() {
	for _, group := range h.replicas {
		for _, r := range group {
			if r != nil {
				r.Kill()
			}
		}
	}
}
