package fleet

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"galo/internal/fuseki"
)

// Options configures a fleet gateway.
type Options struct {
	// Shards lists the replica base URLs per shard: Shards[i] are the
	// interchangeable read replicas serving shard i. At least one shard with
	// at least one replica is required.
	Shards [][]string
	// Policy is the fault-handling policy (zero value = defaults).
	Policy Policy
	// Rebalance configures the optional probe-skew rebalancer core starts
	// over the gateway (zero value = disabled).
	Rebalance RebalanceOptions
}

// Enabled reports whether the options describe a usable fleet.
func (o Options) Enabled() bool { return len(o.Shards) > 0 }

// counters aggregates the gateway's degradation-visibility counters.
type counters struct {
	probes       atomic.Int64 // replica HTTP probes issued (attempts, incl. hedges)
	retries      atomic.Int64 // backoff-separated re-attempts
	hedges       atomic.Int64 // hedge probes launched
	hedgeWins    atomic.Int64 // probes won by the hedge, not the primary
	failovers    atomic.Int64 // probes answered by a different replica than first tried
	errors       atomic.Int64 // replica faults observed (per attempt)
	breakerTrips atomic.Int64 // closed→open transitions
	noReplica    atomic.Int64 // attempts finding every breaker open
	dualRouted   atomic.Int64 // probes routed during a dual-route migration window
}

// Fleet is the gateway over all shards: one fault-tolerant ShardEndpoint per
// shard plus the routing table migrations rewrite.
type Fleet struct {
	opts      Options
	policy    Policy
	endpoints []*ShardEndpoint
	table     *RouteTable
	jit       *jitter
	ctr       counters

	migrationsStarted   atomic.Int64
	migrationsCompleted atomic.Int64
	migrationDropFails  atomic.Int64

	// sleep is a test seam for the migration grace waits.
	sleep func(time.Duration)
}

// New builds the gateway. Options must describe at least one shard with at
// least one replica URL each; a structurally unusable topology is a
// configuration programming error and panics (the CLI validates its flags
// before constructing).
func New(opts Options) *Fleet {
	if !opts.Enabled() {
		panic("fleet: Options.Shards is empty")
	}
	policy := opts.Policy.withDefaults()
	f := &Fleet{
		opts:   opts,
		policy: policy,
		table:  newRouteTable(len(opts.Shards)),
		jit:    newJitter(policy.Seed),
		sleep:  time.Sleep,
	}
	for shard, urls := range opts.Shards {
		if len(urls) == 0 {
			panic(fmt.Sprintf("fleet: shard %d has no replicas", shard))
		}
		ep := &ShardEndpoint{shard: shard, policy: policy, jit: f.jit, ctr: &f.ctr}
		for _, u := range urls {
			c := fuseki.NewClient(u)
			c.HTTP = &http.Client{Timeout: policy.ProbeTimeout}
			ep.replicas = append(ep.replicas, &replica{
				url:    c.BaseURL,
				client: c,
				brk:    newBreaker(policy.BreakerCooldown),
			})
		}
		f.endpoints = append(f.endpoints, ep)
	}
	f.table.dualRouted = &f.ctr.dualRouted
	return f
}

// Shards returns the number of shards the fleet serves.
func (f *Fleet) Shards() int { return len(f.endpoints) }

// Endpoint returns shard i's fault-tolerant endpoint (a matching.Endpoint).
func (f *Fleet) Endpoint(i int) *ShardEndpoint { return f.endpoints[i] }

// Route is the fleet's matching.Router: the static shape hash overlaid with
// the migration table's ownership overrides.
func (f *Fleet) Route(shape string, joins int) int { return f.table.Route(shape, joins) }

// --- /stats view -------------------------------------------------------------

// ReplicaStats is one replica's row in the /stats fleet section.
type ReplicaStats struct {
	Shard      int    `json:"shard"`
	URL        string `json:"url"`
	Breaker    string `json:"breaker_state"`
	Failures   int64  `json:"failures"`
	Successes  int64  `json:"successes"`
	Epoch      uint64 `json:"epoch"`
	EpochKnown bool   `json:"epoch_known"`
}

// MigrationStats is the migration/rebalance corner of the fleet section.
type MigrationStats struct {
	Started        int64 `json:"started"`
	Completed      int64 `json:"completed"`
	DropFailures   int64 `json:"drop_failures"`
	RouteOverrides int   `json:"route_overrides"`
	DualRouting    int   `json:"dual_routing"`
}

// Stats is the /stats "fleet" section: per-replica health plus every
// degradation counter the gateway maintains.
type Stats struct {
	Shards       int             `json:"shards"`
	Replicas     []ReplicaStats  `json:"replicas"`
	Probes       int64           `json:"probes"`
	Retries      int64           `json:"retries"`
	Hedges       int64           `json:"hedges"`
	HedgeWins    int64           `json:"hedge_wins"`
	Failovers    int64           `json:"failovers"`
	Errors       int64           `json:"errors"`
	BreakerTrips int64           `json:"breaker_trips"`
	NoReplica    int64           `json:"no_replica"`
	DualRouted   int64           `json:"dual_routed_probes"`
	Migrations   MigrationStats  `json:"migrations"`
	Rebalancer   *RebalanceStats `json:"rebalancer,omitempty"`
}

// Stats snapshots the gateway's counters and per-replica health.
func (f *Fleet) Stats() Stats {
	st := Stats{
		Shards:       len(f.endpoints),
		Probes:       f.ctr.probes.Load(),
		Retries:      f.ctr.retries.Load(),
		Hedges:       f.ctr.hedges.Load(),
		HedgeWins:    f.ctr.hedgeWins.Load(),
		Failovers:    f.ctr.failovers.Load(),
		Errors:       f.ctr.errors.Load(),
		BreakerTrips: f.ctr.breakerTrips.Load(),
		NoReplica:    f.ctr.noReplica.Load(),
		DualRouted:   f.ctr.dualRouted.Load(),
		Migrations: MigrationStats{
			Started:      f.migrationsStarted.Load(),
			Completed:    f.migrationsCompleted.Load(),
			DropFailures: f.migrationDropFails.Load(),
		},
	}
	st.Migrations.RouteOverrides, st.Migrations.DualRouting = f.table.overrideCounts()
	for _, ep := range f.endpoints {
		for _, rep := range ep.replicas {
			epoch, known := rep.client.AdvertisedEpoch()
			st.Replicas = append(st.Replicas, ReplicaStats{
				Shard:      ep.shard,
				URL:        rep.url,
				Breaker:    rep.brk.state(),
				Failures:   rep.failures.Load(),
				Successes:  rep.successes.Load(),
				Epoch:      epoch,
				EpochKnown: known,
			})
		}
	}
	return st
}
