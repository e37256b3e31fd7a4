package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"galo/internal/kb"
	"galo/internal/matching"
	"galo/internal/sqlparser"
)

// TenancyOptions configures per-tenant knowledge base namespaces on the
// serving API. Tenants are identified the same way admission control keys
// its probe buckets: the X-Galo-Client header (or remote host) — so one
// `galo serve` process can hold many isolated template namespaces.
//
// With Enabled set, each tenant's /reopt traffic matches against the
// tenant's own sharded knowledge base (created lazily, in-memory, sharded
// per Config.Shards like the shared one). Templates learned online from
// executed requests are promoted into the *shared* namespace; tenants see
// them only when ShareTemplates opts into the cross-tenant fallback.
// Per-tenant request/probe/throttle counters are always collected — even
// with Enabled false — and reported as per-tenant rows in /stats.
type TenancyOptions struct {
	// Enabled gives each client identity its own knowledge base namespace
	// for matching.
	Enabled bool
	// ShareTemplates lets a tenant request that found no match in its own
	// namespace fall back to the shared knowledge base — opt-in
	// cross-tenant template sharing.
	ShareTemplates bool
	// MaxTenants bounds the per-tenant state map. Identities beyond the cap
	// share one overflow row (and, with Enabled, the shared namespace), so
	// an attacker minting fresh identities cannot grow memory without
	// bound while counter sums stay exact. 0 means DefaultMaxTenants.
	MaxTenants int
}

// DefaultMaxTenants bounds the tenant map when TenancyOptions.MaxTenants is 0.
const DefaultMaxTenants = 256

// OverflowTenant is the /stats row name aggregating identities beyond
// MaxTenants.
const OverflowTenant = "(overflow)"

// tenantSlot is one client identity's serving state: its (optional)
// knowledge base namespace + matching engine and its /stats counters.
type tenantSlot struct {
	name    string
	kb      *kb.KB // nil unless tenancy namespaces are enabled
	matcher *matching.Engine

	requests  atomic.Int64
	probes    atomic.Int64
	cacheHits atomic.Int64
	matched   atomic.Int64
	shared    atomic.Int64 // requests answered via the ShareTemplates fallback
	throttled atomic.Int64
	shed      atomic.Int64
}

// tenancyState is the runtime side of TenancyOptions, embedded in System.
type tenancyState struct {
	mu       sync.Mutex
	slots    map[string]*tenantSlot
	overflow *tenantSlot
}

// maxTenants returns the effective tenant-map bound.
func (s *System) maxTenants() int {
	if n := s.Config.Tenancy.MaxTenants; n > 0 {
		return n
	}
	return DefaultMaxTenants
}

// tenantSlot returns (creating if needed) the slot for a client identity.
// Identities beyond MaxTenants share the overflow slot, which has no
// namespace of its own.
func (s *System) tenantSlot(client string) *tenantSlot {
	t := &s.tenants
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.slots == nil {
		t.slots = map[string]*tenantSlot{}
	}
	if slot, ok := t.slots[client]; ok {
		return slot
	}
	if len(t.slots) >= s.maxTenants() {
		if t.overflow == nil {
			t.overflow = &tenantSlot{name: OverflowTenant}
		}
		return t.overflow
	}
	slot := &tenantSlot{name: client}
	if s.Config.Tenancy.Enabled {
		slot.kb = kb.NewSharded(s.Config.Shards)
		// Tenant namespaces are isolation domains: they always probe their
		// own local KB, never the shared fleet (shared=false).
		eps, router := s.endpoints(slot.kb, false)
		slot.matcher = matching.NewSharded(s.DB.Catalog, eps, router, s.Config.Matching)
	}
	t.slots[client] = slot
	return slot
}

// reoptimizeFor runs the online matching workflow in a client's namespace.
// With tenancy namespaces off (or for overflow tenants) it is exactly the
// shared Reoptimize. With namespaces on, the query matches the tenant's own
// knowledge base; when nothing matches and ShareTemplates is set, it falls
// back to the shared namespace. It returns the result, the epoch of the
// namespace that answered, and the probes/cache-hits spent on a discarded
// tenant-namespace pass (so callers charge the full cost).
func (s *System) reoptimizeFor(slot *tenantSlot, q *sqlparser.Query) (res *matching.Result, epoch uint64, extraProbes, extraCacheHits int, err error) {
	if slot.matcher == nil {
		res, err = s.Reoptimize(q)
		return res, s.KB().Epoch(), 0, 0, err
	}
	epoch = slot.kb.Epoch()
	res, err = slot.matcher.Reoptimize(q)
	if err != nil || len(res.Matches) > 0 || !s.Config.Tenancy.ShareTemplates {
		return res, epoch, 0, 0, err
	}
	// Tenant-namespace miss: consult the shared templates, keeping the
	// tenant pass's probe cost on the books.
	extraProbes = res.ProbeStats.Probes
	extraCacheHits = res.ProbeStats.CacheHits
	shared, sharedErr := s.Reoptimize(q)
	if sharedErr != nil {
		return nil, epoch, 0, 0, sharedErr
	}
	if len(shared.Matches) > 0 {
		slot.shared.Add(1)
	}
	return shared, s.KB().Epoch(), extraProbes, extraCacheHits, nil
}

// tenantStat is one tenant's row in /stats. Counter sums across rows
// (including the overflow row) equal the corresponding /reopt totals.
type tenantStat struct {
	Tenant    string `json:"tenant"`
	Requests  int64  `json:"requests"`
	Probes    int64  `json:"probes"`
	CacheHits int64  `json:"cache_hits"`
	Matched   int64  `json:"matched"`
	// SharedMatches counts requests answered by the cross-tenant fallback.
	SharedMatches int64 `json:"shared_matches"`
	Throttled     int64 `json:"throttled"`
	Shed          int64 `json:"shed"`
	// KBEpoch / Templates describe the tenant's namespace (zero without one).
	KBEpoch   uint64 `json:"kb_epoch,omitempty"`
	Templates int    `json:"templates,omitempty"`
}

// tenancyStats is the /stats tenancy section.
type tenancyStats struct {
	Enabled        bool         `json:"enabled"`
	ShareTemplates bool         `json:"share_templates"`
	MaxTenants     int          `json:"max_tenants"`
	Tenants        []tenantStat `json:"tenants,omitempty"`
}

// tenancySnapshot builds the /stats tenancy section: one row per observed
// client identity (sorted by name, overflow last).
func (s *System) tenancySnapshot() tenancyStats {
	out := tenancyStats{
		Enabled:        s.Config.Tenancy.Enabled,
		ShareTemplates: s.Config.Tenancy.ShareTemplates,
		MaxTenants:     s.maxTenants(),
	}
	t := &s.tenants
	t.mu.Lock()
	slots := make([]*tenantSlot, 0, len(t.slots)+1)
	for _, slot := range t.slots {
		slots = append(slots, slot)
	}
	overflow := t.overflow
	t.mu.Unlock()
	sort.Slice(slots, func(i, j int) bool { return slots[i].name < slots[j].name })
	if overflow != nil {
		slots = append(slots, overflow)
	}
	for _, slot := range slots {
		row := tenantStat{
			Tenant:        slot.name,
			Requests:      slot.requests.Load(),
			Probes:        slot.probes.Load(),
			CacheHits:     slot.cacheHits.Load(),
			Matched:       slot.matched.Load(),
			SharedMatches: slot.shared.Load(),
			Throttled:     slot.throttled.Load(),
			Shed:          slot.shed.Load(),
		}
		if slot.kb != nil {
			row.KBEpoch = slot.kb.Epoch()
			row.Templates = slot.kb.Size()
		}
		out.Tenants = append(out.Tenants, row)
	}
	return out
}
