package fleet

import (
	"sync"
	"sync/atomic"

	"galo/internal/kb"
)

// maxTrackedShapes bounds the per-shape probe counters the rebalancer mines
// for hot shapes; beyond it, new shapes route correctly but are not counted.
const maxTrackedShapes = 4096

// override is one shape's routing override created by a migration.
type override struct {
	owner int
	prev  int
	dual  bool // dual-route window: reads alternate between prev and owner
}

// RouteTable overlays migration-created ownership overrides on the static
// shape-hash routing (kb.RouteShapeN). During a migration's dual-route
// window reads alternate between the old and the new owner — both hold the
// shape's templates then, so either answer is complete and the new owner's
// caches warm before cutover.
type RouteTable struct {
	n int

	mu        sync.RWMutex
	overrides map[string]override
	counts    map[string]*atomic.Int64

	flip       atomic.Uint64 // alternates dual-window reads
	dualRouted *atomic.Int64 // fleet counter (set by New)
}

func newRouteTable(n int) *RouteTable {
	return &RouteTable{
		n:         n,
		overrides: map[string]override{},
		counts:    map[string]*atomic.Int64{},
	}
}

// Route maps a shape to its current owning shard and counts the probe
// against the shape (up to maxTrackedShapes distinct shapes).
func (t *RouteTable) Route(shape string, joins int) int {
	key := kb.NormalizeShape(shape)
	t.mu.RLock()
	ov, overridden := t.overrides[key]
	c := t.counts[key]
	t.mu.RUnlock()
	if c == nil {
		t.mu.Lock()
		if c = t.counts[key]; c == nil && len(t.counts) < maxTrackedShapes {
			c = &atomic.Int64{}
			t.counts[key] = c
		}
		t.mu.Unlock()
	}
	if c != nil {
		c.Add(1)
	}
	if overridden {
		if ov.dual {
			if t.dualRouted != nil {
				t.dualRouted.Add(1)
			}
			if t.flip.Add(1)%2 == 0 {
				return ov.prev
			}
		}
		return ov.owner
	}
	return kb.RouteShapeN(shape, joins, t.n)
}

// SetDual opens a shape's dual-route window: reads alternate between the old
// owner (from) and the new owner (to).
func (t *RouteTable) SetDual(key string, from, to int) {
	key = kb.NormalizeShape(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.overrides[key] = override{owner: to, prev: from, dual: true}
}

// SetOwner cuts a shape over to its final owner. A shape cut back to its
// static hash home needs no override at all.
func (t *RouteTable) SetOwner(key string, to int) {
	key = kb.NormalizeShape(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	if kb.RouteShapeN(key, 0, t.n) == to {
		delete(t.overrides, key)
		return
	}
	t.overrides[key] = override{owner: to, prev: to}
}

// Owner returns the shard currently owning the shape (dual windows report
// the migration target).
func (t *RouteTable) Owner(key string, joins int) int {
	key = kb.NormalizeShape(key)
	t.mu.RLock()
	defer t.mu.RUnlock()
	if ov, ok := t.overrides[key]; ok {
		return ov.owner
	}
	return kb.RouteShapeN(key, joins, t.n)
}

// HotShape returns the most-probed tracked shape currently owned by the
// shard, skipping shapes mid-migration; ok is false when the shard owns no
// tracked shape.
func (t *RouteTable) HotShape(shard int) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	best, bestCount := "", int64(-1)
	for key, c := range t.counts {
		if ov, ok := t.overrides[key]; ok {
			if ov.dual || ov.owner != shard {
				continue
			}
		} else if kb.RouteShapeN(key, 0, t.n) != shard {
			continue
		}
		if n := c.Load(); n > bestCount || (n == bestCount && key < best) {
			best, bestCount = key, n
		}
	}
	return best, bestCount >= 0
}

// overrideCounts returns (total overrides, overrides in a dual window).
func (t *RouteTable) overrideCounts() (int, int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	dual := 0
	for _, ov := range t.overrides {
		if ov.dual {
			dual++
		}
	}
	return len(t.overrides), dual
}
