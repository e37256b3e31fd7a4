package matching

import (
	"container/list"
	"fmt"
	"sync"

	"galo/internal/guideline"
	"galo/internal/sparql"
	"galo/internal/transform"
)

// probeCacheShards is the number of independently locked shards the
// routinization cache is split across. Under serving concurrency (the
// paper's Figure 12 amortization measured with many clients) every request
// hits the cache several times per plan; sharding keeps those hits from
// serializing on one mutex.
const probeCacheShards = 16

// probeCache is a sharded, fixed-capacity LRU cache of knowledge base probe
// results, keyed by shard and probe fingerprint (transform.Probe.Key). The
// fingerprint is complete — the operator types, variable names, input-stream
// structure and estimated cardinalities it records are everything the probe's
// query is built from — so two fragments with equal fingerprints are
// guaranteed to receive equal solutions from an unchanged knowledge base.
// This is the paper's "routinization" fast path (Figure 12): workloads
// re-submit the same plan fragments over and over, and a repeated fragment
// should not pay full SPARQL evaluation again.
//
// Entries are tagged with the knowledge base epoch they were computed
// against and are served to that epoch only, so knowledge base publications
// invalidate the cache without coordination — the cache can never serve a
// solution across epochs. Shard epochs only grow: a lookup from a newer epoch
// drops the entry it supersedes, while a plan still pinned on an older epoch
// neither finds nor disturbs what a newer plan cached (while a publication
// is in flight both kinds of plan are running). Negative results (no matching
// template) are cached too — most probes miss, and the miss is exactly what
// routinization must make cheap.
type probeCache struct {
	shards []*cacheShard
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	order *list.List
	items map[probeKey]*list.Element
}

type probeEntry struct {
	key     probeKey
	version uint64
	sols    []sparql.Solution
}

func newProbeCache(capacity int) *probeCache {
	// Small configured capacities get fewer shards rather than a silently
	// inflated total (16 shards of one entry each would both exceed the
	// bound and thrash colliding hot keys); full sharding kicks in once
	// every shard can hold a few entries.
	shards := probeCacheShards
	if shards > capacity {
		shards = capacity
	}
	if shards < 1 {
		shards = 1
	}
	perShard := capacity / shards
	if perShard < 1 {
		perShard = 1
	}
	c := &probeCache{shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{cap: perShard, order: list.New(), items: map[probeKey]*list.Element{}}
	}
	return c
}

// shard picks the key's cache shard by FNV-1a over its bytes, hashed in
// place.
func (c *probeCache) shard(key probeKey) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key.probe); i++ {
		h = (h ^ uint32(key.probe[i])) * 16777619
	}
	h = (h ^ uint32(key.shard)) * 16777619
	return c.shards[h%uint32(len(c.shards))]
}

// get returns the cached solutions for key at the given knowledge base
// epoch. An entry from an older epoch is evicted; one from a newer epoch is
// left for the plans that can use it. Both report a miss.
func (c *probeCache) get(key probeKey, version uint64) ([]sparql.Solution, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*probeEntry)
	if ent.version != version {
		if ent.version < version {
			s.order.Remove(el)
			delete(s.items, key)
		}
		return nil, false
	}
	s.order.MoveToFront(el)
	return ent.sols, true
}

// put stores the solutions for key at the given knowledge base epoch,
// evicting the shard's least recently used entry when it is full. An entry
// already cached at a newer epoch stays.
func (c *probeCache) put(key probeKey, version uint64, sols []sparql.Solution) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		ent := el.Value.(*probeEntry)
		if ent.version > version {
			return
		}
		ent.version = version
		ent.sols = sols
		s.order.MoveToFront(el)
		return
	}
	s.items[key] = s.order.PushFront(&probeEntry{key: key, version: version, sols: sols})
	if s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*probeEntry).key)
	}
}

// size returns the number of cached entries across all shards.
func (c *probeCache) size() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.order.Len()
		s.mu.Unlock()
	}
	return total
}

// boundedCache is a mutex-guarded map for values that never go stale: when it
// is full an arbitrary entry makes room, so it only keeps a stream of
// never-repeating keys from growing it without end. The zero value is empty.
type boundedCache[V any] struct {
	mu sync.Mutex
	m  map[string]V
}

func (c *boundedCache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *boundedCache[V]) put(key string, v V, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]V{}
	}
	if len(c.m) >= capacity {
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[key] = v
}

// formCacheSize bounds the probe forms an engine keeps compiled (a few KB
// each). A workload's fragments come in few forms — the form leaves out every
// cardinality; each benchmark workload uses at most 44 — so the bound only
// keeps a stream of never-repeating shapes from growing the cache without end.
const formCacheSize = 256

// formCache maps a probe form (transform.Probe.FormKey) to its compiled
// query, so a cold probe of a known form builds no query and compiles
// nothing. A sparql.Prepared holds no knowledge base IDs, so no publication
// makes an entry stale.
type formCache struct{ boundedCache[*sparql.Prepared] }

// prepare returns the probe's compiled form, compiling it on first sight.
func (c *formCache) prepare(p *transform.Probe) (*sparql.Prepared, error) {
	form := p.FormKey()
	if pr, ok := c.get(form); ok {
		return pr, nil
	}
	pr, err := sparql.Prepare(p.Query())
	if err != nil {
		return nil, err
	}
	c.put(form, pr, formCacheSize)
	return pr, nil
}

// guidelineCacheSize bounds the parsed guidelines an engine keeps (well under
// a KB each): one per template whose probe answers are picked.
const guidelineCacheSize = 1024

// guidelineCache maps a template's guideline literal to the first guideline
// tree it parses to, so a probe answer — a cache hit above all — is not
// parsed again per request. A template's guideline text never changes, so the
// text alone is the key: no publication makes an entry stale. The cached trees
// are shared by every request matching the template: they are read and
// cloned, never written (pickTemplate rebinds a clone).
type guidelineCache struct {
	boundedCache[*guideline.Element]
}

// parse returns the literal's first guideline tree, parsing it on first sight.
func (c *guidelineCache) parse(text string) (*guideline.Element, error) {
	if g, ok := c.get(text); ok {
		return g, nil
	}
	doc, err := guideline.Parse(text)
	if err != nil || len(doc.Guidelines) == 0 {
		return nil, fmt.Errorf("matching: template carries an invalid guideline: %v", err)
	}
	c.put(text, doc.Guidelines[0], guidelineCacheSize)
	return doc.Guidelines[0], nil
}
