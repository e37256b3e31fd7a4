package kb

import (
	"fmt"

	"galo/internal/rdf"
)

// shapeKey returns a template's canonical (BF-stripped) shape signature —
// the unit of routing and of fleet template migration.
func shapeKey(t *Template) string {
	if t == nil || t.Problem == nil {
		return ""
	}
	return NormalizeShape(t.Problem.ShapeSignature())
}

// NTriplesForShape serializes exactly the templates of one canonical shape,
// in the same shard-agnostic N-Triples format as NTriples. It is the "copy"
// half of the two-epoch migration protocol: the dump loads additively into
// another knowledge base via LoadNTriples. An empty string means the shape
// owns no templates here.
func (kb *KB) NTriplesForShape(shape string) string {
	shape = NormalizeShape(shape)
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	var w rdf.NTriplesWriter
	for _, t := range kb.templates {
		if shapeKey(t) == shape {
			for _, tr := range kb.templateTriples(t) {
				w.Add(tr)
			}
		}
	}
	return w.String()
}

// RemoveShape drops every template of one canonical shape — the "drop" half
// of the two-epoch migration protocol, run on the old owner after the new
// owner has taken over routing. Each owning shard sees ONE atomic Apply (one
// epoch publication), so a concurrently pinned probe observes either all of
// the shape's templates or none, never a torn subset. It returns the number
// of templates removed.
func (kb *KB) RemoveShape(shape string) int {
	shape = NormalizeShape(shape)
	kb.mu.Lock()
	defer kb.mu.Unlock()
	removals := make([][]rdf.Pattern, len(kb.stores))
	var kept []*Template
	removed := 0
	for _, t := range kb.templates {
		if shapeKey(t) != shape {
			kept = append(kept, t)
			continue
		}
		removed++
		shard := kb.ShardOf(t)
		removals[shard] = append(removals[shard], subjectPatterns(t)...)
		delete(kb.bySignature, t.Problem.Signature())
		delete(kb.ids, t.ID)
	}
	if removed == 0 {
		return 0
	}
	kb.templates = kept
	for i, pats := range removals {
		if len(pats) > 0 {
			kb.stores[i].Apply(pats, nil)
		}
	}
	return removed
}

// ShardSlice extracts the portion of a full knowledge base dump that shard
// `shard` of a `shards`-way layout owns. A `galo shard` process uses it to
// serve exactly its slice of a shared dump file; non-template triples follow
// the LoadNTriples convention and land in shard 0.
func ShardSlice(ntriples string, shard, shards int) (string, error) {
	if shards < 1 {
		shards = 1
	}
	if shard < 0 || shard >= shards {
		return "", fmt.Errorf("kb: shard %d out of range [0,%d)", shard, shards)
	}
	full := NewSharded(shards)
	if err := full.LoadNTriples(ntriples); err != nil {
		return "", err
	}
	return rdf.MergeNTriples([]*rdf.Store{full.stores[shard]}), nil
}
