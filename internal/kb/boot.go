package kb

import (
	"fmt"

	"galo/internal/rdf"
)

// NewFromStores adopts recovered per-shard stores as a live knowledge base
// WITHOUT rewriting a single triple: the template index is reconstructed by
// reading each shard, and the stores' epoch lineages continue exactly where
// crash recovery left them. That is what keeps (shard, epoch, fingerprint)
// plan-cache keys honest across a restart — re-loading the triples instead
// would republish every shard and reset the epoch vector.
//
// It fails — letting the caller fall back to a re-routing NTriples reload —
// when a shard holds a template that routes elsewhere (the shard count or
// routing function changed since the data was written) or when two shards
// hold the same problem signature (corrupt state; the index requires global
// signature uniqueness).
func NewFromStores(stores []*rdf.Store) (*KB, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("kb: no stores to adopt")
	}
	k := &KB{stores: stores, bySignature: map[string]*Template{}, ids: map[string]bool{}}
	for i, st := range stores {
		templates, err := reconstructTemplates(newGraph(st.Match(nil, nil, nil)))
		if err != nil {
			return nil, fmt.Errorf("kb: shard %d: %w", i, err)
		}
		for _, t := range templates {
			if want := k.ShardOf(t); want != i {
				return nil, fmt.Errorf("kb: template %s recovered from shard %d but routes to shard %d (shard layout changed)", t.ID, i, want)
			}
			sig := t.Signature()
			if dup, ok := k.bySignature[sig]; ok {
				return nil, fmt.Errorf("kb: templates %s and %s share a problem signature across shards", dup.ID, t.ID)
			}
			k.templates = append(k.templates, t)
			k.bySignature[sig] = t
			k.ids[t.ID] = true
		}
	}
	// Seed the ID sequence past the adopted population so post-recovery
	// templates cannot reuse a recovered identifier.
	k.seq = len(k.templates)
	return k, nil
}
