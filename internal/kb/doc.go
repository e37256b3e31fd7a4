// Package kb implements GALO's knowledge base: the collection of
// problem-pattern templates (an abstracted plan fragment with per-operator
// property bounds) and their recommended rewrites (a guideline document),
// stored as an RDF graph and queried via SPARQL during online
// re-optimization.
//
// Templates are abstracted with canonical symbol labels (TABLE_1, TABLE_2,
// ...) so that a pattern learned over one query — or one workload — matches
// structurally similar plans over entirely different tables, which is what
// the paper's Exp-2 cross-workload reuse result relies on.
//
// # Sharding
//
// A KB holds one or more shards (NewSharded), each an independent RDF store
// with its own epoch counter. Every template lands in exactly one shard,
// chosen by RouteShape from a prefix of the problem fragment's shape
// signature (qgm.Node.ShapeSignature) — with a join-count band as the
// fallback when no shape is available. Because an applicable match requires
// the incoming fragment's operator-type tree to equal the template problem's
// tree, the matching engine can route each fragment probe to the single
// shard whose templates could match it; probes for one plan therefore fan
// out across shards without ever consulting the others.
//
// # Concurrency contract
//
// A KB is safe for concurrent use. Each shard store publishes immutable
// epoch snapshots: one AddAll batch (an Add, a Merge, a load) is exactly
// one atomic snapshot swap on each owning shard, and only there —
// publications never bump the epoch of an unrelated shard, so caches keyed
// by (shard, epoch) elsewhere stay valid. Readers that pinned a shard snapshot before a
// publication keep evaluating against the previous epoch. The template
// index (Templates, FindBySignature, Size) is guarded by an internal mutex
// and may trail or lead the RDF view observed by an unpinned reader; probe
// correctness only ever depends on the pinned shard snapshots.
package kb
