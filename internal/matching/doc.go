// Package matching implements GALO's online matching engine (Section 3.3 of
// the paper): an incoming query's plan is segmented into sub-plans (climbing
// the tree up to the RETURN operator, capped by the same join threshold used
// during learning), each segment is turned into a SPARQL query by the
// transformation engine and run against the knowledge base, and the matched
// templates' guidelines — with canonical table labels mapped back to the
// query's table instances — are collected into a guideline document with
// which the query is re-optimized.
//
// # Concurrency contract
//
// An Engine is safe for concurrent use and is built for the serving path:
//
//   - Probes for one plan fan out across a bounded worker pool (GOMAXPROCS
//     workers); selection over the results is deterministic (largest
//     fragment first, overlap-claimed fragments skipped).
//   - The knowledge base may be sharded (NewSharded): each fragment routes
//     to the single shard whose templates could match it (Router over the
//     fragment's shape signature), so a plan's probes touch only the shards
//     its signatures can hit.
//   - Epoch pinning: at plan start the engine pins one epoch per shard
//     (EpochPinner) — a vector of shard epochs — and every probe, cache
//     entry and singleflight key of the plan carries its shard's pinned
//     epoch. A learning publication on one shard mid-plan is invisible to
//     the plan and can never invalidate cache entries tagged with another
//     shard's epoch.
//   - The routinization cache (Options.ProbeCacheSize) is a sharded LRU
//     keyed by (KB shard, fragment fingerprint) and tagged with the shard
//     epoch; an epoch mismatch evicts on lookup, so the cache can never
//     serve solutions across epochs or across shards.
//   - Identical in-flight probes — same KB shard, same epoch, same fragment
//     fingerprint — collapse into one SPARQL evaluation (singleflight).
package matching
