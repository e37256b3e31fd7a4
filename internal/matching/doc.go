// Package matching implements GALO's online matching engine (Section 3.3 of
// the paper): an incoming query's plan is segmented into sub-plans (climbing
// the tree up to the RETURN operator, capped by the same join threshold used
// during learning), each segment is described as a knowledge base probe by
// the transformation engine (transform.Probe) and answered from the
// routinization cache or by the knowledge base — as a built query when the
// knowledge base is in this process, as SPARQL text when it is remote — and
// the matched templates' guidelines — with canonical table labels mapped back to the
// query's table instances — are collected into a guideline document with
// which the query is re-optimized.
//
// # Concurrency contract
//
// An Engine is safe for concurrent use and is built for the serving path:
//
//   - A plan's probes are looked up in the routinization cache inline; the
//     misses fan out across a bounded worker pool (GOMAXPROCS workers);
//     selection over the results is deterministic (largest fragment first,
//     overlap-claimed fragments skipped).
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
//     keyed by (KB shard, fragment fingerprint — transform.Probe.Key) and
//     tagged with the shard epoch; an entry is served to its own epoch only
//     and gives way to newer epochs only, so the cache can never serve
//     solutions across epochs or across shards, and a plan still pinned on
//     an older epoch cannot take a newer plan's entries away.
//   - Identical in-flight probes — same KB shard, same epoch, same fragment
//     fingerprint — collapse into one SPARQL evaluation (singleflight).
package matching
