// Package learning implements GALO's learning engines.
//
// The offline engine (Engine, Section 3.2 of the paper) decomposes workload
// queries into sub-queries, varies predicate values to cover different
// reduction factors, executes and ranks competing plans from the Random
// Plan Generator against the optimizer's plan, and abstracts the winning
// rewrites into problem-pattern templates stored in the knowledge base.
//
// The online incremental learner (Online) closes the same loop at serving
// time: executed plans whose actual-vs-estimated cardinality gap clears
// OnlineOptions.GapThreshold are enqueued for the identical per-query
// analysis, and winning templates are promoted into the next knowledge base
// epoch without a batch relearn.
//
// # Concurrency contract
//
// Offline learning runs in three phases over one unit of work, the execution
// of one plan of one predicate variant. Plans are generated sequentially, in
// workload, sub-query and variant order, so each query's value sampler and
// random plan generator (seeded from the query text alone) consume their
// streams in one fixed order. Every plan is then executed exactly once on one
// pool of Options.Workers goroutines — the optimizer's plans first, then the
// alternatives, each bounded by what its baseline leaves it — and that pool is
// the only concurrency: the executor is stateless and every execution owns
// its plan. Ranking and publication are sequential again, in workload order:
// each plan is ranked on its one stored execution (Options.Runs only scales
// what it is billed), observation groups become templates in sorted key
// order, and kb.KB.Add —
// which routes each template to its owning shard and publishes exactly one
// epoch there, leaving concurrent matchers on other shards unaffected — is
// called by one goroutine. A workload therefore learns the same knowledge
// base, byte for byte, at any worker count.
//
// Online.Observe never blocks the serving path: the analysis queue is
// bounded (OnlineOptions.QueueSize, the first stage of the serving stack's
// admission control), and observations arriving at a full queue are dropped
// and counted. One background worker drains the queue; Close stops it after
// draining, and Flush lets tests wait for a deterministic next epoch.
package learning
