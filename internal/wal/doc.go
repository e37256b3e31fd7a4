// Package wal makes the knowledge base durable: a per-shard write-ahead log
// of effective mutation batches plus periodic epoch snapshots, so a crashed
// server restarts with the exact template set and epoch vector it had
// acknowledged before dying — and cached plan keys (shard, epoch,
// fingerprint) stay honest across the restart.
//
// # Layout
//
// One data directory holds a MANIFEST (JSON: format version 2 and shard
// count) and one subdirectory per shard:
//
//	<dir>/MANIFEST
//	<dir>/shard-0/snap-0000000000000041.rec  epoch snapshot (one framed record)
//	<dir>/shard-0/wal-0000000000000042.seg   log segment (starting epoch in hex)
//
// Both file kinds hold framed records: [len u32le][crc32c u32le][payload],
// the payload a version plus removed and added triples. A segment is a run of
// them, one per publication (its post-publication version and effective
// changes). A snapshot is exactly one: version = the epoch it captures,
// added = every triple of the shard, nothing removed. It is written
// temp-then-rename, so a crash never leaves a half-visible snapshot, and
// maxRecordLen (256 MB) bounds it. Any other MANIFEST format (format 1 wrote
// N-Triples snapshots) is refused rather than misread.
//
// # Write path and ordering contract
//
// The Manager installs an rdf.CommitHook on every shard store. The hook runs
// under the store's writer lock BEFORE the atomic snapshot-pointer swap, so
// the log always leads the published in-memory state: any epoch a reader can
// observe is already appended (and, under SyncAlways, fsynced). The hook
// cannot veto a commit — if the disk fails, the manager counts the error,
// flips to degraded in-memory mode, and the publication proceeds; serving
// never stops for a durability fault.
//
// # Recovery contract
//
// Recover restores each shard from its newest snapshot that passes
// validation (falling back to the previous generation on any defect — the
// WAL is only ever trimmed below the OLDER of the two retained snapshots, so
// the fallback can still replay the gap), then replays the log tail on top.
// Replay stops at the first torn or corrupt record, keeping the longest
// valid prefix; a kill -9 mid-write therefore loses at most the unsynced
// suffix and never fails the boot. Version continuity is checked on every
// record, so a replayed store reproduces the exact epoch lineage the
// original published. Start then writes a fresh snapshot of the recovered
// state and opens a new active segment — recovered segments are never
// appended to.
//
// # Concurrency
//
// Commit hooks are serialized per shard by the store's writer lock; the
// segment log's own mutex additionally orders them against background
// fsyncs, rotation, and trimming. Snapshot compaction reads the store's
// lock-free published snapshot, never the store's internals, so it cannot
// deadlock against writers. The lock order is always store.mu -> segLog.mu;
// no path acquires them in reverse. Compaction is polled: each SyncEvery tick
// the worker snapshots every shard SnapshotEvery or more triple changes past
// its last snapshot; the commit hook triggers nothing.
package wal
