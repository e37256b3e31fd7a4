package wal

import (
	"encoding/json"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"galo/internal/rdf"
)

// SyncPolicy controls when WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncInterval fsyncs on a background ticker (Options.SyncEvery). A crash
	// can lose at most one interval of acknowledged writes; throughput stays
	// close to in-memory. The default.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs inside every publication: no acknowledged write is
	// ever lost, at the cost of one fsync per mutation batch.
	SyncAlways
	// SyncNever leaves flushing to the OS page cache (and the final fsync of
	// a graceful shutdown). Fastest; a crash loses whatever the kernel had
	// not written back.
	SyncNever
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseSyncPolicy parses the -sync flag spelling of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	}
	return SyncInterval, fmt.Errorf("wal: unknown sync policy %q (want always, interval, or never)", s)
}

// MarshalText and UnmarshalText spell the policy as the -sync flag does.
func (p SyncPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *SyncPolicy) UnmarshalText(b []byte) (err error) {
	*p, err = ParseSyncPolicy(string(b))
	return err
}

// Options configures the durability layer. Zero values mean defaults.
type Options struct {
	// Dir is the data directory; one MANIFEST plus one shard-<i> subdirectory
	// per knowledge-base shard live under it.
	Dir string
	// FS is the filesystem seam; nil means the real filesystem.
	FS FS
	// Sync is the fsync policy for WAL appends.
	Sync SyncPolicy
	// SyncEvery is the background worker's tick (default 100ms). Each tick
	// fsyncs buffered appends under SyncInterval and, under every policy,
	// compacts each shard whose published epoch is at least SnapshotEvery
	// past its last snapshot.
	SyncEvery time.Duration
	// SegmentBytes caps a WAL segment before rotation (default 4 MiB).
	SegmentBytes int64
	// SnapshotEvery is how many effective triple changes beyond a shard's
	// last snapshot make the next tick compact it (default 4096).
	SnapshotEvery uint64
	// Logf receives recovery warnings and degradation notices
	// (default log.Printf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OsFS{}
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	return o
}

// RecoveryStats describes what boot-time recovery found.
type RecoveryStats struct {
	// SnapshotsLoaded counts shards restored from a valid snapshot.
	SnapshotsLoaded int `json:"snapshots_loaded"`
	// SnapshotFallbacks counts snapshot files skipped for failing validation.
	SnapshotFallbacks int `json:"snapshot_fallbacks"`
	// RecordsReplayed counts WAL records re-applied on top of snapshots.
	RecordsReplayed int64 `json:"records_replayed"`
	// BytesReplayed is the byte volume of the replayed records.
	BytesReplayed int64 `json:"bytes_replayed"`
	// Truncated reports that replay stopped at a torn or corrupt record and
	// kept the longest valid prefix (the expected outcome of kill -9 mid-
	// write, not an error).
	Truncated bool `json:"truncated"`
}

// Recovery is the result of reading a data directory back: one restored
// store per shard, at the exact epoch the log proves durable.
type Recovery struct {
	Shards int
	Stores []*rdf.Store
	Stats  RecoveryStats
}

const manifestName = "MANIFEST"

// manifestFormat versions the data directory's on-disk encoding. Format 1
// wrote snapshots as checksummed N-Triples; format 2 writes them as framed
// records. A directory in any other format is refused, never misread.
const manifestFormat = 2

type manifest struct {
	Format int `json:"format"`
	Shards int `json:"shards"`
}

// readManifest reads dir's MANIFEST; ok is false when none exists (a fresh
// data directory).
func readManifest(fsys FS, dir string) (shards int, ok bool, err error) {
	names, err := fsys.List(dir)
	if err != nil {
		return 0, false, err
	}
	present := false
	for _, n := range names {
		if n == manifestName {
			present = true
			break
		}
	}
	if !present {
		return 0, false, nil
	}
	data, err := fsys.ReadFile(join(dir, manifestName))
	if err != nil {
		return 0, false, err
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return 0, false, fmt.Errorf("wal: parsing %s: %v", manifestName, err)
	}
	if mf.Format != manifestFormat {
		return 0, false, fmt.Errorf("wal: %s is format %d, this build reads format %d only", manifestName, mf.Format, manifestFormat)
	}
	if mf.Shards <= 0 {
		return 0, false, fmt.Errorf("wal: %s declares %d shards", manifestName, mf.Shards)
	}
	return mf.Shards, true, nil
}

func writeManifest(fsys FS, dir string, shards int) error {
	data, err := json.Marshal(manifest{Format: manifestFormat, Shards: shards})
	if err != nil {
		return err
	}
	tmp := join(dir, manifestName+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, join(dir, manifestName))
}

func shardDir(dir string, i int) string { return join(dir, fmt.Sprintf("shard-%d", i)) }

// Recover reads a data directory back into per-shard stores: the newest
// valid snapshot of each shard (falling back past corrupt generations), then
// the replayable WAL tail on top. It returns (nil, nil) when the directory
// holds no manifest — a fresh start. Corruption never fails recovery; it
// truncates to the longest valid prefix and reports it in Stats.
func Recover(opts Options) (*Recovery, error) {
	opts = opts.withDefaults()
	shards, ok, err := readManifest(opts.FS, opts.Dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	rec := &Recovery{Shards: shards}
	for i := 0; i < shards; i++ {
		sdir := shardDir(opts.Dir, i)
		epoch, ts := loadNewestSnapshot(opts.FS, sdir, &rec.Stats, opts.Logf)
		store := rdf.RestoreStore(ts, epoch)
		replaySegments(opts.FS, sdir, epoch, store, &rec.Stats, opts.Logf)
		rec.Stores = append(rec.Stores, store)
	}
	return rec, nil
}

// managedShard pairs one store with its shard directory and log. Commit
// hooks capture the pointer (not a slice index) so a detached shard can
// never observe a successor's state.
type managedShard struct {
	m     *Manager
	dir   string
	store *rdf.Store
	log   *segLog

	lastSnapEpoch uint64 // guarded by Manager.compactMu
}

// Manager runs the durability layer for a set of live shard stores: it
// appends every publication to the shard's WAL before the in-memory pointer
// swap, fsyncs per policy, compacts to snapshots on the background worker's
// tick, and on any disk error degrades to in-memory serving instead of
// failing writes.
type Manager struct {
	opts   Options
	fs     FS
	shards []*managedShard

	degraded    atomic.Bool
	walAppends  atomic.Uint64
	walBytes    atomic.Int64
	fsyncCount  atomic.Uint64
	snapCount   atomic.Uint64
	lastSnap    atomic.Uint64
	diskErrors  atomic.Uint64
	replayStats RecoveryStats

	compactMu sync.Mutex // serializes compactDue passes
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// Start brings up durability over stores (one WAL per shard under opts.Dir).
// It writes the manifest and a fresh snapshot of every shard at its current
// version — making the directory self-contained even if old logs were
// truncated — installs the commit hooks, and starts the background
// flush/compaction worker. fresh wipes any previous generation's shard state
// first (used when a new KB replaces a recovered one). replay carries the
// stats of the Recover call that produced stores, for /stats.
func Start(opts Options, stores []*rdf.Store, fresh bool, replay *RecoveryStats) (*Manager, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(opts.Dir); err != nil {
		return nil, err
	}
	if fresh {
		if old, ok, _ := readManifest(fsys, opts.Dir); ok {
			for i := 0; i < old; i++ {
				_ = fsys.RemoveAll(shardDir(opts.Dir, i))
			}
		}
		for i := range stores {
			_ = fsys.RemoveAll(shardDir(opts.Dir, i))
		}
		_ = fsys.Remove(join(opts.Dir, manifestName))
	}
	if err := writeManifest(fsys, opts.Dir, len(stores)); err != nil {
		return nil, err
	}
	m := &Manager{
		opts: opts,
		fs:   fsys,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if replay != nil {
		m.replayStats = *replay
	}
	fail := func(err error) (*Manager, error) {
		for _, sh := range m.shards {
			_ = sh.log.close()
		}
		return nil, err
	}
	for i, store := range stores {
		sdir := shardDir(opts.Dir, i)
		if err := fsys.MkdirAll(sdir); err != nil {
			return fail(err)
		}
		snap := store.Snapshot()
		v := snap.Version()
		if err := writeSnapshot(fsys, sdir, snap); err != nil {
			return fail(err)
		}
		oldest, err := trimSnapshots(fsys, sdir, snapshotsKept)
		if err != nil {
			return fail(err)
		}
		if replay != nil && replay.Truncated {
			// Segments past a truncation point hold records replay can never
			// reach again; leaving them would poison future replays.
			if err := removeAllSegments(fsys, sdir); err != nil {
				return fail(err)
			}
		}
		lg, err := openLog(fsys, sdir, v+1, opts.Sync, opts.SegmentBytes)
		if err != nil {
			return fail(err)
		}
		sh := &managedShard{m: m, dir: sdir, store: store, log: lg, lastSnapEpoch: v}
		m.shards = append(m.shards, sh)
		if err := lg.trimTo(oldest); err != nil {
			return fail(err)
		}
		if v > m.lastSnap.Load() {
			m.lastSnap.Store(v)
		}
	}
	for _, sh := range m.shards {
		sh.store.SetCommitHook(sh.onCommit)
	}
	go m.worker()
	return m, nil
}

// removeAllSegments deletes every WAL segment in a shard directory.
func removeAllSegments(fsys FS, dir string) error {
	names, err := fsys.List(dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			if err := fsys.Remove(join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// onCommit is the store's commit hook: it runs under the store's writer lock
// BEFORE the snapshot pointer swap, so the log always leads the published
// state. Append failures degrade the manager rather than veto the commit —
// the in-memory publication proceeds and serving continues.
func (sh *managedShard) onCommit(removed, added []rdf.Triple, version uint64) {
	m := sh.m
	if m.degraded.Load() {
		return
	}
	n, synced, err := sh.log.append(Record{Version: version, Removed: removed, Added: added})
	if err != nil {
		m.noteDiskError("wal append", err)
		return
	}
	m.walAppends.Add(1)
	m.walBytes.Add(int64(n))
	if synced {
		m.fsyncCount.Add(1)
	}
}

func (m *Manager) noteDiskError(op string, err error) {
	m.diskErrors.Add(1)
	if m.degraded.CompareAndSwap(false, true) {
		m.opts.Logf("wal: %s failed: %v — persistence degraded, serving continues in-memory", op, err)
	}
}

// worker ticks at SyncEvery: it fsyncs buffered appends under SyncInterval,
// then compacts the shards that are due. Polling leaves no trigger to lose.
func (m *Manager) worker() {
	defer close(m.done)
	t := time.NewTicker(m.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			if m.opts.Sync == SyncInterval && !m.degraded.Load() {
				_ = m.Flush()
			}
			m.compactDue(m.opts.SnapshotEvery)
		}
	}
}

// compactDue snapshots every shard whose published epoch is at least every
// past its last snapshot, then trims that shard's snapshot generations and
// its WAL below the older retained snapshot.
func (m *Manager) compactDue(every uint64) {
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	for _, sh := range m.shards {
		if m.degraded.Load() {
			return
		}
		snap := sh.store.Snapshot()
		epoch := snap.Version()
		if epoch-sh.lastSnapEpoch < every {
			continue
		}
		if err := writeSnapshot(m.fs, sh.dir, snap); err != nil {
			m.noteDiskError("snapshot", err)
			return
		}
		sh.lastSnapEpoch = epoch
		m.snapCount.Add(1)
		if epoch > m.lastSnap.Load() {
			m.lastSnap.Store(epoch)
		}
		oldest, err := trimSnapshots(m.fs, sh.dir, snapshotsKept)
		if err != nil {
			m.noteDiskError("snapshot retention", err)
			return
		}
		if err := sh.log.trimTo(oldest); err != nil {
			m.noteDiskError("wal trim", err)
			return
		}
	}
}

// Flush forces an fsync of every shard's buffered appends (the final WAL
// fsync of a graceful shutdown, and the durability point for SyncInterval).
func (m *Manager) Flush() error {
	var first error
	for _, sh := range m.shards {
		synced, err := sh.log.flush()
		if err != nil {
			m.noteDiskError("wal fsync", err)
			if first == nil {
				first = err
			}
			continue
		}
		if synced {
			m.fsyncCount.Add(1)
		}
	}
	return first
}

// Stats is a point-in-time snapshot of durability counters for /stats.
type Stats struct {
	SyncPolicy        string `json:"sync_policy"`
	WALAppends        uint64 `json:"wal_appends"`
	WALBytes          int64  `json:"wal_bytes"`
	Fsyncs            uint64 `json:"fsyncs"`
	Snapshots         uint64 `json:"snapshots"`
	LastSnapshotEpoch uint64 `json:"last_snapshot_epoch"`
	DiskErrors        uint64 `json:"disk_errors"`
	Degraded          bool   `json:"degraded"`
	// Replay echoes what boot-time recovery found for this data directory.
	Replay RecoveryStats `json:"replay"`
}

// Stats returns current durability counters.
func (m *Manager) Stats() Stats {
	return Stats{
		SyncPolicy:        m.opts.Sync.String(),
		WALAppends:        m.walAppends.Load(),
		WALBytes:          m.walBytes.Load(),
		Fsyncs:            m.fsyncCount.Load(),
		Snapshots:         m.snapCount.Load(),
		LastSnapshotEpoch: m.lastSnap.Load(),
		DiskErrors:        m.diskErrors.Load(),
		Degraded:          m.degraded.Load(),
		Replay:            m.replayStats,
	}
}

// Close detaches the commit hooks, stops the background worker, and fsyncs
// and closes every shard's log. Safe to call more than once. Hooks detach
// FIRST so no publication can race a closing log.
func (m *Manager) Close() error {
	var err error
	m.closeOnce.Do(func() {
		for _, sh := range m.shards {
			sh.store.SetCommitHook(nil)
		}
		close(m.stop)
		<-m.done
		for _, sh := range m.shards {
			if cerr := sh.log.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}
