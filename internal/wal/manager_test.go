package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"galo/internal/rdf"
)

// testOptions returns Options wired to a temp dir with warnings routed to
// the test log.
func testOptions(t *testing.T, dir string) Options {
	t.Helper()
	return Options{Dir: dir, Sync: SyncNever, Logf: t.Logf}
}

func startFresh(t *testing.T, opts Options, nshards int) (*Manager, []*rdf.Store) {
	t.Helper()
	stores := make([]*rdf.Store, nshards)
	for i := range stores {
		stores[i] = rdf.NewStore()
	}
	m, err := Start(opts, stores, true, nil)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return m, stores
}

func recoverDir(t *testing.T, opts Options) *Recovery {
	t.Helper()
	rec, err := Recover(opts)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec == nil {
		t.Fatal("Recover returned nil for a populated data dir")
	}
	return rec
}

// listFiles returns the base names in a shard dir matching the given parser.
func listFiles(t *testing.T, dir string, parse func(string) (uint64, bool)) []string {
	t.Helper()
	names, err := OsFS{}.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, n := range names {
		if _, ok := parse(n); ok {
			out = append(out, n)
		}
	}
	return out
}

func TestRecoverEmptyDirIsFreshStart(t *testing.T) {
	rec, err := Recover(testOptions(t, t.TempDir()))
	if err != nil {
		t.Fatalf("Recover on empty dir: %v", err)
	}
	if rec != nil {
		t.Fatalf("Recover on empty dir returned %+v, want nil", rec)
	}
}

func TestRoundTripThroughLogReplay(t *testing.T) {
	dir := t.TempDir()
	m, stores := startFresh(t, testOptions(t, dir), 2)
	stores[0].AddAll([]rdf.Triple{tri(1), tri(2), tri(3)})
	stores[1].Add(tri(10))
	stores[0].Remove(&[]rdf.Term{tri(2).S}[0], nil, nil)
	stores[1].AddAll([]rdf.Triple{tri(11), tri(12)})
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rec := recoverDir(t, testOptions(t, dir))
	if rec.Shards != 2 || len(rec.Stores) != 2 {
		t.Fatalf("recovered %d shards / %d stores, want 2/2", rec.Shards, len(rec.Stores))
	}
	for i, s := range rec.Stores {
		if s.NTriples() != stores[i].NTriples() {
			t.Errorf("shard %d content diverged:\n%q\nvs\n%q", i, s.NTriples(), stores[i].NTriples())
		}
		if s.Version() != stores[i].Version() {
			t.Errorf("shard %d version %d, want %d", i, s.Version(), stores[i].Version())
		}
	}
	if rec.Stats.RecordsReplayed == 0 || rec.Stats.Truncated {
		t.Errorf("stats = %+v, want replayed records and no truncation", rec.Stats)
	}
}

func TestSnapshotPlusEmptyWALRestartChain(t *testing.T) {
	dir := t.TempDir()
	m, stores := startFresh(t, testOptions(t, dir), 1)
	stores[0].AddAll([]rdf.Triple{tri(1), tri(2)})
	m.CompactNow()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// First restart: state comes from the snapshot; the log tail only
	// duplicates what the snapshot covers (records at or below its epoch are
	// skipped, not reapplied).
	rec := recoverDir(t, testOptions(t, dir))
	if got := rec.Stores[0]; got.Version() != stores[0].Version() || got.NTriples() != stores[0].NTriples() {
		t.Fatalf("first restart: version %d len %d, want %d/%d", got.Version(), got.Len(), stores[0].Version(), stores[0].Len())
	}
	if rec.Stats.SnapshotsLoaded != 1 {
		t.Errorf("snapshots loaded = %d, want 1", rec.Stats.SnapshotsLoaded)
	}

	// Continue the lineage and restart again: snapshot + new tail replay.
	m2, err := Start(testOptions(t, dir), rec.Stores, false, &rec.Stats)
	if err != nil {
		t.Fatalf("Start after recover: %v", err)
	}
	rec.Stores[0].Add(tri(3))
	want := rec.Stores[0].NTriples()
	wantV := rec.Stores[0].Version()
	if err := m2.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	rec2 := recoverDir(t, testOptions(t, dir))
	if got := rec2.Stores[0]; got.Version() != wantV || got.NTriples() != want {
		t.Fatalf("second restart: version %d, want %d", got.Version(), wantV)
	}
}

func TestTornFinalRecordKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	m, stores := startFresh(t, testOptions(t, dir), 1)
	for i := 1; i <= 5; i++ {
		stores[0].Add(tri(i))
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	segs := listFiles(t, shardDir(dir, 0), parseSegName)
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want exactly one", segs)
	}
	seg := filepath.Join(shardDir(dir, 0), segs[0])
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop a few tail bytes: the final record is torn, as after kill -9
	// mid-write.
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	rec := recoverDir(t, testOptions(t, dir))
	got := rec.Stores[0]
	if !rec.Stats.Truncated {
		t.Error("truncated tail not reported")
	}
	if got.Version() != 4 || got.Len() != 4 {
		t.Errorf("recovered version %d len %d, want 4/4 (all but the torn record)", got.Version(), got.Len())
	}
	if strings.Contains(got.NTriples(), "s5") {
		t.Error("torn record's triple resurfaced after recovery")
	}
}

func TestCorruptMiddleRecordKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	m, stores := startFresh(t, testOptions(t, dir), 1)
	for i := 1; i <= 10; i++ {
		stores[0].Add(tri(i))
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	segs := listFiles(t, shardDir(dir, 0), parseSegName)
	seg := filepath.Join(shardDir(dir, 0), segs[0])
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := recoverDir(t, testOptions(t, dir))
	got := rec.Stores[0]
	if !rec.Stats.Truncated {
		t.Error("mid-log corruption not reported as truncation")
	}
	v := got.Version()
	if v == 0 || v >= 10 {
		t.Fatalf("recovered version %d, want a proper prefix of 10 batches", v)
	}
	// One triple per batch: the surviving prefix is exactly batches 1..v.
	if got.Len() != int(v) {
		t.Errorf("recovered %d triples at version %d", got.Len(), v)
	}
	for i := 1; i <= int(v); i++ {
		s := tri(i).S
		if len(got.Match(&s, nil, nil)) != 1 {
			t.Errorf("prefix triple %d missing after recovery", i)
		}
	}
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	m, stores := startFresh(t, testOptions(t, dir), 1)
	stores[0].AddAll([]rdf.Triple{tri(1), tri(2)})
	m.CompactNow() // snapshot generation at epoch 2
	stores[0].AddAll([]rdf.Triple{tri(3), tri(4)})
	m.CompactNow() // snapshot generation at epoch 4
	stores[0].Add(tri(5))
	want := stores[0].NTriples()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snaps := listFiles(t, shardDir(dir, 0), parseSnapName)
	if len(snaps) != snapshotsKept {
		t.Fatalf("snapshots = %v, want %d generations", snaps, snapshotsKept)
	}
	newest := filepath.Join(shardDir(dir, 0), snaps[len(snaps)-1])
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := recoverDir(t, testOptions(t, dir))
	if rec.Stats.SnapshotFallbacks != 1 {
		t.Errorf("snapshot fallbacks = %d, want 1", rec.Stats.SnapshotFallbacks)
	}
	if rec.Stats.Truncated {
		t.Error("fallback recovery reported truncation; the WAL should cover the gap")
	}
	got := rec.Stores[0]
	if got.Version() != 5 || got.NTriples() != want {
		t.Errorf("recovered version %d len %d, want 5 with full content — the WAL gap above the fallback snapshot must replay", got.Version(), got.Len())
	}
}

func TestSegmentRotationAndTrim(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.SegmentBytes = 64 // force rotation on nearly every append
	m, stores := startFresh(t, opts, 1)
	for i := 1; i <= 8; i++ {
		stores[0].Add(tri(i))
	}
	sdir := shardDir(dir, 0)
	if n := len(listFiles(t, sdir, parseSegName)); n < 3 {
		t.Fatalf("%d segments after 8 appends at 64-byte cap, want rotation", n)
	}
	m.CompactNow() // snapshot at 8; older retained snapshot is boot's epoch 0
	for i := 9; i <= 16; i++ {
		stores[0].Add(tri(i))
	}
	m.CompactNow() // snapshot at 16; trims the WAL below the snapshot at 8
	var below, above int
	for _, name := range listFiles(t, sdir, parseSegName) {
		if start, _ := parseSegName(name); start <= 8 {
			below++
		} else {
			above++
		}
	}
	if below > 1 || above == 0 {
		// At most the segment straddling epoch 8 may survive below the bound.
		t.Errorf("segments below snapshot bound = %d, above = %d", below, above)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec := recoverDir(t, testOptions(t, dir))
	if got := rec.Stores[0]; got.Version() != 16 || got.Len() != 16 {
		t.Errorf("recovered version %d len %d after rotation+trim, want 16/16", got.Version(), got.Len())
	}
}

func TestWriteFailureDegradesNotCrashes(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	opts := testOptions(t, dir)
	opts.FS = ffs
	opts.Sync = SyncAlways
	m, stores := startFresh(t, opts, 1)
	stores[0].Add(tri(1)) // durable
	ffs.FailWritesFrom(ffs.Writes() + 1)
	stores[0].Add(tri(2)) // append fails -> degraded, publication proceeds
	stores[0].Add(tri(3)) // degraded mode: no further disk traffic, still serves

	if !m.Degraded() {
		t.Fatal("manager not degraded after injected write failure")
	}
	st := m.Stats()
	if st.DiskErrors == 0 {
		t.Errorf("disk errors = %d, want > 0", st.DiskErrors)
	}
	if stores[0].Len() != 3 || stores[0].Version() != 3 {
		t.Errorf("in-memory store %d triples at version %d, want 3/3 — serving must continue", stores[0].Len(), stores[0].Version())
	}
	ffs.FailWritesFrom(0)
	_ = m.Close()

	// The durable prefix survives; the post-degradation suffix is lost.
	rec := recoverDir(t, testOptions(t, dir))
	if got := rec.Stores[0]; got.Version() != 1 || got.Len() != 1 {
		t.Errorf("recovered version %d len %d, want the pre-fault prefix 1/1", got.Version(), got.Len())
	}
}

func TestFsyncFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	opts := testOptions(t, dir)
	opts.FS = ffs
	opts.Sync = SyncAlways
	m, stores := startFresh(t, opts, 1)
	ffs.FailSyncs(true)
	stores[0].Add(tri(1))
	if !m.Degraded() {
		t.Fatal("manager not degraded after injected fsync failure")
	}
	ffs.FailSyncs(false)
	_ = m.Close()
}

func TestShortWriteTornRecordRecovery(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)
	opts := testOptions(t, dir)
	opts.FS = ffs
	m, stores := startFresh(t, opts, 1)
	stores[0].Add(tri(1))
	stores[0].Add(tri(2))
	ffs.ShortWriteAt(ffs.Writes() + 1)
	stores[0].Add(tri(3)) // half the frame reaches disk: a torn record
	if !m.Degraded() {
		t.Fatal("short write did not degrade the manager")
	}
	_ = m.Close()

	rec := recoverDir(t, testOptions(t, dir))
	if !rec.Stats.Truncated {
		t.Error("torn record not reported as truncation")
	}
	if got := rec.Stores[0]; got.Version() != 2 || got.Len() != 2 {
		t.Errorf("recovered version %d len %d, want the intact prefix 2/2", got.Version(), got.Len())
	}
}

func TestRestartAfterTruncationDropsUnreachableSegments(t *testing.T) {
	dir := t.TempDir()
	m, stores := startFresh(t, testOptions(t, dir), 1)
	for i := 1; i <= 6; i++ {
		stores[0].Add(tri(i))
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Corrupt an early record so replay truncates with live bytes after it.
	segs := listFiles(t, shardDir(dir, 0), parseSegName)
	seg := filepath.Join(shardDir(dir, 0), segs[0])
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[recordHeaderLen+2] ^= 0xff // inside the first record's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := recoverDir(t, testOptions(t, dir))
	if !rec.Stats.Truncated || rec.Stores[0].Version() != 0 {
		t.Fatalf("stats %+v version %d, want truncation at the first record", rec.Stats, rec.Stores[0].Version())
	}

	// Restarting over the truncated state must not let the stale bytes
	// poison the new lineage: new epochs reuse the lost version numbers.
	m2, err := Start(testOptions(t, dir), rec.Stores, false, &rec.Stats)
	if err != nil {
		t.Fatalf("Start after truncation: %v", err)
	}
	rec.Stores[0].Add(tri(100))
	rec.Stores[0].Add(tri(101))
	if err := m2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec2 := recoverDir(t, testOptions(t, dir))
	if rec2.Stats.Truncated {
		t.Error("second recovery still truncated — stale segments survived the restart")
	}
	if got := rec2.Stores[0]; got.Version() != 2 || got.Len() != 2 {
		t.Errorf("recovered version %d len %d, want the new lineage 2/2", got.Version(), got.Len())
	}
}

func TestBackgroundCompactionTriggers(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(t, dir)
	opts.Sync = SyncInterval
	opts.SyncEvery = 5 * time.Millisecond
	opts.SnapshotEvery = 4
	m, stores := startFresh(t, opts, 1)
	defer m.Close()
	for i := 1; i <= 8; i++ {
		stores[0].Add(tri(i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Snapshots == 0 || m.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background worker stalled: stats %+v", m.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m.Stats().LastSnapshotEpoch == 0 {
		t.Error("last snapshot epoch not advanced")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		got, err := ParseSyncPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestManifestShardCountSurvives(t *testing.T) {
	dir := t.TempDir()
	m, _ := startFresh(t, testOptions(t, dir), 3)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	rec := recoverDir(t, testOptions(t, dir))
	if rec.Shards != 3 {
		t.Errorf("manifest shards = %d, want 3", rec.Shards)
	}
}

// TestOldManifestFormatRefused: a data directory whose MANIFEST declares a
// format other than this build's is refused by name, and Recover reads it
// without touching a byte.
func TestOldManifestFormatRefused(t *testing.T) {
	dir := t.TempDir()
	m, stores := startFresh(t, testOptions(t, dir), 1)
	stores[0].AddAll([]rdf.Triple{tri(1), tri(2)})
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"format":1,"shards":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)
	_, err := Recover(testOptions(t, dir))
	if err == nil || !strings.Contains(err.Error(), "format 1") || !strings.Contains(err.Error(), "format 2") {
		t.Fatalf("Recover over a format-1 MANIFEST: %v, want an error naming formats 1 and 2", err)
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("refusing the directory changed it:\nbefore %v\nafter  %v", before, after)
	}
}

// dirContents maps every file under dir, by relative path, to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		out[strings.TrimPrefix(path, dir)] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
