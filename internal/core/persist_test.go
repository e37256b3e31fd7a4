package core

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"galo/internal/wal"
)

// durableConfig returns a Config with persistence into dir and cheap
// learning knobs; SyncAlways keeps every test publication durable without
// timing games.
func durableConfig(dir string, shards int) Config {
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.DataDir = dir
	cfg.Sync = wal.SyncAlways
	return cfg
}

// TestDataDirRestartContinuesEpochLineage pins the acceptance contract at
// the core layer: a system restarted over the same data directory serves the
// same templates at the SAME per-shard epoch vector, and new publications
// continue the lineage instead of restarting it.
func TestDataDirRestartContinuesEpochLineage(t *testing.T) {
	dir := t.TempDir()
	db := coreDBForConfig(t)

	sys := NewSystem(db, durableConfig(dir, 2))
	if info, err := sys.OpenDataDir(); err != nil || info == nil || info.Recovered {
		t.Fatalf("fresh OpenDataDir: info=%+v err=%v", info, err)
	}
	for i := 0; i < 6; i++ {
		if _, err := sys.KB().Add(syntheticTemplate(i)); err != nil {
			t.Fatal(err)
		}
	}
	wantSize := sys.KB().Size()
	wantEpochs := sys.KB().Epochs()
	wantNT := sys.KB().NTriples()
	sys.Close()

	again := NewSystem(db, durableConfig(dir, 2))
	info, err := again.OpenDataDir()
	if err != nil {
		t.Fatalf("recovering OpenDataDir: %v", err)
	}
	defer again.Close()
	if !info.Recovered || info.Rerouted {
		t.Fatalf("info = %+v, want recovered without re-routing", info)
	}
	if info.Templates != wantSize {
		t.Errorf("recovered %d templates, want %d", info.Templates, wantSize)
	}
	if !reflect.DeepEqual(again.KB().Epochs(), wantEpochs) {
		t.Errorf("epoch vector %v, want the pre-shutdown %v", again.KB().Epochs(), wantEpochs)
	}
	if again.KB().NTriples() != wantNT {
		t.Error("recovered knowledge base content diverged")
	}

	// The lineage continues: one more publication moves exactly one shard's
	// epoch forward from the recovered vector.
	if _, err := again.KB().Add(syntheticTemplate(100)); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, e := range again.KB().Epochs() {
		if e < wantEpochs[i] {
			t.Errorf("shard %d epoch went backwards: %d < %d", i, e, wantEpochs[i])
		}
		if e > wantEpochs[i] {
			moved++
		}
	}
	if moved != 1 {
		t.Errorf("%d shards moved after one publication, want 1", moved)
	}
}

// TestDataDirShardCountChangeReroutes pins the fallback: a data directory
// written under one shard count boots under another by re-routing every
// template (content survives; the epoch lineage restarts), and the re-routed
// directory adopts cleanly on the next restart.
func TestDataDirShardCountChangeReroutes(t *testing.T) {
	dir := t.TempDir()
	db := coreDBForConfig(t)

	sys := NewSystem(db, durableConfig(dir, 4))
	if _, err := sys.OpenDataDir(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := sys.KB().Add(syntheticTemplate(i)); err != nil {
			t.Fatal(err)
		}
	}
	wantSize := sys.KB().Size()
	sys.Close()

	narrow := NewSystem(db, durableConfig(dir, 2))
	info, err := narrow.OpenDataDir()
	if err != nil {
		t.Fatalf("OpenDataDir across shard-count change: %v", err)
	}
	if !info.Recovered || !info.Rerouted {
		t.Fatalf("info = %+v, want recovered with re-routing", info)
	}
	if narrow.KB().Size() != wantSize {
		t.Errorf("re-routed KB holds %d templates, want %d", narrow.KB().Size(), wantSize)
	}
	if narrow.KB().Shards() != 2 {
		t.Errorf("re-routed KB has %d shards, want 2", narrow.KB().Shards())
	}
	narrow.Close()

	// Third boot, same shard count: straight adoption, no re-route.
	final := NewSystem(db, durableConfig(dir, 2))
	info, err = final.OpenDataDir()
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if !info.Recovered || info.Rerouted {
		t.Fatalf("info = %+v, want clean adoption after the re-routed generation", info)
	}
	if final.KB().Size() != wantSize {
		t.Errorf("final KB holds %d templates, want %d", final.KB().Size(), wantSize)
	}
}

// TestLoadKBRebindsDataDir pins the replacement contract: LoadKB over an
// open data directory wipes the old generation and persists the loaded
// knowledge base, so a restart recovers the REPLACEMENT, not the past.
func TestLoadKBRebindsDataDir(t *testing.T) {
	db := coreDBForConfig(t)

	// A throwaway in-memory system produces the KB file to load.
	donor := NewSystem(db, DefaultConfig())
	for i := 50; i < 53; i++ {
		if _, err := donor.KB().Add(syntheticTemplate(i)); err != nil {
			t.Fatal(err)
		}
	}
	kbFile := filepath.Join(t.TempDir(), "donor.nt")
	if err := donor.SaveKB(kbFile); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sys := NewSystem(db, durableConfig(dir, 2))
	if _, err := sys.OpenDataDir(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.KB().Add(syntheticTemplate(1)); err != nil { // pre-LoadKB generation
		t.Fatal(err)
	}
	if err := sys.LoadKB(kbFile); err != nil {
		t.Fatalf("LoadKB over an open data dir: %v", err)
	}
	if _, err := sys.KB().Add(syntheticTemplate(60)); err != nil { // post-LoadKB publication
		t.Fatal(err)
	}
	wantSize := sys.KB().Size()
	wantEpochs := sys.KB().Epochs()
	sys.Close()

	again := NewSystem(db, durableConfig(dir, 2))
	info, err := again.OpenDataDir()
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if info.Templates != wantSize {
		t.Errorf("recovered %d templates, want the replacement generation's %d", info.Templates, wantSize)
	}
	if !reflect.DeepEqual(again.KB().Epochs(), wantEpochs) {
		t.Errorf("epoch vector %v, want %v", again.KB().Epochs(), wantEpochs)
	}
	if again.KB().FindBySignature(syntheticTemplate(1).Problem.Signature()) != nil {
		t.Error("pre-LoadKB template survived the rebind — the old generation leaked")
	}
	if again.KB().FindBySignature(syntheticTemplate(50).Problem.Signature()) == nil {
		t.Error("donor template missing after rebound restart")
	}
	if again.KB().FindBySignature(syntheticTemplate(60).Problem.Signature()) == nil {
		t.Error("post-LoadKB publication missing after restart")
	}
}

// TestPersistenceDegradesButServes pins the fault contract: a disk failure
// mid-serving flips the system to in-memory mode — publications and matching
// keep working, /healthz reports degraded (still 200), /stats counts the
// errors — instead of failing writes or crashing.
func TestPersistenceDegradesButServes(t *testing.T) {
	dir := t.TempDir()
	db := coreDBForConfig(t)
	ffs := wal.NewFaultFS(nil)
	cfg := durableConfig(dir, 2)
	cfg.WALFS = ffs
	sys := NewSystem(db, cfg)
	if _, err := sys.OpenDataDir(); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.KB().Add(syntheticTemplate(0)); err != nil {
		t.Fatal(err)
	}
	if sys.PersistStats().Degraded {
		t.Fatal("degraded before any fault")
	}

	ffs.FailWritesFrom(ffs.Writes() + 1)
	if _, err := sys.KB().Add(syntheticTemplate(1)); err != nil {
		t.Fatalf("publication failed under disk fault: %v", err)
	}
	if !sys.PersistStats().Degraded {
		t.Fatal("disk fault did not degrade persistence")
	}
	if _, err := sys.KB().Add(syntheticTemplate(2)); err != nil {
		t.Fatalf("degraded-mode publication failed: %v", err)
	}
	if sys.KB().Size() != 3 {
		t.Errorf("KB size %d, want 3 — serving must continue in-memory", sys.KB().Size())
	}

	srv := httptest.NewServer(sys.APIHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d while degraded, want 200 (still serving)", resp.StatusCode)
	}
	var health struct {
		Status      string `json:"status"`
		Persistence string `json:"persistence"`
		Draining    bool   `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Persistence != "degraded" || health.Draining {
		t.Errorf("healthz = %+v, want degraded persistence, not draining", health)
	}

	stats, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer stats.Body.Close()
	var body struct {
		Durability *struct {
			Degraded   bool   `json:"degraded"`
			DiskErrors uint64 `json:"disk_errors"`
			WALAppends uint64 `json:"wal_appends"`
		} `json:"durability"`
	}
	if err := json.NewDecoder(stats.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Durability == nil {
		t.Fatal("/stats has no durability section with an open data dir")
	}
	if !body.Durability.Degraded || body.Durability.DiskErrors == 0 || body.Durability.WALAppends == 0 {
		t.Errorf("durability = %+v, want degraded with counted errors and pre-fault appends", body.Durability)
	}
}

// TestGracefulShutdownDrains pins the lifecycle satellite: Shutdown flips
// the drain gate (503 + Retry-After for everything but /healthz), drains the
// tracked server, and Serve returns nil.
func TestGracefulShutdownDrains(t *testing.T) {
	db := coreDBForConfig(t)
	sys := NewSystem(db, DefaultConfig())

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- sys.ServeListener(l) }()
	base := "http://" + l.Addr().String()

	waitUp := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				resp.Body.Close()
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("server never came up: %v", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitUp()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeListener returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeListener did not return after Shutdown")
	}

	// The drain gate outlives the listener: a second handler surface (e.g.
	// httptest against APIHandler) now answers 503 everywhere but /healthz.
	srv := httptest.NewServer(sys.APIHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/version while draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain rejection carries no Retry-After")
	}
	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz while draining: %d, want 503 so balancers stop routing", hz.StatusCode)
	}
	var health struct {
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.Draining {
		t.Error("healthz does not report draining")
	}
}

// TestSnapshotEveryCountsTripleChanges pins the unit of Config.SnapshotEvery
// (and of `serve -snapshot-every`): effective triple changes, not
// publications. A store's version advances by the number of triples a
// publication changed — dozens per template — so k publications under
// SnapshotEvery n snapshot about triples/n times, far more often than k/n.
func TestSnapshotEveryCountsTripleChanges(t *testing.T) {
	const every, k = 100, 24
	cfg := durableConfig(t.TempDir(), 1)
	cfg.SnapshotEvery = every
	sys := NewSystem(coreDBForConfig(t), cfg)
	if _, err := sys.OpenDataDir(); err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	base := sys.PersistStats().Snapshots
	start := sys.KB().Epochs()[0]
	// The trigger: a shard compacts once `every` triple changes have
	// accumulated since its last snapshot. Waiting out each compaction before
	// the next publication makes the count a function of the versions alone.
	lastSnap, want, largest := start, uint64(0), uint64(0)
	for i := 0; i < k; i++ {
		before := sys.KB().Epochs()[0]
		if _, err := sys.KB().Add(syntheticTemplate(i)); err != nil {
			t.Fatal(err)
		}
		version := sys.KB().Epochs()[0]
		if version-before > largest {
			largest = version - before
		}
		if version-lastSnap < every {
			continue
		}
		want++
		prevSnap := lastSnap
		lastSnap = version
		deadline := time.Now().Add(5 * time.Second)
		for sys.PersistStats().Snapshots < base+want {
			if time.Now().After(deadline) {
				t.Fatalf("publication %d took the shard to version %d, %d triple changes past its last snapshot at %d, and no snapshot followed: %+v",
					i, version, version-prevSnap, prevSnap, sys.PersistStats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	changed := sys.KB().Epochs()[0] - start
	got := sys.PersistStats().Snapshots - base
	t.Logf("%d publications changed %d triples: %d snapshots at SnapshotEvery %d", k, changed, got, every)
	if got != want {
		t.Errorf("%d snapshots, want %d", got, want)
	}
	// floor(changed / every), less what each snapshot overshoots its threshold
	// by (under one publication's worth) — and nowhere near floor(k / every).
	if hi, lo := changed/every, changed/(every+largest); got > hi || got < lo {
		t.Errorf("%d snapshots over %d triple changes at SnapshotEvery %d (largest publication %d): want between %d and %d",
			got, changed, every, largest, lo, hi)
	}
	if got <= k/every {
		t.Errorf("%d snapshots over %d publications: SnapshotEvery %d is being counted in publications", got, k, every)
	}
}

// TestOldDataDirFormatRefused: OpenDataDir refuses a data directory whose
// MANIFEST declares an older on-disk format, naming both formats, and leaves
// every byte of it as it was.
func TestOldDataDirFormatRefused(t *testing.T) {
	dir := t.TempDir()
	db := coreDBForConfig(t)
	sys := NewSystem(db, durableConfig(dir, 1))
	if _, err := sys.OpenDataDir(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.KB().Add(syntheticTemplate(0)); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(`{"format":1,"shards":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	before := treeBytes(t, dir)

	again := NewSystem(db, durableConfig(dir, 1))
	defer again.Close()
	_, err := again.OpenDataDir()
	if err == nil || !strings.Contains(err.Error(), "format 1") || !strings.Contains(err.Error(), "format 2") {
		t.Fatalf("OpenDataDir over a format-1 MANIFEST: %v, want an error naming formats 1 and 2", err)
	}
	if after := treeBytes(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("refusing the data dir changed it:\nbefore %v\nafter  %v", before, after)
	}
}

// treeBytes maps every file under dir, by path, to its bytes.
func treeBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		out[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
