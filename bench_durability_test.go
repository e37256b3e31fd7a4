// Durability benchmark: what the write-ahead log costs on the publication
// path and what recovery costs at boot. Measures per-publication latency
// (KB epoch publication = template Add) in-memory vs WAL sync=interval vs
// sync=always, and data-directory recovery time against knowledge base
// size. TestEmitBenchDurabilityJSON writes BENCH_durability.json, the
// trajectory file CI uploads; it also gates the overhead claim: with
// sync=interval the WAL append is off the fsync path, so it must add no
// more than 10% to publication p50 (an epsilon absorbs timer granularity).
package galo_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"galo"
	"galo/internal/kb"
	"galo/internal/qgm"
	"galo/internal/workload/tpcds"
)

var durabilityFixture struct {
	once sync.Once
	err  error
	db   *galo.Database
}

// durabilityDB returns a small schema-only database; publication and
// recovery latency do not depend on table contents.
func durabilityDB(tb testing.TB) *galo.Database {
	tb.Helper()
	durabilityFixture.once.Do(func() {
		durabilityFixture.db, durabilityFixture.err =
			tpcds.Generate(tpcds.GenOptions{Seed: 7, Scale: 0.02})
	})
	if durabilityFixture.err != nil {
		tb.Fatal(durabilityFixture.err)
	}
	return durabilityFixture.db
}

// durTemplate builds a small distinct template, the unit of incremental
// epoch publication (mirrors the core test fixture).
func durTemplate(i int) *kb.Template {
	outer := &qgm.Node{Op: qgm.OpTBSCAN, Table: fmt.Sprintf("DUR_A%d", i), TableInstance: fmt.Sprintf("DUR_A%d", i), EstCardinality: 1000}
	inner := &qgm.Node{Op: qgm.OpIXSCAN, Table: fmt.Sprintf("DUR_B%d", i), TableInstance: fmt.Sprintf("DUR_B%d", i), Index: "IX", EstCardinality: 50}
	join := &qgm.Node{Op: qgm.OpHSJOIN, Outer: outer, Inner: inner, EstCardinality: 5000}
	plan := qgm.NewPlan(join)
	problem := plan.Root.Outer
	bounds := map[int]kb.Range{}
	problem.Walk(func(n *qgm.Node) {
		bounds[n.ID] = kb.Range{Lo: n.EstCardinality / 10, Hi: n.EstCardinality * 10}
	})
	return &kb.Template{
		Problem:      problem,
		Bounds:       bounds,
		GuidelineXML: "<OPTGUIDELINES><HSJOIN><TBSCAN TABID='TABLE_1'/><TBSCAN TABID='TABLE_2'/></HSJOIN></OPTGUIDELINES>",
		Improvement:  0.3,
		Structural:   true,
	}
}

// publicationRow is one publication-latency entry in BENCH_durability.json.
type publicationRow struct {
	Mode         string  `json:"mode"` // "memory", "wal-interval", "wal-always"
	Publications int     `json:"publications"`
	P50Millis    float64 `json:"publish_p50_ms"`
	P99Millis    float64 `json:"publish_p99_ms"`
	Fsyncs       uint64  `json:"fsyncs"`
}

// measurePublication times n epoch publications under cfg and returns the
// latency percentiles plus how many fsyncs the WAL issued on that path.
func measurePublication(tb testing.TB, cfg galo.Config, mode string, n int) publicationRow {
	tb.Helper()
	sys := galo.NewSystem(durabilityDB(tb), cfg)
	defer sys.Close()
	if cfg.DataDir != "" {
		if _, err := sys.OpenDataDir(); err != nil {
			tb.Fatal(err)
		}
	}
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		tmpl := durTemplate(i)
		t0 := time.Now()
		if _, err := sys.KB().Add(tmpl); err != nil {
			tb.Fatal(err)
		}
		lat = append(lat, float64(time.Since(t0).Microseconds())/1000)
	}
	row := publicationRow{
		Mode:         mode,
		Publications: n,
		P50Millis:    percentile(lat, 0.50),
		P99Millis:    percentile(lat, 0.99),
	}
	if st := sys.PersistStats(); st != nil {
		row.Fsyncs = st.Fsyncs
	}
	return row
}

// recoveryRow is one boot-recovery entry in BENCH_durability.json.
type recoveryRow struct {
	Templates       int     `json:"templates"`
	RecordsReplayed int64   `json:"records_replayed"`
	RecoveryMillis  float64 `json:"recovery_ms"`
}

// measureRecovery populates a data directory with `templates` publications
// (all on the WAL tail — below the snapshot threshold), then times a cold
// OpenDataDir over it.
func measureRecovery(tb testing.TB, templates int) recoveryRow {
	tb.Helper()
	dir := tb.TempDir()
	cfg := galo.DefaultConfig()
	cfg.Shards = 2
	cfg.DataDir = dir
	writer := galo.NewSystem(durabilityDB(tb), cfg)
	if _, err := writer.OpenDataDir(); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < templates; i++ {
		if _, err := writer.KB().Add(durTemplate(i)); err != nil {
			tb.Fatal(err)
		}
	}
	writer.Close()

	reader := galo.NewSystem(durabilityDB(tb), cfg)
	defer reader.Close()
	t0 := time.Now()
	info, err := reader.OpenDataDir()
	if err != nil {
		tb.Fatal(err)
	}
	elapsed := time.Since(t0)
	if !info.Recovered || info.Templates != templates {
		tb.Fatalf("recovered %+v, want %d templates", info, templates)
	}
	return recoveryRow{
		Templates:       templates,
		RecordsReplayed: info.Stats.RecordsReplayed,
		RecoveryMillis:  float64(elapsed.Microseconds()) / 1000,
	}
}

// publicationSizeRow is one entry of BENCH_durability.json's
// publication_vs_kb_size section: what one more template costs a knowledge
// base that already holds Templates.
type publicationSizeRow struct {
	Templates   int     `json:"templates"`
	AddMicros   float64 `json:"add_us_p50"`
	BytesPerAdd uint64  `json:"bytes_per_add"`
}

// measurePublicationAtSizes grows one in-memory knowledge base through the
// given sizes and, at each, times 64 further Adds (their median) and counts
// the bytes they allocate (TotalAlloc, exact).
func measurePublicationAtSizes(tb testing.TB, cfg galo.Config, sizes []int) []publicationSizeRow {
	tb.Helper()
	const adds = 64
	sys := galo.NewSystem(durabilityDB(tb), cfg)
	defer sys.Close()
	next := 0
	add := func() {
		if _, err := sys.KB().Add(durTemplate(next)); err != nil {
			tb.Fatal(err)
		}
		next++
	}
	var rows []publicationSizeRow
	for _, size := range sizes {
		for sys.KB().Size() < size {
			add()
		}
		lat := make([]float64, 0, adds)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < adds; i++ {
			t0 := time.Now()
			add()
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1000)
		}
		runtime.ReadMemStats(&after)
		sort.Float64s(lat)
		rows = append(rows, publicationSizeRow{
			Templates:   size,
			AddMicros:   lat[adds/2],
			BytesPerAdd: (after.TotalAlloc - before.TotalAlloc) / adds,
		})
	}
	return rows
}

// BenchmarkPublicationWALInterval reports ns/publication with the WAL on the
// default sync=interval policy (go test -bench).
func BenchmarkPublicationWALInterval(b *testing.B) {
	cfg := galo.DefaultConfig()
	cfg.Shards = 2
	cfg.DataDir = b.TempDir()
	sys := galo.NewSystem(durabilityDB(b), cfg)
	defer sys.Close()
	if _, err := sys.OpenDataDir(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.KB().Add(durTemplate(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEmitBenchDurabilityJSON measures publication latency under the three
// durability modes and recovery time against knowledge base size, and
// records them in BENCH_durability.json. It only runs when GALO_BENCH_JSON=1
// (CI's benchmark job sets it) so a plain `go test ./...` stays hermetic. It
// fails when the interval-sync WAL append adds more than 10% to publication
// p50 over the in-memory baseline — the append is a buffered write off the
// fsync path, and this gate keeps it there.
func TestEmitBenchDurabilityJSON(t *testing.T) {
	if os.Getenv("GALO_BENCH_JSON") == "" {
		t.Skip("set GALO_BENCH_JSON=1 to (re)write BENCH_durability.json")
	}
	const publications = 512
	memCfg := galo.DefaultConfig()
	memCfg.Shards = 2
	intervalCfg := memCfg
	intervalCfg.DataDir = t.TempDir() // Sync zero value = interval
	alwaysCfg := memCfg
	alwaysCfg.DataDir = t.TempDir()
	alwaysCfg.Sync, _ = galo.ParseSyncPolicy("always")

	// Warm-up pass absorbs one-time costs (page cache, allocator growth)
	// before the measured comparison.
	measurePublication(t, memCfg, "warmup", 64)

	pubRows := []publicationRow{
		measurePublication(t, memCfg, "memory", publications),
		measurePublication(t, intervalCfg, "wal-interval", publications),
		measurePublication(t, alwaysCfg, "wal-always", publications),
	}
	for _, r := range pubRows {
		t.Logf("%-12s publish p50 %.3f ms, p99 %.3f ms, %d fsyncs", r.Mode, r.P50Millis, r.P99Millis, r.Fsyncs)
	}

	const epsilonMillis = 0.05 // timer granularity at microsecond scale
	mem, interval := pubRows[0], pubRows[1]
	if interval.P50Millis > 1.10*mem.P50Millis+epsilonMillis {
		t.Errorf("sync=interval publication p50 (%.3f ms) exceeds the in-memory baseline (%.3f ms) by more than 10%%",
			interval.P50Millis, mem.P50Millis)
	}

	sizeRows := measurePublicationAtSizes(t, memCfg, []int{64, 256, 1024, 4096})
	for _, r := range sizeRows {
		t.Logf("Add into %4d templates: p50 %.0f us, %d bytes", r.Templates, r.AddMicros, r.BytesPerAdd)
	}

	var recRows []recoveryRow
	for _, size := range []int{64, 256, 1024, 4096} {
		r := measureRecovery(t, size)
		recRows = append(recRows, r)
		t.Logf("recovery of %4d templates: %.1f ms (%d WAL records replayed)", r.Templates, r.RecoveryMillis, r.RecordsReplayed)
	}

	doc := map[string]any{
		"benchmark":              "knowledge base durability: WAL publication overhead and boot recovery time",
		"note":                   "publish_* is the latency of one epoch publication (template Add) at the knowledge base API: mode memory has no data dir; wal-interval appends to the WAL with batched fsync (the default serve policy); wal-always fsyncs every record before the publication returns. The gate: wal-interval p50 stays within 10% of memory. publication_vs_kb_size grows one in-memory 2-shard knowledge base and, at each size, reports the median time of 64 further Adds and the bytes they allocate (TotalAlloc; exact, clock-free). recovery rows time a cold OpenDataDir; records_replayed shows how background snapshot compaction bounds the replay tail as the knowledge base grows. before = this test on commit fbd3d8a (every publication copied its shard's index maps and term dictionary whole), the two test binaries run alternately on the same machine, the middle of three emissions by the 4096-template recovery row (2418 / 2626 / 2810 ms before, 320 / 332 / 342 ms after; the rows of this file are a later emission of the same code, the middle of three again). records_replayed differs between the two because the snapshotter runs in the background: a writer that publishes 15x faster leaves a longer tail behind it. The publications are the same durTemplate every time (equal cardinalities, so a few posting lists hold every template), which is the store's worst case for one list and its best for the dictionary. before_pr38 = this test on commit 9884ebf, where POS kept one table per predicate instead of one keyed by object and interned terms were substrings of what they were parsed from: the two test binaries run alternately, five emissions each, the middle one by the 4096-template recovery row (344 / 517 / 527 / 806 / 832 ms before, 385 / 518 / 543 / 732 / 1054 ms after, which is noise on this machine); bytes_per_add fell by some 17.5 KB at every size, the same in every emission. The rows of this file are the middle of three later emissions of the same code.",
		"env":                    benchEnv(),
		"publication":            pubRows,
		"publication_vs_kb_size": sizeRows,
		"recovery":               recRows,
		"before": map[string]any{
			"publication":            durabilityBefore.publication,
			"publication_vs_kb_size": durabilityBefore.sizes,
			"recovery":               durabilityBefore.recovery,
		},
		"before_pr38": map[string]any{
			"publication":            durabilityBeforePR38.publication,
			"publication_vs_kb_size": durabilityBeforePR38.sizes,
			"recovery":               durabilityBeforePR38.recovery,
		},
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_durability.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote BENCH_durability.json:\n%s", data)
}

// durabilityRows is one emission's three tables.
type durabilityRows struct {
	publication []publicationRow
	sizes       []publicationSizeRow
	recovery    []recoveryRow
}

// durabilityBeforePR38 is TestEmitBenchDurabilityJSON on the parent of PR 38
// (see the note it is emitted with).
var durabilityBeforePR38 = durabilityRows{
	publication: []publicationRow{
		{Mode: "memory", Publications: 512, P50Millis: 0.021, P99Millis: 0.157, Fsyncs: 0},
		{Mode: "wal-interval", Publications: 512, P50Millis: 0.024, P99Millis: 0.284, Fsyncs: 0},
		{Mode: "wal-always", Publications: 512, P50Millis: 0.065, P99Millis: 0.664, Fsyncs: 512},
	},
	sizes: []publicationSizeRow{
		{Templates: 64, AddMicros: 23.114, BytesPerAdd: 65332},
		{Templates: 256, AddMicros: 22.103, BytesPerAdd: 70441},
		{Templates: 1024, AddMicros: 17.226, BytesPerAdd: 82446},
		{Templates: 4096, AddMicros: 103.335, BytesPerAdd: 144138},
	},
	recovery: []recoveryRow{
		{Templates: 64, RecordsReplayed: 64, RecoveryMillis: 94.655},
		{Templates: 256, RecordsReplayed: 70, RecoveryMillis: 208.258},
		{Templates: 1024, RecordsReplayed: 641, RecoveryMillis: 222.817},
		{Templates: 4096, RecordsReplayed: 764, RecoveryMillis: 527.316},
	},
}

// durabilityBefore is TestEmitBenchDurabilityJSON on the parent of PR 21 (see
// the note it is emitted with).
var durabilityBefore = durabilityRows{
	publication: []publicationRow{
		{Mode: "memory", Publications: 512, P50Millis: 0.558, P99Millis: 4.778, Fsyncs: 0},
		{Mode: "wal-interval", Publications: 512, P50Millis: 0.59, P99Millis: 4.725, Fsyncs: 4},
		{Mode: "wal-always", Publications: 512, P50Millis: 0.819, P99Millis: 7.878, Fsyncs: 512},
	},
	sizes: []publicationSizeRow{
		{Templates: 64, AddMicros: 221.651, BytesPerAdd: 263228},
		{Templates: 256, AddMicros: 506.119, BytesPerAdd: 811335},
		{Templates: 1024, AddMicros: 2257.048, BytesPerAdd: 3279971},
		{Templates: 4096, AddMicros: 13186.51, BytesPerAdd: 12961915},
	},
	recovery: []recoveryRow{
		{Templates: 64, RecordsReplayed: 64, RecoveryMillis: 13.669},
		{Templates: 256, RecordsReplayed: 77, RecoveryMillis: 70.622},
		{Templates: 1024, RecordsReplayed: 129, RecoveryMillis: 452.054},
		{Templates: 4096, RecordsReplayed: 157, RecoveryMillis: 2625.873},
	},
}
