package kb

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"galo/internal/qgm"
	"galo/internal/rdf"
)

// syntheticTemplate draws a template the way experiments.InflateKB does: 1-3
// joins over canonical tables with random methods and cardinality bounds, so
// that the predicates, operator types and table labels are shared by every
// template (long posting lists) while the IRIs, bounds and provenance are
// each template's own. The tables come from a pool of eight, not InflateKB's
// one per position, which has only ~2500 distinct signatures to give.
func syntheticTemplate(rng *rand.Rand, serial int) *Template {
	methods := qgm.JoinMethods()
	scans := []qgm.OpType{qgm.OpTBSCAN, qgm.OpIXSCAN, qgm.OpFETCH}
	var node *qgm.Node
	for i, joins := 0, 1+rng.Intn(3); i <= joins; i++ {
		op := scans[rng.Intn(len(scans))]
		label := fmt.Sprintf("TABLE_%d", 1+rng.Intn(8))
		leaf := &qgm.Node{Op: op, Table: label, TableInstance: label, EstCardinality: float64(10 + rng.Intn(1_000_000))}
		if op != qgm.OpTBSCAN {
			leaf.Index = fmt.Sprintf("INDEX_%d", i+1)
		}
		if node == nil {
			node = leaf
			continue
		}
		node = &qgm.Node{Op: methods[rng.Intn(len(methods))], Outer: node, Inner: leaf, EstCardinality: float64(10 + rng.Intn(1_000_000))}
	}
	problem := qgm.NewPlan(node).Root.Outer
	bounds := map[int]Range{}
	problem.Walk(func(x *qgm.Node) { bounds[x.ID] = Range{Lo: x.EstCardinality / 2, Hi: x.EstCardinality * 2} })
	return &Template{
		Problem:        problem,
		Bounds:         bounds,
		GuidelineXML:   "<OPTGUIDELINES><HSJOIN><TBSCAN TABID='TABLE_1'/><TBSCAN TABID='TABLE_2'/></HSJOIN></OPTGUIDELINES>",
		Improvement:    0.1 + rng.Float64()*0.5,
		Structural:     true,
		SourceWorkload: "synthetic",
		SourceQuery:    fmt.Sprintf("SYN.%d", serial),
	}
}

// grow adds fresh synthetic templates until the knowledge base holds n; a
// draw whose signature is already known is dropped (adding it would publish a
// merge, not a template).
func grow(tb testing.TB, k *KB, rng *rand.Rand, n int) {
	tb.Helper()
	for k.Size() < n {
		t := syntheticTemplate(rng, k.Size())
		if k.FindBySignature(t.Signature()) != nil {
			continue
		}
		if _, err := k.Add(t); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestPublicationCostIsFlat is the clock-free gate on what one publication
// copies: the bytes allocated by adding a fresh template to a 4-shard
// knowledge base must not follow the size of the knowledge base. (With
// whole-map copy-on-write they were 395 KB, 1.3 MB and 5.2 MB at the three
// sizes here: 13x over 16x of templates.)
func TestPublicationCostIsFlat(t *testing.T) {
	const adds = 64
	rng := rand.New(rand.NewSource(21))
	k := NewSharded(4)
	perAdd := map[int]uint64{}
	for _, size := range []int{256, 1024, 4096} {
		grow(t, k, rng, size)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		grow(t, k, rng, size+adds)
		runtime.ReadMemStats(&after)
		perAdd[size] = (after.TotalAlloc - before.TotalAlloc) / adds
		t.Logf("%4d templates: %d bytes allocated per Add", size, perAdd[size])
	}
	if ratio := float64(perAdd[4096]) / float64(perAdd[256]); ratio > 2 {
		t.Errorf("an Add into 4096 templates allocates %.2fx what one into 256 does (%d vs %d bytes), ceiling is 2x",
			ratio, perAdd[4096], perAdd[256])
	}
	// Measured 92 107 / 104 332 / 131 333 bytes (the same to a few bytes run
	// after run, and within 2 % under -race); 5.2 MB at 4096 before.
	const ceiling = 136_000
	if perAdd[1024] > ceiling {
		t.Errorf("an Add into 1024 templates allocates %d bytes, ceiling is %d", perAdd[1024], ceiling)
	}
}

// TestKBMemoryPerTemplate is the clock-free gate on what a knowledge base
// keeps resident: the live heap bytes per template, after a collection, of a
// 4-shard knowledge base grown to 1024 templates of experiments.InflateKB's
// shape (the cold_large_kb benchmark's).
func TestKBMemoryPerTemplate(t *testing.T) {
	const size = 1024
	before := liveHeap()
	k := NewSharded(4)
	grow(t, k, rand.New(rand.NewSource(21)), size)
	perTemplate := (int64(liveHeap()) - int64(before)) / size
	runtime.KeepAlive(k)
	t.Logf("%d templates: %d live heap bytes per template", size, perTemplate)
	// Measured 8 163 bytes, the same run after run; 11 966 while POS kept a
	// table per predicate and interned terms were substrings of whatever
	// they were parsed from.
	const ceiling = 10_600
	if perTemplate > ceiling {
		t.Errorf("a knowledge base of %d templates keeps %d bytes per template, ceiling is %d", size, perTemplate, ceiling)
	}
}

// liveHeap returns the bytes of heap objects still reachable after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkKBAdd times one Add of a fresh template into a 4-shard knowledge
// base of the given size (the base is rebuilt off the clock whenever the
// measured adds have grown it by a tenth).
func BenchmarkKBAdd(b *testing.B) {
	for _, size := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(21))
			k := NewSharded(4)
			grow(b, k, rng, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if k.Size() >= size+size/10 {
					b.StopTimer()
					k = NewSharded(4)
					grow(b, k, rng, size)
					b.StartTimer()
				}
				grow(b, k, rng, k.Size()+1)
			}
		})
	}
}

var restoredSink *rdf.Store

// BenchmarkRestoreStore times rdf.RestoreStore — the snapshot half of a cold
// boot — over the triples of a single-shard knowledge base of the given
// size, and reports the cost per triple, which a linear restore keeps level.
func BenchmarkRestoreStore(b *testing.B) {
	for _, size := range []int{1024, 4096} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			k := New()
			grow(b, k, rand.New(rand.NewSource(21)), size)
			triples, version := k.Store().Match(nil, nil, nil), k.Store().Version()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				restoredSink = rdf.RestoreStore(triples, version)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(triples)), "ns/triple")
		})
	}
}

var dumpSink string

// BenchmarkKBNTriples times NTriples of a 4-shard knowledge base of 1024
// templates and reports the cost per triple.
func BenchmarkKBNTriples(b *testing.B) {
	k := NewSharded(4)
	grow(b, k, rand.New(rand.NewSource(21)), 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dumpSink = k.NTriples()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k.Triples()), "ns/triple")
}

var loadedSink *KB

// BenchmarkKBLoadNTriples times LoadNTriples of that knowledge base's dump
// into an empty 4-shard knowledge base (kb) beside rdf.Store.LoadNTriples of
// the same text (store), the parse and insert it cannot do without, and
// reports the cost per triple of each.
func BenchmarkKBLoadNTriples(b *testing.B) {
	src := NewSharded(4)
	grow(b, src, rand.New(rand.NewSource(21)), 1024)
	dump, triples := src.NTriples(), src.Triples()
	b.Run("kb", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			loadedSink = NewSharded(4)
			if err := loadedSink.LoadNTriples(dump); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(triples), "ns/triple")
	})
	b.Run("store", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			restoredSink = rdf.NewStore()
			if err := restoredSink.LoadNTriples(dump); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(triples), "ns/triple")
	})
}
