package main

import (
	"bytes"
	"testing"

	"galo/internal/sqlparser"
	"galo/internal/workload/tpcds"
)

// bodies concatenates the first n request bodies of a stream.
func bodies(reqs stream, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		b.Write(reqs(i).body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	db, err := tpcds.Generate(tpcds.GenOptions{Seed: fixtureSeed, Scale: 0.02, Hazards: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		make func(seed int64) stream
	}{
		{"routinized", func(seed int64) stream { return cycle(seed, routinizedPool()) }},
		{"cold_large_kb", coldStream},
		{"execute_validate", func(seed int64) stream { return cycle(seed, executePool(db)) }},
	} {
		a, again, b := bodies(tc.make(1), 3000), bodies(tc.make(1), 3000), bodies(tc.make(2), 3000)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: the same seed gave two different request sequences", tc.name)
		}
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same request sequence", tc.name)
		}
	}
}

func TestRoutinizedPoolIsStratifiedByJoinCount(t *testing.T) {
	pool := routinizedPool()
	for seed := int64(1); seed <= 3; seed++ {
		byJoins := map[int]int{}
		texts := map[string]bool{}
		for _, req := range pool {
			q, err := sqlparser.Parse(req.sql)
			if err != nil {
				t.Fatalf("seed %d: %s does not parse: %v", seed, req.name, err)
			}
			if got := len(q.From) - 1; got != req.joins {
				t.Errorf("seed %d: %s joins %d tables but is labelled %d joins", seed, req.name, len(q.From), req.joins)
			}
			byJoins[req.joins]++
			texts[req.sql] = true
		}
		if len(texts) != len(pool) {
			t.Errorf("seed %d: pool repeats a SQL text", seed)
		}
		want := map[int]int{1: 4, 2: 8, 3: 20, 4: 8}
		for joins, n := range want {
			if byJoins[joins] != n {
				t.Errorf("seed %d: %d queries with %d joins, want %d", seed, byJoins[joins], joins, n)
			}
		}
		// Every cycle of the stream holds every pool query exactly once.
		reqs := cycle(seed, pool)
		for c := 0; c < 3; c++ {
			seen := map[string]bool{}
			for i := 0; i < len(pool); i++ {
				seen[reqs(c*len(pool)+i).name] = true
			}
			if len(seen) != len(pool) {
				t.Errorf("seed %d: cycle %d holds %d distinct queries, want %d", seed, c, len(seen), len(pool))
			}
		}
	}
}

func TestColdStreamNeverRepeatsAndParses(t *testing.T) {
	reqs := coldStream(7)
	seen := map[string]bool{}
	for i := 0; i < 20000; i++ {
		req := reqs(i)
		if seen[req.sql] {
			t.Fatalf("request %d repeats an earlier SQL text: %s", i, req.sql)
		}
		seen[req.sql] = true
		if i < 200 {
			q, err := sqlparser.Parse(req.sql)
			if err != nil {
				t.Fatalf("request %d does not parse: %v\n%s", i, err, req.sql)
			}
			if got := len(q.From) - 1; got != req.joins {
				t.Errorf("request %d joins %d tables but is labelled %d joins", i, len(q.From), req.joins)
			}
		}
	}
}

func TestPublishTemplatesAreDistinctAndRepeatable(t *testing.T) {
	sigs := map[string]bool{}
	for i := 0; i < 500; i++ {
		a, b := publishTemplate(3, i), publishTemplate(3, i)
		if a.Signature() != b.Signature() || a.Improvement != b.Improvement {
			t.Fatalf("publication %d is not a function of (seed, i)", i)
		}
		if sigs[a.Signature()] {
			t.Fatalf("publication %d repeats an earlier signature", i)
		}
		sigs[a.Signature()] = true
	}
}
