package executor

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// testdata/differential.json freezes what the serial streaming engine answers:
// for every plan TestDifferentialRandomPlans generates (by suite, query text
// and plan) and for every hand-picked case that calls assertParity (by
// test name), the row count, a hash of the rows in order, every operator's
// ActMillis bits and ActCardinality, and all of RunStats. It was generated
// while the pre-streaming materializing engine still ran beside the streaming
// one and agreed with every entry; a hand-picked case also keeps the peak
// intermediate rows that engine held. A frozen answer is a stronger witness
// than a second engine: no later change to the executor can corrupt it.
// `go test ./internal/executor/ -update` regenerates it — the whole package,
// without -run, -short or -race, in a commit that changes nothing else.
var update = flag.Bool("update", false, "regenerate testdata/differential.json")

const fixturePath = "testdata/differential.json"

// frozenRun is one execution as the fixture stores it.
type frozenRun struct {
	Rows   int       `json:"rows"`
	Hash   string    `json:"hash"`       // rowsHash, in hex
	Millis []string  `json:"act_millis"` // every operator's ActMillis as float64 bits in hex, plan pre-order
	Cards  []float64 `json:"act_cardinality"`
	Stats  RunStats  `json:"stats"`
	// MatPeakRows is the materializing engine's PeakIntermediateRows on the
	// same plan, recorded for the hand-picked cases: the streaming engine must
	// never hold more.
	MatPeakRows int64 `json:"materializing_peak_rows,omitempty"`
}

// fixture holds the file's entries and, under -update, the runs that will
// replace them.
var fixture struct {
	once             sync.Once
	mu               sync.Mutex
	entries, updated map[string]frozenRun
	err              error
}

// frozenCheck compares a run with the fixture's entry under key and returns
// the entry with the first difference ("" when they agree). Under -update it
// records the run instead, keeping the entry's materializing peak: nothing
// can measure that again.
func frozenCheck(t *testing.T, key string, got frozenRun) (frozenRun, string) {
	t.Helper()
	fixture.once.Do(func() {
		fixture.updated = map[string]frozenRun{}
		data, err := os.ReadFile(fixturePath)
		if err == nil {
			err = json.Unmarshal(data, &fixture.entries)
		}
		fixture.err = err
	})
	if fixture.err != nil {
		t.Fatalf("%s: %v", fixturePath, fixture.err)
	}
	fixture.mu.Lock()
	defer fixture.mu.Unlock()
	want, ok := fixture.entries[key]
	if *update {
		got.MatPeakRows = want.MatPeakRows
		if prev, dup := fixture.updated[key]; dup && prev.diff(got) != "" {
			return want, "two runs of one key disagree under -update: " + prev.diff(got)
		}
		fixture.updated[key] = got
		return got, ""
	}
	if !ok {
		return want, "no entry in " + fixturePath + " (a changed generator or case needs -update)"
	}
	return want, want.diff(got)
}

// freeze reduces a run to what the fixture stores.
func freeze(r run) frozenRun {
	f := frozenRun{Rows: len(r.rows), Hash: fmt.Sprintf("%016x", rowsHash(r.rows)), Stats: r.stats}
	for _, op := range r.ops {
		f.Millis = append(f.Millis, fmt.Sprintf("%016x", math.Float64bits(op[0])))
		f.Cards = append(f.Cards, op[1])
	}
	return f
}

// rowsHash folds the rows, cell for cell and in order, into one number: every
// field of every value, so two representations of one key differ.
func rowsHash(rows []storage.Row) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(w uint64) {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	for _, row := range rows {
		word(uint64(len(row)))
		for _, v := range row {
			word(uint64(v.K))
			word(uint64(v.I))
			word(math.Float64bits(v.F))
			word(uint64(len(v.S)))
			h.Write([]byte(v.S))
		}
	}
	return h.Sum64()
}

// planKey names a plan of a query in the fixture: the suite, the query text,
// the plan's signature and the index each access reads (which the signature
// leaves out). A hand-picked case is named by its test.
func planKey(suite string, q *sqlparser.Query, plan *qgm.Plan) string {
	var idx []string
	plan.Root.Walk(func(n *qgm.Node) {
		if n.Index != "" {
			idx = append(idx, n.TableInstance+"="+n.Index)
		}
	})
	return suite + ": " + q.SQL() + " | " + plan.Signature() + " " + strings.Join(idx, ",")
}

// diff describes the first difference between a frozen run and a new one.
func (want frozenRun) diff(got frozenRun) string {
	if got.Rows != want.Rows {
		return fmt.Sprintf("%d rows, the fixture %d", got.Rows, want.Rows)
	}
	if len(got.Millis) != len(want.Millis) {
		return fmt.Sprintf("%d operators, the fixture %d", len(got.Millis), len(want.Millis))
	}
	for i := range got.Millis {
		if got.Millis[i] != want.Millis[i] || got.Cards[i] != want.Cards[i] {
			return fmt.Sprintf("operator %d (ActMillis bits, ActCardinality) = (%s, %v), the fixture (%s, %v)",
				i, got.Millis[i], got.Cards[i], want.Millis[i], want.Cards[i])
		}
	}
	if got.Stats != want.Stats {
		return fmt.Sprintf("aggregate stats %+v, the fixture %+v", got.Stats, want.Stats)
	}
	if got.Hash != want.Hash {
		return "the same number of rows, but other rows or another order than the fixture's"
	}
	return ""
}

// TestMain writes the fixture after an -update run of the whole package.
func TestMain(m *testing.M) {
	code := m.Run()
	if *update && code == 0 {
		if err := writeFixture(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

func writeFixture() error {
	if testing.Short() || raceDetector || flag.Lookup("test.run").Value.String() != "" {
		return fmt.Errorf("-update regenerates all of %s: run the whole package, without -run, -short or -race", fixturePath)
	}
	// One entry a line, keys sorted and unescaped: a regeneration diffs entry
	// by entry, and a query's text reads as written.
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	b.WriteString("{")
	for i, k := range slices.Sorted(maps.Keys(fixture.updated)) {
		if i > 0 {
			b.Truncate(b.Len() - 1) // the newline Encode ends the entry with
			b.WriteString(",")
		}
		b.WriteString("\n")
		if err := enc.Encode(k); err != nil {
			return err
		}
		b.Truncate(b.Len() - 1)
		b.WriteString(": ")
		if err := enc.Encode(fixture.updated[k]); err != nil {
			return err
		}
	}
	b.WriteString("}\n")
	return os.WriteFile(fixturePath, b.Bytes(), 0o644)
}
