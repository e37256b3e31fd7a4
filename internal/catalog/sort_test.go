package catalog

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The generator behind TestSortKernelMatchesStableSort and FuzzSortKernel: a
// table of rows whose columns each draw from one value family, over domains
// small enough that most keys tie with others. NULLs appear in every family.
const (
	famInt   = iota
	famFloat // −0, +0, infinities, fractions
	famDate
	famBool
	famBeyond53 // integers beyond 2^53, which Compare ties as floats, beside floats
	famNumeric  // every numeric kind in one column
	famString
	famNaN             // floats with a NaN now and then: Compare ties it with everything
	famStringAndNumber // strings beside numbers: Compare orders them by their text
	families
)

// genValue draws a value of the family. An integer is offset plus a small
// number: the offset decides which bytes of the column's words differ, and so
// how many passes the radix sort makes.
func genValue(r *rand.Rand, fam int, offset int64) Value {
	if r.Intn(8) == 0 {
		return Null()
	}
	switch fam {
	case famInt:
		return Int(offset + int64(r.Intn(9)-4))
	case famFloat:
		return Float([]float64{math.Copysign(0, -1), 0, 0.5, -0.5, 1, -2.25, math.Inf(1), math.Inf(-1), 1e300}[r.Intn(9)])
	case famDate:
		return DateFromDays(int64(18000 + r.Intn(6)))
	case famBool:
		return Bool(r.Intn(2) == 0)
	case famBeyond53:
		if r.Intn(3) == 0 {
			return Float(1 << 53)
		}
		return Int(1<<53 + int64(r.Intn(4)) - 1)
	case famNumeric:
		return genValue(r, r.Intn(famBeyond53+1), offset)
	case famString:
		return String([]string{"", "a", "ab", "b", "B", "10", "9"}[r.Intn(7)])
	case famNaN:
		if r.Intn(10) == 0 {
			return Float(math.NaN())
		}
		return genValue(r, famFloat, offset)
	default: // famStringAndNumber
		if r.Intn(2) == 0 {
			return genValue(r, famString, offset)
		}
		return genValue(r, famInt, offset)
	}
}

// sortCase is one generated input: rows of ncols values, and tuples — row
// numbers, repeats allowed, as a join emits them — to sort on key, a list of
// column numbers.
type sortCase struct {
	rows   [][]Value
	tuples []int
	key    []int
}

func genSortCase(seed int64, n, ncols int) sortCase {
	r := rand.New(rand.NewSource(seed))
	fams, offsets := make([]int, ncols), make([]int64, ncols)
	for c := range fams {
		// The two families that fall back are drawn less often, so that most
		// cases take the kernel's own path.
		if fams[c] = r.Intn(families + 6); fams[c] >= families {
			fams[c] = famInt + fams[c] - families
		}
		offsets[c] = r.Int63n(1 << r.Intn(60))
	}
	sc := sortCase{rows: make([][]Value, n), tuples: make([]int, n)}
	for i := range sc.rows {
		sc.rows[i] = make([]Value, ncols)
		for c := range sc.rows[i] {
			sc.rows[i][c] = genValue(r, fams[c], offsets[c])
		}
	}
	for i := range sc.tuples {
		sc.tuples[i] = r.Intn(n)
	}
	sc.key = make([]int, 1+r.Intn(ncols))
	for i := range sc.key {
		sc.key[i] = r.Intn(ncols)
	}
	return sc
}

// identical reports whether two values are the same in every field, floats
// by their bits.
func identical(a, b Value) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// keyEntry is an index entry as storage builds it.
type keyEntry struct {
	key   []Value
	rowID int
}

// compareValueKeys is storage's compareKeys.
func compareValueKeys(a, b []Value) int {
	for i := range min(len(a), len(b)) {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// checkSortCase sorts the case in the three shapes the kernel is called in —
// a column's values under Compare (statistics), index entries under
// compareKeys and tuples under the executor's compareRows — and requires the
// permutation slices.SortStableFunc gives. It reports whether every key
// column is one the kernel sorts itself rather than handing to the stable
// sort.
func checkSortCase(t *testing.T, sc sortCase, s *SortScratch) bool {
	t.Helper()
	total := true
	for _, c := range sc.key {
		_, _, ok := columnOrder(sc.rows, c, func(row *[]Value, c int) *Value { return &(*row)[c] })
		total = total && ok
	}

	// Statistics: the values of the leading key column.
	values := make([]Value, len(sc.rows))
	for i, row := range sc.rows {
		values[i] = row[sc.key[0]]
	}
	want := slices.Clone(values)
	slices.SortStableFunc(want, Compare)
	SortStable(values, 1, func(v *Value, _ int) *Value { return v }, Compare, s)
	for i := range want {
		if !identical(values[i], want[i]) {
			t.Fatalf("values: position %d holds %v, the stable sort puts %v there", i, values[i], want[i])
		}
	}

	// Index entries: the key columns of every row, in row order.
	entries := make([]keyEntry, len(sc.rows))
	for i, row := range sc.rows {
		key := make([]Value, len(sc.key))
		for c, col := range sc.key {
			key[c] = row[col]
		}
		entries[i] = keyEntry{key, i}
	}
	byKey := func(a, b keyEntry) int { return compareValueKeys(a.key, b.key) }
	wantEntries := slices.Clone(entries)
	slices.SortStableFunc(wantEntries, byKey)
	SortStable(entries, len(sc.key), func(e *keyEntry, c int) *Value { return &e.key[c] }, byKey, s)
	for i := range wantEntries {
		if entries[i].rowID != wantEntries[i].rowID {
			t.Fatalf("entries: position %d holds row %d, the stable sort puts row %d there", i, entries[i].rowID, wantEntries[i].rowID)
		}
	}

	// Executor rows: tuples that name their row, compared column by column.
	rowKey := func(tu *int, c int) *Value { return &sc.rows[*tu][sc.key[c]] }
	byRow := func(a, b int) int {
		for c := range sc.key {
			if r := Compare(*rowKey(&a, c), *rowKey(&b, c)); r != 0 {
				return r
			}
		}
		return 0
	}
	tuples := slices.Clone(sc.tuples)
	wantTuples := slices.Clone(sc.tuples)
	slices.SortStableFunc(wantTuples, byRow)
	SortStable(tuples, len(sc.key), rowKey, byRow, s)
	if !slices.Equal(tuples, wantTuples) {
		t.Fatalf("tuples: %v, the stable sort gives %v", tuples, wantTuples)
	}
	return total
}

// TestSortKernelMatchesStableSort holds SortStable to the permutation of
// slices.SortStableFunc over generated inputs of one to three key columns,
// with scratch shared across sorts and without; both the kernel's own path
// and its fallback must be exercised.
func TestSortKernelMatchesStableSort(t *testing.T) {
	var shared SortScratch
	kernel, fallback := 0, 0
	for seed := int64(0); seed < 600; seed++ {
		n := int(seed*37) % 300
		s := &shared
		if seed%3 == 0 {
			s = nil
		}
		t.Run(fmt.Sprintf("seed_%d_n_%d", seed, n), func(t *testing.T) {
			if checkSortCase(t, genSortCase(seed, n, 1+int(seed%3)), s) {
				kernel++
			} else {
				fallback++
			}
		})
	}
	if kernel < 300 || fallback < 30 {
		t.Errorf("%d cases sorted by the kernel and %d fell back; want at least 300 and 30", kernel, fallback)
	}
}

// TestOrderWordOrdersAsCompare holds orderWord to Compare over every pair of
// a set of NULLs and numbers of each kind, NaN aside.
func TestOrderWordOrdersAsCompare(t *testing.T) {
	var values []Value
	r := rand.New(rand.NewSource(1))
	for fam := range famString {
		for range 40 {
			values = append(values, genValue(r, fam, r.Int63n(1<<r.Intn(60))))
		}
	}
	values = append(values, Float(math.SmallestNonzeroFloat64), Float(-math.SmallestNonzeroFloat64),
		Float(math.MaxFloat64), Float(-math.MaxFloat64), Int(math.MinInt64), Int(math.MaxInt64))
	for _, a := range values {
		for _, b := range values {
			wa, _ := a.KeyWord()
			wb, _ := b.KeyWord()
			if got, want := cmp.Compare(orderWord(wa), orderWord(wb)), Compare(a, b); got != want {
				t.Fatalf("orderWord orders %v against %v as %d, Compare as %d", a, b, got, want)
			}
		}
	}
}

// FuzzSortKernel runs the generator of TestSortKernelMatchesStableSort from
// fuzzed seeds, sizes and column counts.
func FuzzSortKernel(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(1))
	f.Add(int64(2), uint16(200), uint8(2))
	f.Add(int64(3), uint16(21), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, ncols uint8) {
		checkSortCase(t, genSortCase(seed, int(n%512), 1+int(ncols%3)), nil)
	})
}
