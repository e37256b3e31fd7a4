package executor

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"galo/internal/catalog"
	"galo/internal/storage"
)

// TestSortStableByMatchesStableSort holds the executor's SORT, through
// sortStableBy, to slices.SortStableFunc under compareRows: join-shaped tuples
// over two tables, keys of one to three columns drawn from either slot, over
// columns of integers, floats with −0 and +0, strings, NULLs in each, and a
// column holding a NaN that the kernel hands to the stable sort.
func TestSortStableByMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	gen := []func() catalog.Value{
		func() catalog.Value { return catalog.Int(int64(r.Intn(7))) },
		func() catalog.Value { return catalog.Float([]float64{math.Copysign(0, -1), 0, 1.5, -3}[r.Intn(4)]) },
		func() catalog.Value { return catalog.String([]string{"", "a", "b", "ab"}[r.Intn(4)]) },
		func() catalog.Value {
			if r.Intn(20) == 0 {
				return catalog.Float(math.NaN())
			}
			return catalog.Float(float64(r.Intn(3)))
		},
	}
	table := func(n int) *slot {
		rows := make([]storage.Row, n)
		for i := range rows {
			rows[i] = make(storage.Row, len(gen))
			for c, g := range gen {
				if rows[i][c] = g(); r.Intn(9) == 0 {
					rows[i][c] = catalog.Null()
				}
			}
		}
		return &slot{ncols: len(gen), rows: rows}
	}
	for trial := range 200 {
		slots := []*slot{table(1 + r.Intn(40)), table(1 + r.Intn(40))}
		rows := make([]tuple, r.Intn(300))
		for i := range rows {
			rows[i] = tuple{uint32(r.Intn(len(slots[0].rows))), uint32(r.Intn(len(slots[1].rows)))}
		}
		key := make([]colRef, 1+r.Intn(3))
		for i := range key {
			s := r.Intn(2)
			key[i] = colRef{src: slots[s], slot: int32(s), off: int32(r.Intn(len(gen)))}
		}
		want := slices.Clone(rows)
		slices.SortStableFunc(want, func(a, b tuple) int { return compareRows(a, b, key) })
		sortStableBy(rows, key, func(t tuple) tuple { return t })
		for i := range want {
			if !slices.Equal(rows[i], want[i]) {
				t.Fatalf("trial %d: position %d holds %v, the stable sort puts %v there", trial, i, rows[i], want[i])
			}
		}
	}
}
