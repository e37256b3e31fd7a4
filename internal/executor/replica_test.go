package executor

import (
	"fmt"
	"reflect"
	"testing"

	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// TestReplicasFoldToSerialCounts pins what an exchange rests on, without an
// exchange and without a goroutine: a spine run as replicas over the
// partitions of its scan, one after another, folded into a lead and finalized,
// books what the same spine books run serially — every operator's actuals,
// RunStats and the residency peak, bit for bit — and no replica charges or
// holds anything on the way. The leaf is a TBSCAN, an IXSCAN and a FETCH (the
// random-plan generator reaches the last two rarely), under a FILTER and under
// one and two HSJOINs, the topmost keyed on a string so that the index that is
// not exact is probed too.
func TestReplicasFoldToSerialCounts(t *testing.T) {
	db, opt, _ := keyFamilies(t)
	ex := New(db)
	hsjoin := func(outer *optimizer.Spec, inner string) *optimizer.Spec {
		return optimizer.Join(qgm.OpHSJOIN, outer, optimizer.Leaf(inner))
	}
	shapes := []struct {
		name, sql string
		spec      func(leaf *optimizer.Spec) *optimizer.Spec
	}{
		{"filter", `SELECT f_id FROM ft WHERE f_num >= 5 AND f_val < 600`,
			func(leaf *optimizer.Spec) *optimizer.Spec { return leaf }},
		{"one join", `SELECT f_id, d_val FROM ft, dt WHERE f_code = d_code AND f_num >= 5`,
			func(leaf *optimizer.Spec) *optimizer.Spec { return hsjoin(leaf, "DT") }},
		{"two joins", `SELECT f_val, d_id, e_id FROM ft, dt, et WHERE f_num = d_num AND d_code = e_code AND f_num >= 5 AND f_val < 600`,
			func(leaf *optimizer.Spec) *optimizer.Spec { return hsjoin(hsjoin(leaf, "DT"), "ET") }},
	}
	for _, access := range []qgm.OpType{qgm.OpTBSCAN, qgm.OpIXSCAN, qgm.OpFETCH} {
		for _, shape := range shapes {
			t.Run(fmt.Sprintf("%s/%s", access, shape.name), func(t *testing.T) {
				q := sqlparser.MustParse(shape.sql)
				index := ""
				if access != qgm.OpTBSCAN {
					index = "F_num_IDX"
				}
				plan, err := opt.BuildPlan(q, shape.spec(optimizer.LeafAccess("FT", access, index)))
				if err != nil {
					t.Fatal(err)
				}
				// A FILTER goes in right above the leaf (the optimizer emits none),
				// and the leaf is the access asked for, not its interchangeable twin.
				parent := plan.Root
				for parent.Outer.Outer != nil {
					parent = parent.Outer
				}
				leaf := parent.Outer
				leaf.Op = access
				parent.Outer = &qgm.Node{Op: qgm.OpFILTER, Outer: leaf}
				var chain []*qgm.Node // the spine, top-down
				for n := plan.Root.Outer; n != leaf; n = n.Outer {
					chain = append(chain, n)
				}

				type booked struct {
					ops   [][2]float64
					stats RunStats
					res   residency
					rows  int
				}
				pull := func(it rowIter) (rows int) {
					for {
						if _, ok := it.Next(); !ok {
							return rows
						}
						rows++
					}
				}
				prep, err := ex.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				newContext := func() *execContext {
					plan.ResetActuals()
					return &prep.newCursor(plan, 0).ctx
				}

				ctx := newContext()
				it, _, err := ctx.open(chain[0])
				if err != nil {
					t.Fatal(err)
				}
				want := booked{rows: pull(it)}
				it.Close()
				want.ops, want.stats, want.res = actuals(plan), ctx.stats, ctx.res
				ctx.releaseArenas()
				if want.rows == 0 || want.stats.ElapsedMillis == 0 {
					t.Fatalf("the serial run proves nothing: %+v", want)
				}

				for _, n := range []int{1, 3, 7} {
					ctx := newContext()
					sc, lay, err := ctx.resolveScan(leaf)
					if err != nil {
						t.Fatal(err)
					}
					lead, _, err := ctx.openLead(sc, lay, chain)
					if err != nil {
						t.Fatal(err)
					}
					if !lead.drainBuilds(ctx) {
						t.Fatal("over a budget of none")
					}
					stats, res := ctx.stats, ctx.res
					parts := storage.SplitRange(sc.lo, sc.hi, n)
					if len(parts) != n {
						t.Fatalf("%d partitions of [%d, %d), want %d", len(parts), sc.lo, sc.hi, n)
					}
					got, replicas := booked{}, make([]spine, n)
					for i, p := range parts {
						replicas[i] = lead.replica(&partition{lo: p[0], hi: p[1], mem: ctx.newArena()})
						got.rows += pull(replicas[i].root())
					}
					if ctx.stats != stats || ctx.res != res {
						t.Errorf("%d replicas: charged or held before the fold: stats %+v -> %+v, residency %+v -> %+v", n, stats, ctx.stats, res, ctx.res)
					}
					for _, node := range append(chain, leaf) {
						if node.ActMillis != 0 || node.ActCardinality != 0 {
							t.Errorf("%d replicas: %s has actuals before the fold", n, node.Op)
						}
					}
					for _, r := range replicas {
						lead.fold(r)
					}
					for _, op := range lead {
						op.finalize()
					}
					lead.root().Close()
					got.ops, got.stats, got.res = actuals(plan), ctx.stats, ctx.res
					ctx.releaseArenas()
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%d replicas booked\n %+v\nthe serial spine\n %+v", n, got, want)
					}
				}
			})
		}
	}
}
