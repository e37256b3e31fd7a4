package fleet

import (
	"fmt"
	"testing"
	"time"

	"galo/internal/fleet/chaos"
	"galo/internal/kb"
	"galo/internal/qgm"
	"galo/internal/transform"
)

// testProblem builds a join problem whose shape varies with the join/scan
// operator choice, so tests can mint distinct shape signatures at will.
func testProblem(join, outerScan, innerScan qgm.OpType, card float64) *qgm.Node {
	outer := &qgm.Node{Op: outerScan, Table: "T_OUT", TableInstance: "T_OUT", EstCardinality: card}
	if outerScan == qgm.OpIXSCAN {
		outer.Index = "IDX_OUT"
	}
	inner := &qgm.Node{Op: innerScan, Table: "T_IN", TableInstance: "T_IN", EstCardinality: card / 20}
	if innerScan == qgm.OpIXSCAN {
		inner.Index = "IDX_IN"
	}
	root := &qgm.Node{Op: join, Outer: outer, Inner: inner, EstCardinality: card / 2}
	plan := qgm.NewPlan(root)
	return plan.Root.Outer
}

func testTemplate(join, outerScan, innerScan qgm.OpType) *kb.Template {
	p := testProblem(join, outerScan, innerScan, 1000)
	return &kb.Template{
		Problem:      p,
		GuidelineXML: "<OPTGUIDELINES><HSJOIN><TBSCAN TABID='T_IN'/><TBSCAN TABID='T_OUT'/></HSJOIN></OPTGUIDELINES>",
		Improvement:  0.3,
		Structural:   true,
		SourceQuery:  "FLEET.TEST",
	}
}

// probeQueryFor returns the real matching probe SPARQL for a fragment of the
// template's shape with in-bounds cardinalities.
func probeQueryFor(t *testing.T, join, outerScan, innerScan qgm.OpType) string {
	t.Helper()
	frag := testProblem(join, outerScan, innerScan, 1000)
	q, _, err := transform.FragmentMatchQuery(frag)
	if err != nil {
		t.Fatalf("FragmentMatchQuery: %v", err)
	}
	return q
}

// shapeOf returns the canonical shape key of a (join, scans) combination.
func shapeOf(join, outerScan, innerScan qgm.OpType) string {
	return kb.NormalizeShape(testProblem(join, outerScan, innerScan, 1000).ShapeSignature())
}

// startReplica serves a single-shard KB holding the given templates on a
// chaos replica.
func startReplica(t *testing.T, faults *chaos.Faults, templates ...*kb.Template) (*chaos.Replica, *kb.KB) {
	t.Helper()
	knowledge := kb.New()
	for _, tpl := range templates {
		cp := *tpl
		cp.Problem = tpl.Problem.Clone()
		if _, err := knowledge.Add(&cp); err != nil {
			t.Fatalf("kb.Add: %v", err)
		}
	}
	rep := chaos.NewReplica(NewShardServer(knowledge), faults)
	if err := rep.Start(); err != nil {
		t.Fatalf("replica start: %v", err)
	}
	t.Cleanup(rep.Kill)
	return rep, knowledge
}

// fastPolicy keeps retries and graces test-sized.
func fastPolicy() Policy {
	return Policy{
		ProbeTimeout:    2 * time.Second,
		MaxAttempts:     3,
		BackoffBase:     time.Millisecond,
		BackoffCap:      5 * time.Millisecond,
		BreakerCooldown: 50 * time.Millisecond,
		MigrationGrace:  20 * time.Millisecond,
		Seed:            7,
	}
}

func TestSelectFailsOverToHealthyReplica(t *testing.T) {
	tpl := testTemplate(qgm.OpMSJOIN, qgm.OpTBSCAN, qgm.OpIXSCAN)
	dead := chaos.NewFaults(11).Err(1) // every request answers 500
	sick, _ := startReplica(t, dead, tpl)
	healthy, _ := startReplica(t, nil, tpl)

	f := New(Options{Shards: [][]string{{sick.URL(), healthy.URL()}}, Policy: fastPolicy()})
	q := probeQueryFor(t, qgm.OpMSJOIN, qgm.OpTBSCAN, qgm.OpIXSCAN)
	for i := 0; i < 8; i++ {
		sols, err := f.Endpoint(0).Select(q)
		if err != nil {
			t.Fatalf("Select %d: %v", i, err)
		}
		if len(sols) == 0 {
			t.Fatalf("Select %d: no solutions through failover", i)
		}
	}
	st := f.Stats()
	if st.Failovers == 0 && st.Retries == 0 {
		t.Fatalf("expected failovers or retries against a 100%%-erroring replica, got %+v", st)
	}
	if st.Errors == 0 {
		t.Fatalf("expected replica faults to be counted, got %+v", st)
	}
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	tpl := testTemplate(qgm.OpHSJOIN, qgm.OpTBSCAN, qgm.OpTBSCAN)
	flaky := chaos.NewFaults(5)
	flaky.Err(1)
	sick, _ := startReplica(t, flaky, tpl)
	healthy, _ := startReplica(t, nil, tpl)

	f := New(Options{Shards: [][]string{{sick.URL(), healthy.URL()}}, Policy: fastPolicy()})
	q := probeQueryFor(t, qgm.OpHSJOIN, qgm.OpTBSCAN, qgm.OpTBSCAN)
	for i := 0; i < 12; i++ {
		if _, err := f.Endpoint(0).Select(q); err != nil {
			t.Fatalf("Select %d: %v", i, err)
		}
	}
	if trips := f.Stats().BreakerTrips; trips == 0 {
		t.Fatalf("breaker never tripped against a 100%%-erroring replica")
	}
	// Heal the replica; after the cooldown a half-open trial must readmit it.
	flaky.Err(0)
	time.Sleep(2 * fastPolicy().BreakerCooldown)
	for i := 0; i < 20; i++ {
		if _, err := f.Endpoint(0).Select(q); err != nil {
			t.Fatalf("Select after heal: %v", err)
		}
	}
	for _, rs := range f.Stats().Replicas {
		if rs.Breaker != breakerClosed {
			t.Fatalf("replica %s breaker = %s after heal, want closed", rs.URL, rs.Breaker)
		}
	}
}

func TestSelectSurvivesReplicaKillAndRestart(t *testing.T) {
	tpl := testTemplate(qgm.OpNLJOIN, qgm.OpTBSCAN, qgm.OpIXSCAN)
	a, _ := startReplica(t, nil, tpl)
	b, _ := startReplica(t, nil, tpl)

	f := New(Options{Shards: [][]string{{a.URL(), b.URL()}}, Policy: fastPolicy()})
	q := probeQueryFor(t, qgm.OpNLJOIN, qgm.OpTBSCAN, qgm.OpIXSCAN)
	if _, err := f.Endpoint(0).Select(q); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	a.Kill()
	for i := 0; i < 10; i++ {
		sols, err := f.Endpoint(0).Select(q)
		if err != nil {
			t.Fatalf("Select with replica killed: %v", err)
		}
		if len(sols) == 0 {
			t.Fatalf("no solutions with replica killed")
		}
	}
	if err := a.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	time.Sleep(2 * fastPolicy().BreakerCooldown)
	for i := 0; i < 20; i++ {
		if _, err := f.Endpoint(0).Select(q); err != nil {
			t.Fatalf("Select after restart: %v", err)
		}
	}
	st := f.Stats()
	restarted := false
	for _, rs := range st.Replicas {
		if rs.URL == a.URL() && rs.Successes > 0 {
			restarted = true
		}
	}
	if !restarted {
		t.Fatalf("restarted replica never served again: %+v", st.Replicas)
	}
}

func TestHedgingBeatsSlowReplica(t *testing.T) {
	tpl := testTemplate(qgm.OpMSJOIN, qgm.OpTBSCAN, qgm.OpTBSCAN)
	const stall = 300 * time.Millisecond
	slow := chaos.NewFaults(3).Delay(1, stall)
	s, _ := startReplica(t, slow, tpl)
	fast, _ := startReplica(t, nil, tpl)

	p := fastPolicy()
	p.HedgeAfter = 10 * time.Millisecond
	f := New(Options{Shards: [][]string{{s.URL(), fast.URL()}}, Policy: p})
	q := probeQueryFor(t, qgm.OpMSJOIN, qgm.OpTBSCAN, qgm.OpTBSCAN)
	start := time.Now()
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := f.Endpoint(0).Select(q); err != nil {
			t.Fatalf("Select %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	st := f.Stats()
	if st.Hedges == 0 {
		t.Fatalf("no hedges launched against a delayed replica: %+v", st)
	}
	if st.HedgeWins == 0 {
		t.Fatalf("no hedge wins against a 100%%-delayed replica: %+v", st)
	}
	// Round-robin sends ~half the probes to the slow primary; every one of
	// those must have been rescued by its hedge well before the stall.
	if elapsed > time.Duration(n)*stall {
		t.Fatalf("hedging saved no latency: %v for %d probes at %v stall", elapsed, n, stall)
	}
}

func TestKBVersionRequiresReplicaAgreement(t *testing.T) {
	tpl := testTemplate(qgm.OpHSJOIN, qgm.OpIXSCAN, qgm.OpTBSCAN)
	a, _ := startReplica(t, nil, tpl)
	b, kbB := startReplica(t, nil, tpl)

	f := New(Options{Shards: [][]string{{a.URL(), b.URL()}}, Policy: fastPolicy()})
	v, ok := f.Endpoint(0).KBVersion()
	if !ok {
		t.Fatalf("KBVersion not ok with agreeing replicas")
	}
	// Publish on one replica only: epochs diverge, caching must disable.
	extra := testTemplate(qgm.OpNLJOIN, qgm.OpTBSCAN, qgm.OpTBSCAN)
	if _, err := kbB.Add(extra); err != nil {
		t.Fatalf("Add: %v", err)
	}
	q := probeQueryFor(t, qgm.OpHSJOIN, qgm.OpIXSCAN, qgm.OpTBSCAN)
	for i := 0; i < 4; i++ { // refresh both advertised epochs
		if _, err := f.Endpoint(0).Select(q); err != nil {
			t.Fatalf("Select: %v", err)
		}
	}
	if v2, ok := f.Endpoint(0).KBVersion(); ok {
		t.Fatalf("KBVersion = (%d, true) with diverged replicas (agreed was %d), want ok=false", v2, v)
	}
}

func TestRouteTableDualWindowAlternates(t *testing.T) {
	rt := newRouteTable(4)
	shape := "HSJOIN(TBSCAN,IXSCAN)"
	home := kb.RouteShapeN(shape, 1, 4)
	if got := rt.Route(shape, 1); got != home {
		t.Fatalf("Route = %d, want static home %d", got, home)
	}
	to := (home + 1) % 4
	rt.SetDual(shape, home, to)
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		seen[rt.Route(shape, 1)] = true
	}
	if !seen[home] || !seen[to] {
		t.Fatalf("dual window routed only to %v, want both %d and %d", seen, home, to)
	}
	rt.SetOwner(shape, to)
	for i := 0; i < 16; i++ {
		if got := rt.Route(shape, 1); got != to {
			t.Fatalf("post-cutover Route = %d, want %d", got, to)
		}
	}
	// Cutting back to the hash home clears the override entirely.
	rt.SetOwner(shape, home)
	if n, _ := rt.overrideCounts(); n != 0 {
		t.Fatalf("override kept after returning to hash home: %d", n)
	}
}

// TestMigrationNeverMissesAProbe is the two-epoch handover gate: concurrent
// probes run through the full migration and every one of them must see the
// template.
func TestMigrationNeverMissesAProbe(t *testing.T) {
	join, outerScan, innerScan := qgm.OpMSJOIN, qgm.OpTBSCAN, qgm.OpIXSCAN
	tpl := testTemplate(join, outerScan, innerScan)
	shape := shapeOf(join, outerScan, innerScan)
	home := kb.RouteShapeN(shape, 1, 2)

	// The shape's templates start on the home shard only.
	replicas := make([][]*chaos.Replica, 2)
	kbs := make([]*kb.KB, 2)
	urls := make([][]string, 2)
	for shard := 0; shard < 2; shard++ {
		var rep *chaos.Replica
		if shard == home {
			rep, kbs[shard] = startReplica(t, nil, tpl)
		} else {
			rep, kbs[shard] = startReplica(t, nil)
		}
		replicas[shard] = []*chaos.Replica{rep}
		urls[shard] = []string{rep.URL()}
	}
	f := New(Options{Shards: urls, Policy: fastPolicy()})
	q := probeQueryFor(t, join, outerScan, innerScan)

	probe := func() error {
		shard := f.Route(shape, 1)
		sols, err := f.Endpoint(shard).Select(q)
		if err != nil {
			return err
		}
		if len(sols) == 0 {
			return fmt.Errorf("probe missed on shard %d", shard)
		}
		return nil
	}
	if err := probe(); err != nil {
		t.Fatalf("pre-migration: %v", err)
	}

	stop := make(chan struct{})
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			for {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				if err := probe(); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	target := 1 - home
	if err := f.MigrateShape(shape, home, target); err != nil {
		t.Fatalf("MigrateShape: %v", err)
	}
	// Keep probing a moment after the drop.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	for w := 0; w < 4; w++ {
		if err := <-errc; err != nil {
			t.Fatalf("concurrent probe during migration: %v", err)
		}
	}
	if err := probe(); err != nil {
		t.Fatalf("post-migration: %v", err)
	}
	if got := f.table.Route(shape, 1); got != target {
		t.Fatalf("owner after migration = %d, want %d", got, target)
	}
	if kbs[home].Size() != 0 {
		t.Fatalf("old owner still holds %d templates after drop", kbs[home].Size())
	}
	if kbs[target].Size() != 1 {
		t.Fatalf("new owner holds %d templates, want 1", kbs[target].Size())
	}
	st := f.Stats()
	if st.Migrations.Completed != 1 || st.DualRouted == 0 {
		t.Fatalf("migration stats = %+v (dual_routed=%d), want 1 completed with dual-routed probes", st.Migrations, st.DualRouted)
	}
}

// TestRebalancerConvergesUnderSkew drives a workload whose shapes all hash
// to one shard and checks Step migrates until the window ratio is under 2.
func TestRebalancerConvergesUnderSkew(t *testing.T) {
	// Mint shapes that all live on the same home shard of 2.
	combos := [][3]qgm.OpType{}
	for _, j := range []qgm.OpType{qgm.OpMSJOIN, qgm.OpHSJOIN, qgm.OpNLJOIN} {
		for _, so := range []qgm.OpType{qgm.OpTBSCAN, qgm.OpIXSCAN} {
			for _, si := range []qgm.OpType{qgm.OpTBSCAN, qgm.OpIXSCAN} {
				combos = append(combos, [3]qgm.OpType{j, so, si})
			}
		}
	}
	home := -1
	var hot [][3]qgm.OpType
	for _, c := range combos {
		s := kb.RouteShapeN(shapeOf(c[0], c[1], c[2]), 1, 2)
		if home == -1 {
			home = s
		}
		if s == home {
			hot = append(hot, c)
		}
		if len(hot) == 4 {
			break
		}
	}
	if len(hot) < 2 {
		t.Fatalf("could not mint %d same-shard shapes", len(hot))
	}

	var tpls []*kb.Template
	for _, c := range hot {
		tpls = append(tpls, testTemplate(c[0], c[1], c[2]))
	}
	repHome, _ := startReplica(t, nil, tpls...)
	repOther, _ := startReplica(t, nil)
	urls := make([][]string, 2)
	urls[home] = []string{repHome.URL()}
	urls[1-home] = []string{repOther.URL()}

	f := New(Options{Shards: urls, Policy: fastPolicy()})
	queries := make([]string, len(hot))
	shapes := make([]string, len(hot))
	for i, c := range hot {
		queries[i] = probeQueryFor(t, c[0], c[1], c[2])
		shapes[i] = shapeOf(c[0], c[1], c[2])
	}

	// The skew source: per-shard counts of the probes we actually issue.
	var shardProbes [2]int64
	window := func() {
		for round := 0; round < 16; round++ {
			for i := range shapes {
				shard := f.Route(shapes[i], 1)
				sols, err := f.Endpoint(shard).Select(queries[i])
				if err != nil {
					t.Fatalf("probe: %v", err)
				}
				if len(sols) == 0 {
					t.Fatalf("probe missed for shape %s on shard %d", shapes[i], shard)
				}
				shardProbes[shard]++
			}
		}
	}
	reb := f.NewRebalancer(func() []int64 { return []int64{shardProbes[0], shardProbes[1]} },
		RebalanceOptions{Enabled: true, MinWindowProbes: 8})

	if _, err := reb.Step(); err != nil { // prime the window baseline
		t.Fatalf("Step: %v", err)
	}
	var ratio float64
	for i := 0; i < 10; i++ {
		window()
		if _, err := reb.Step(); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
		ratio = reb.Stats().LastRatio
		if ratio < 2 {
			break
		}
	}
	if ratio >= 2 {
		t.Fatalf("rebalancer never brought max/min ratio under 2 (last %v, stats %+v)", ratio, reb.Stats())
	}
	if reb.Stats().Moves == 0 {
		t.Fatalf("ratio converged without any migration: %+v", reb.Stats())
	}
	// And no probe missed at any point (window() fails hard on a miss).
}
