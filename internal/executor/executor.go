// Package executor runs QGM plans over the stored data and reports the
// runtime truth the optimizer could only estimate: actual cardinalities per
// operator, pages read, sort/hash spills and a simulated elapsed time.
//
// It replaces DB2's runtime plus the db2batch measurement utility in the
// paper's learning loop. Result rows are computed with efficient algorithms
// regardless of the plan's operator (so executing a bad plan does not make
// the test suite slow), but the simulated elapsed time is charged according
// to each operator's own cost formula evaluated over the *actual* row counts
// and the *runtime* system configuration — so a nested-loop join over an
// unclustered index really does "run" orders of magnitude slower than a hash
// join, which is exactly the signal GALO's learning engine ranks plans by.
//
// Execution is streaming: operators compose as pull iterators (Open / Next /
// Close) and only pipeline breakers — SORT buffers, hash-join build sides,
// GRPBY's group set — ever hold rows. Single-table predicates are pushed
// into the scans (applied per row, before any candidate-list or output
// materialization), so deep pipelines keep a bounded intermediate footprint.
// Every charge is the cost model's run-time view evaluated over the row counts
// an operator actually processed, so an estimate equals its charge wherever
// the estimate's row counts were right (the plan/actual cost-formula parity
// invariant the estimation-gap learner depends on). The engine's exact
// answers — rows, per-operator actuals and RunStats — are frozen in
// testdata/differential.json, generated while the pre-streaming materializing
// engine still agreed with every entry.
//
// A serial join whose inner is a bare table or index scan, keyed on one column
// of an index that lists one key's entries in the order the scan drains them,
// answers its probes from that index instead of building a hash table: the
// inner is drained through its own iterator all the same, and each outer row
// binary-searches the run of its key. Once the outer has produced more rows
// than the drained rows over twice the search depth, the join builds from the
// scan's candidates after all and probes the build. The run of a key is the
// build's chain for it, in the same order, and every charge is booked from
// counts both paths keep alike, so rows, actuals and RunStats are unchanged —
// the peaks too: the drained rows are held in the accounting as the plan's
// build side either way (indexprobe.go).
package executor

import (
	"fmt"
	"regexp"
	"strings"

	"galo/internal/catalog"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// RunStats aggregates the runtime counters of one plan execution. These are
// the "other resource usages" the paper's ranking module uses as tie
// breakers: buffer pool logical/physical reads, CPU rows and the sort-heap
// high-water mark.
type RunStats struct {
	Rows           int
	ElapsedMillis  float64
	LogicalReads   int64
	PhysicalReads  int64
	CPURows        int64
	SortSpillPages int64
	SortHeapPages  int64
	// PeakIntermediateRows / PeakIntermediateBytes record the high-water mark
	// of rows (and their approximate bytes) held in operator state at any one
	// moment during execution: sort buffers, hash-join build sides, group-by
	// group sets. Base-table storage and the final result do not count; this
	// is the memory the plan's shape itself demands.
	PeakIntermediateRows  int64
	PeakIntermediateBytes int64
	// Aborted reports that a bounded run (RunBounded) booked more simulated
	// time than its budget. Charges only ever add, so the full run costs more
	// than the budget too; the other counters are then those of the part that
	// ran and say nothing about the plan.
	Aborted bool
}

// Result is the outcome of executing a plan.
type Result struct {
	// Columns names the projected output columns.
	Columns []string
	// Rows holds the projected result rows.
	Rows []storage.Row
	// Stats aggregates runtime counters over the whole plan.
	Stats RunStats
}

// Executor runs plans against one database.
type Executor struct {
	DB *storage.Database
	// Workers enables intra-query parallelism: qualifying pipeline segments
	// (a scan plus the FILTER/HSJOIN spine above it, with an optional
	// terminal SORT or GRPBY) run as an exchange — the scan partitioned
	// across up to Workers goroutines, merged order-preserving when the
	// input is ordered or a terminal breaker demands it, unordered fan-in
	// otherwise. 0 or 1 means serial. Per-operator actuals are aggregated
	// deterministically, so charges are bit-identical at any worker count.
	Workers int
}

// New returns an executor over the database.
func New(db *storage.Database) *Executor {
	return &Executor{DB: db}
}

// WithWorkers returns a view of the executor with a different worker count —
// a cheap copy sharing the database, so a per-execution admission decision
// (the core memory governor degrading a too-big plan to serial) does not
// need a second executor.
func (e *Executor) WithWorkers(n int) *Executor {
	cp := *e
	cp.Workers = n
	return &cp
}

// Execute runs the plan for the query. The plan's nodes are annotated with
// actual cardinalities and per-operator simulated milliseconds as a side
// effect (ActCardinality, ActMillis), and the plan's ActualMillis is set.
func (e *Executor) Execute(plan *qgm.Plan, q *sqlparser.Query) (*Result, error) {
	cur, err := e.Open(plan, q)
	if err != nil {
		return nil, err
	}
	out := &Result{Columns: cur.Columns}
	out.Rows = make([]storage.Row, 0, presizeHint(plan.Root.EstCardinality))
	for {
		row, ok := cur.Next()
		if !ok {
			break
		}
		out.Rows = append(out.Rows, row)
	}
	cur.Close()
	out.Stats = cur.Stats()
	return out, nil
}

// Run executes the plan for its runtime statistics (and the plan's actuals)
// alone: the pipeline is drained without projecting or collecting a single
// result row — what plan validation and ranking need.
func (e *Executor) Run(plan *qgm.Plan, q *sqlparser.Query) (RunStats, error) {
	return e.RunBounded(plan, q, 0)
}

// RunBounded is Run under a budget of simulated milliseconds (0 = none): a
// plan that cannot finish within it is stopped at the first pipeline breaker
// that finds the charges booked so far past the budget — after its scan, build
// side or sort input is exhausted, before its own build or probe; a SORT books
// its own charge first and does not sort either — and the run ends with
// RunStats.Aborted set. A run that is not aborted is the unbounded run, bit
// for bit. What learning needs of a candidate that can no longer beat its
// baseline is only that fact.
func (e *Executor) RunBounded(plan *qgm.Plan, q *sqlparser.Query, budgetMillis float64) (RunStats, error) {
	cur, err := e.open(plan, q, budgetMillis)
	if err != nil {
		return RunStats{}, err
	}
	for {
		if _, ok := cur.root.Next(); !ok {
			break
		}
		cur.rows++
	}
	cur.finish()
	return cur.Stats(), nil
}

// Cursor streams a plan's projected output row by row. Closing the cursor
// before exhaustion stops every upstream operator — scans included — and
// charges each operator only for the rows it actually processed; a bounded
// consumer therefore pays a bounded cost. Stats (and the plan's actuals) are
// final once Next has returned false or Close has been called.
type Cursor struct {
	// Columns names the projected output columns.
	Columns []string

	ctx      *execContext
	plan     *qgm.Plan
	root     rowIter
	proj     []colRef // nil means project everything in root order
	slots    slotList // of the root layout (SELECT * flattening)
	rows     int
	finished bool
}

// Open validates the plan against the query and returns a streaming cursor
// over its projected output. The caller must Close the cursor (Next returning
// false closes it implicitly).
func (e *Executor) Open(plan *qgm.Plan, q *sqlparser.Query) (*Cursor, error) {
	return e.open(plan, q, 0)
}

func (e *Executor) open(plan *qgm.Plan, q *sqlparser.Query, budgetMillis float64) (*Cursor, error) {
	if plan == nil || plan.Root == nil {
		return nil, fmt.Errorf("executor: empty plan")
	}
	ctx, err := e.newContext(q, budgetMillis)
	if err != nil {
		return nil, err
	}
	work := ctx.query
	// A plan can be executed many times (and a cursor may stop early, leaving
	// deep operators unvisited); stale actuals from a previous run must never
	// survive into this one's estimation-gap reading.
	plan.ResetActuals()
	root, lay, err := ctx.open(plan.Root)
	if err != nil {
		ctx.releaseArenas()
		return nil, err
	}
	cur := &Cursor{ctx: ctx, plan: plan, root: root, slots: lay.slots}
	if work.Star || len(work.Select) == 0 {
		cur.Columns = lay.cols
	} else {
		pos := make([]int, 0, len(work.Select))
		for _, c := range work.Select {
			inst := ctx.refToInst[strings.ToUpper(c.Table)]
			p := colPos(lay.cols, inst+"."+c.Column)
			if p < 0 {
				root.Close()
				ctx.releaseArenas()
				return nil, fmt.Errorf("executor: projected column %s not in plan output", c)
			}
			pos = append(pos, p)
			cur.Columns = append(cur.Columns, c.String())
		}
		cur.proj = lay.refs(pos)
	}
	return cur, nil
}

// newContext resolves the query against the schema and returns the state of
// one execution of it.
func (e *Executor) newContext(q *sqlparser.Query, budgetMillis float64) (*execContext, error) {
	work := q.Clone()
	if err := sqlparser.Resolve(work, e.DB.Catalog.Schema); err != nil {
		return nil, err
	}
	ctx := &execContext{
		exec:      e,
		query:     work,
		cost:      e.DB.Catalog.Config.RunCost(),
		instToRef: map[string]string{},
		refToInst: map[string]string{},
		workers:   e.Workers,
		budget:    budgetMillis,
	}
	ctx.mem = ctx.newArena()
	for i, ref := range work.From {
		inst := qgm.InstanceName(i)
		ctx.instToRef[inst] = strings.ToUpper(ref.Name())
		ctx.refToInst[strings.ToUpper(ref.Name())] = inst
	}
	return ctx, nil
}

// Next returns the next projected row, or false when the plan is exhausted
// (which finalizes stats and closes the pipeline). This is the one place
// column values are copied out of the base rows the pipeline's tuples stand
// for; a single-table SELECT * hands out the base row itself.
func (c *Cursor) Next() (storage.Row, bool) {
	if c.finished {
		return nil, false
	}
	t, ok := c.root.Next()
	if !ok {
		c.finish()
		return nil, false
	}
	c.rows++
	if c.proj == nil {
		if len(t) == 1 {
			return c.slots[0].rows[t[0]], true
		}
		out := make(storage.Row, 0, len(c.Columns))
		for s, id := range t {
			out = append(out, c.slots[s].rows[id]...)
		}
		return out, true
	}
	out := make(storage.Row, len(c.proj))
	for j := range c.proj {
		out[j] = *c.proj[j].of(t)
	}
	return out, true
}

// Close stops the pipeline. Operators that were cut short charge only the
// work they actually did. Close is idempotent.
func (c *Cursor) Close() { c.finish() }

// Stats returns the execution counters; final after Next returned false or
// Close.
func (c *Cursor) Stats() RunStats { return c.ctx.stats }

func (c *Cursor) finish() {
	if c.finished {
		return
	}
	c.finished = true
	c.root.Close()
	c.ctx.releaseArenas()
	c.ctx.stats.Rows = c.rows
	c.ctx.stats.PeakIntermediateRows = c.ctx.res.peakRows
	c.ctx.stats.PeakIntermediateBytes = c.ctx.res.peakBytes
	c.ctx.stats.Aborted = c.ctx.overBudget()
	c.plan.ActualMillis = c.ctx.stats.ElapsedMillis
}

// execContext carries the per-execution state.
type execContext struct {
	exec      *Executor
	query     *sqlparser.Query
	cost      catalog.CostModel // the run-time view every charge goes through
	stats     RunStats
	instToRef map[string]string
	refToInst map[string]string
	workers   int
	// budget bounds the simulated milliseconds the run may book (RunBounded);
	// 0, what every serving path passes, is no bound.
	budget float64
	// orderObserved counts the operators above the subtree being opened that
	// observe row arrival order (see openOrdered).
	orderObserved int

	// mem is the arena of the goroutine driving the cursor; arenas lists it
	// and one per exchange worker, for Cursor.finish to release.
	mem    *arena
	arenas []*arena

	// res is the live intermediate-row accounting (see
	// RunStats.PeakIntermediateRows), fed through hold/release.
	res residency
}

func (c *execContext) newArena() *arena {
	m := new(arena)
	c.arenas = append(c.arenas, m)
	return m
}

// releaseArenas recycles every intermediate of the execution. The pipeline
// must be closed: no worker is running and every charge has been computed.
func (c *execContext) releaseArenas() {
	for _, m := range c.arenas {
		m.release()
	}
	c.arenas = nil
}

// overBudget reports whether the charges booked so far already exceed the
// run's budget. Pipeline breakers ask once their input is exhausted — where
// charges are booked, never per row — and skip their own work when it does.
func (c *execContext) overBudget() bool {
	return c.budget > 0 && c.stats.ElapsedMillis > c.budget
}

func (c *execContext) hold(rows int, bytes int64)    { c.res.hold(rows, bytes) }
func (c *execContext) release(rows int, bytes int64) { c.res.release(rows, bytes) }

func (c *execContext) charge(node *qgm.Node, millis float64, rows int) {
	c.stats.ElapsedMillis += millis
	node.ActMillis = millis
	node.ActCardinality = float64(rows)
}

// colPos finds an instance-qualified column in an operator's output layout.
// Resolution happens once per operator at Open time, so a linear scan beats
// building a map.
func colPos(cols []string, name string) int {
	name = strings.ToUpper(name)
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	return -1
}

// scanColumns returns the output layout of a base-table access.
func scanColumns(inst string, def *catalog.Table) []string {
	cols := make([]string, len(def.Columns))
	for i, col := range def.Columns {
		cols[i] = inst + "." + col.Name
	}
	return cols
}

// scanPred is one local predicate compiled against its table at scan open:
// the column position is resolved — and a LIKE pattern fetched from the
// process-wide compiled-pattern cache — once per scan, not once per row.
type scanPred struct {
	sqlparser.Predicate
	pos int
	re  *regexp.Regexp
}

func compilePreds(def *catalog.Table, preds []sqlparser.Predicate) []scanPred {
	out := make([]scanPred, len(preds))
	for i, p := range preds {
		out[i] = scanPred{Predicate: p, pos: def.ColumnIndex(p.Left.Column)}
		if p.Kind == sqlparser.PredLike {
			out[i].re = likeCache.get(p.Value.AsString())
		}
	}
	return out
}

// matchRow applies compiled predicates to a base-table row. It only reads, so
// the serial scans and the exchange workers share one compiled slice.
func matchRow(row storage.Row, preds []scanPred) bool {
	for i := range preds {
		p := &preds[i]
		var v catalog.Value
		if p.pos >= 0 && p.pos < len(row) {
			v = row[p.pos]
		}
		if p.Kind == sqlparser.PredLike {
			if v.IsNull() || (p.re != nil && p.re.MatchString(v.AsString())) == p.Not {
				return false
			}
		} else if !evalPredicate(&p.Predicate, v) {
			return false
		}
	}
	return true
}

// evalPredicate evaluates a local predicate against a value.
func evalPredicate(p *sqlparser.Predicate, v catalog.Value) bool {
	switch p.Kind {
	case sqlparser.PredCompare:
		if v.IsNull() || p.Value.IsNull() {
			return false
		}
		cmp := catalog.Compare(v, p.Value)
		switch p.Op {
		case "=":
			return cmp == 0
		case "<>":
			return cmp != 0
		case "<":
			return cmp < 0
		case "<=":
			return cmp <= 0
		case ">":
			return cmp > 0
		case ">=":
			return cmp >= 0
		}
		return false
	case sqlparser.PredBetween:
		if v.IsNull() {
			return false
		}
		in := catalog.Compare(v, p.Lo) >= 0 && catalog.Compare(v, p.Hi) <= 0
		if p.Not {
			return !in
		}
		return in
	case sqlparser.PredIn:
		if v.IsNull() {
			return false
		}
		found := false
		for _, candidate := range p.Values {
			if catalog.Equal(v, candidate) {
				found = true
				break
			}
		}
		if p.Not {
			return !found
		}
		return found
	case sqlparser.PredLike:
		if v.IsNull() {
			return false
		}
		ok := likeMatch(p.Value.AsString(), v.AsString())
		if p.Not {
			return !ok
		}
		return ok
	case sqlparser.PredIsNull:
		if p.Not {
			return !v.IsNull()
		}
		return v.IsNull()
	default:
		return true
	}
}

// compileLike translates a SQL LIKE pattern (% and _ wildcards) into a
// case-insensitive regexp; nil when the pattern cannot compile.
func compileLike(pattern string) *regexp.Regexp {
	var b strings.Builder
	b.WriteString("^")
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	re, err := regexp.Compile("(?i)" + b.String())
	if err != nil {
		return nil
	}
	return re
}

// likeMatch implements SQL LIKE with % and _ wildcards (uncached; scans match
// through the compiled-pattern cache, see compilePreds).
func likeMatch(pattern, s string) bool {
	re := compileLike(pattern)
	return re != nil && re.MatchString(s)
}

// valuesWidth is the width in bytes the cost model gives a row of values.
func valuesWidth(row storage.Row) int {
	w := 0
	for _, v := range row {
		if v.K == catalog.KindString {
			w += len(v.S) + 4
		} else {
			w += 8
		}
	}
	return w
}

// presizeHint converts an estimated cardinality into a slice/map capacity,
// capped so a wild overestimate cannot allocate unbounded memory up front.
const presizeCap = 1 << 20

func presizeHint(est float64) int {
	if est <= 0 {
		return 0
	}
	if est > presizeCap {
		return presizeCap
	}
	return int(est)
}

// sortMillis charges a sort of the given size, tracking spill pages and the
// sort-heap high-water mark.
func (c *execContext) sortMillis(rows float64, width int) float64 {
	s := c.cost.Sort(rows, width)
	c.stats.SortSpillPages += int64(s.SpillPages)
	if int64(s.Pages) > c.stats.SortHeapPages {
		c.stats.SortHeapPages = int64(s.Pages)
	}
	return s.Millis
}
