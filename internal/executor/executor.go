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
//
// Run and RunBounded read only counts: a root join under RETURN and FILTERs,
// keyed on one column with a key-word vector on either side, is counted, not
// pulled (countRows). Its inputs are walked for their key words, not pulled
// row by row (walk): a join below appends the words of a whole hash chain or
// index run in one loop and steps a bare scan outer by position, a scan its
// candidates. Every charge is booked from the same counts and samples, in the
// same order, so nothing moves.
package executor

import (
	"fmt"
	"regexp"
	"slices"
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
	// (a scan plus the FILTER/HSJOIN spine above it) run as an exchange — the
	// scan partitioned across up to Workers goroutines, merged
	// order-preserving when the input is ordered or an operator above
	// observes the order, unordered fan-in otherwise. A SORT or a GRPBY right
	// above a segment takes its workers' partial results: one buffered run
	// per partition, or the stream less the rows a partition had already
	// grouped. 0 or 1 means serial. Per-operator actuals are aggregated
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

// Execute, Run, RunBounded and Open prepare the query (Prepare) and run the
// plan through the Prepared method of the same name.
func (e *Executor) Execute(plan *qgm.Plan, q *sqlparser.Query) (*Result, error) {
	return prepared(e, q, func(p *Prepared) (*Result, error) { return p.Execute(plan) })
}

func (e *Executor) Run(plan *qgm.Plan, q *sqlparser.Query) (RunStats, error) {
	return e.RunBounded(plan, q, 0)
}

func (e *Executor) RunBounded(plan *qgm.Plan, q *sqlparser.Query, budgetMillis float64) (RunStats, error) {
	return prepared(e, q, func(p *Prepared) (RunStats, error) { return p.RunBounded(plan, budgetMillis) })
}

func (e *Executor) Open(plan *qgm.Plan, q *sqlparser.Query) (*Cursor, error) {
	return prepared(e, q, func(p *Prepared) (*Cursor, error) { return p.Open(plan) })
}

func prepared[T any](e *Executor, q *sqlparser.Query, run func(*Prepared) (T, error)) (T, error) {
	p, err := e.Prepare(q)
	if err != nil {
		return *new(T), err
	}
	return run(p)
}

// Prepared is a query resolved once for execution over one executor, every
// column an operator keys on an (instance, column) pair of ordinals. A run
// binds a plan to it by ordinal — plan instance Qi is FROM entry i-1 — and
// allocates only its operators. It is never written after Prepare, so any
// number of goroutines may run plans through one Prepared at once.
type Prepared struct {
	exec             *Executor
	tables           []*catalog.Table // by FROM ordinal: what a scan of the instance must read
	preds            [][]scanPred     // by FROM ordinal: the local predicates, compiled against the table
	joins            [][2]column      // the two sides of each equi-join predicate, in WHERE order
	orderBy, groupBy []column
	proj             []column // the SELECT list; nil for SELECT *
	names            []string // the SELECT list as Cursor.Columns names it
}

// column is one column of the query: its FROM instance and its position in
// that instance's table, both -1 when the query does not resolve it.
type column struct{ inst, col int32 }

// Prepare resolves the query against the executor's database once, for any
// number of runs.
func (e *Executor) Prepare(q *sqlparser.Query) (*Prepared, error) {
	work := q.Clone()
	if err := sqlparser.Resolve(work, e.DB.Catalog.Schema); err != nil {
		return nil, err
	}
	p := &Prepared{exec: e, tables: make([]*catalog.Table, len(work.From)), preds: make([][]scanPred, len(work.From))}
	preds := make([]scanPred, 0, len(work.Where)) // every instance's, side by side
	for i, ref := range work.From {
		p.tables[i] = e.DB.Table(ref.Table).Def
		start := len(preds)
		for k := range work.Where {
			if pr := &work.Where[k]; pr.LocalTo(ref.Name()) {
				preds = append(preds, compilePred(pr, p.tables[i].ColumnIndex(pr.Left.Column)))
			}
		}
		p.preds[i] = preds[start:len(preds):len(preds)]
	}
	// A column belongs to the last FROM entry of its name, as a name map
	// filled in FROM order would have it.
	at := func(c sqlparser.ColumnRef) column {
		for i := len(work.From) - 1; i >= 0; i-- {
			if work.From[i].ResolvedAs(c.Table) {
				if k := p.tables[i].ColumnIndex(c.Column); k >= 0 {
					return column{int32(i), int32(k)}
				}
				break
			}
		}
		return column{-1, -1}
	}
	all := func(cols []sqlparser.ColumnRef) []column {
		out := make([]column, len(cols))
		for i, c := range cols {
			out[i] = at(c)
		}
		return out
	}
	p.joins = make([][2]column, 0, work.NumJoins())
	for _, pr := range work.Where {
		if pr.IsJoin() {
			p.joins = append(p.joins, [2]column{at(pr.Left), at(pr.Right)})
		}
	}
	p.orderBy, p.groupBy = all(work.OrderBy), all(work.GroupBy)
	if !work.Star && len(work.Select) > 0 {
		p.proj, p.names = all(work.Select), make([]string, len(work.Select))
		for i, c := range work.Select {
			p.names[i] = c.String()
		}
	}
	return p, nil
}

// WithWorkers returns the prepared query over Executor.WithWorkers(n), or p
// when its executor already has n.
func (p *Prepared) WithWorkers(n int) *Prepared {
	if n == p.exec.Workers {
		return p
	}
	cp := *p
	cp.exec = p.exec.WithWorkers(n)
	return &cp
}

// instanceOf returns the FROM ordinal of a plan's table instance (Q1 is 0), or
// -1 when the query has no such instance.
func (p *Prepared) instanceOf(name string) int {
	for i := range p.tables {
		if qgm.InstanceName(i) == name {
			return i
		}
	}
	return -1
}

// Execute runs the plan. The plan's nodes are annotated with actual
// cardinalities and per-operator simulated milliseconds as a side effect
// (ActCardinality, ActMillis), and the plan's ActualMillis is set.
func (p *Prepared) Execute(plan *qgm.Plan) (*Result, error) {
	cur, err := p.Open(plan)
	if err != nil {
		return nil, err
	}
	out := &Result{Columns: cur.Columns}
	// Sized to the estimate, capped so a wild overestimate cannot allocate
	// unbounded memory up front.
	out.Rows = make([]storage.Row, 0, int(min(max(plan.Root.EstCardinality, 0), 1<<20)))
	for row, ok := cur.Next(); ok; row, ok = cur.Next() {
		out.Rows = append(out.Rows, row)
	}
	cur.Close()
	out.Stats = cur.Stats()
	return out, nil
}

// Run executes the plan for its runtime statistics (and the plan's actuals)
// alone: the pipeline is drained without projecting or collecting a single
// result row — what plan validation and ranking need — and a root join that
// can count is counted, its output rows never built (countRows).
func (p *Prepared) Run(plan *qgm.Plan) (RunStats, error) {
	return p.RunBounded(plan, 0)
}

// RunBounded is Run under a budget of simulated milliseconds (0 = none): a
// plan that cannot finish within it is stopped at the first pipeline breaker
// that finds the charges booked so far past the budget — after its scan, build
// side or sort input is exhausted, before its own build or probe; a SORT books
// its own charge first and does not sort either — and the run ends with
// RunStats.Aborted set. A run that is not aborted is the unbounded run, bit
// for bit. What learning needs of a candidate that can no longer beat its
// baseline is only that fact.
func (p *Prepared) RunBounded(plan *qgm.Plan, budgetMillis float64) (RunStats, error) {
	cur, err := p.open(plan, budgetMillis)
	if err != nil {
		return RunStats{}, err
	}
	if n, counted := countRows(cur.root); counted {
		cur.rows = n
	} else {
		for _, ok := cur.root.Next(); ok; _, ok = cur.root.Next() {
			cur.rows++
		}
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

	ctx      execContext
	plan     *qgm.Plan
	root     rowIter
	proj     []colRef // nil means project everything in root order
	slots    slotList // of the root (SELECT * flattening)
	rows     int
	finished bool
}

// Open validates the plan against the query and returns a streaming cursor
// over its projected output. The caller must Close the cursor (Next returning
// false closes it implicitly).
func (p *Prepared) Open(plan *qgm.Plan) (*Cursor, error) {
	cur, err := p.open(plan, 0)
	if err != nil {
		return nil, err
	}
	if cur.proj != nil {
		cur.Columns = append([]string(nil), p.names...)
		return cur, nil
	}
	for _, s := range cur.slots {
		inst := qgm.InstanceName(int(s.inst))
		for _, col := range s.table.Def.Columns {
			cur.Columns = append(cur.Columns, inst+"."+col.Name)
		}
	}
	return cur, nil
}

func (p *Prepared) open(plan *qgm.Plan, budgetMillis float64) (*Cursor, error) {
	if plan == nil || plan.Root == nil {
		return nil, fmt.Errorf("executor: empty plan")
	}
	cur := p.newCursor(plan, budgetMillis)
	ctx := &cur.ctx
	// A plan can be executed many times (and a cursor may stop early, leaving
	// deep operators unvisited); stale actuals from a previous run must never
	// survive into this one's estimation-gap reading.
	plan.ResetActuals()
	root, slots, err := ctx.open(plan.Root)
	if err != nil {
		ctx.releaseArenas()
		return nil, err
	}
	cur.root, cur.slots = root, slots
	if p.proj != nil {
		cur.proj = make([]colRef, len(p.proj))
		for i, c := range p.proj {
			var ok bool
			if cur.proj[i], ok = slots.ref(c); !ok {
				root.Close()
				ctx.releaseArenas()
				return nil, fmt.Errorf("executor: projected column %s not in plan output", p.names[i])
			}
		}
	}
	return cur, nil
}

// newCursor returns a cursor for one execution of the plan, with its context
// ready and no operator open.
func (p *Prepared) newCursor(plan *qgm.Plan, budgetMillis float64) *Cursor {
	cur := &Cursor{plan: plan, ctx: execContext{prep: p, cost: p.exec.DB.Catalog.Config.RunCost(), workers: p.exec.Workers, budget: budgetMillis}}
	cur.ctx.mem = &cur.ctx.own
	return cur
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
	prep  *Prepared
	cost  catalog.CostModel // the run-time view every charge goes through
	stats RunStats
	// workers is the exchange's worker count, 1 while a build side opens.
	workers int
	// budget bounds the simulated milliseconds the run may book (RunBounded);
	// 0, what every serving path passes, is no bound.
	budget float64
	// orderObserved counts the operators above the subtree being opened that
	// observe row arrival order (see openOrdered).
	orderObserved int

	// mem is the arena of the goroutine driving the cursor (own); arenas
	// lists one per exchange worker. Cursor.finish releases them all.
	mem    *arena
	own    arena
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
	c.own.release()
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

// scanPred is one local predicate of the prepared query compiled against its
// table once, in Prepare: the column position resolved and a LIKE pattern
// fetched from the process-wide compiled-pattern cache.
type scanPred struct {
	*sqlparser.Predicate
	pos int
	re  *regexp.Regexp
}

func compilePred(p *sqlparser.Predicate, pos int) scanPred {
	sp := scanPred{Predicate: p, pos: pos}
	if p.Kind == sqlparser.PredLike {
		sp.re = likeCache.get(p.Value.AsString())
	}
	return sp
}

// matchRow applies compiled predicates to a base-table row. It only reads, so
// the serial scans and the exchange workers share one compiled slice.
func matchRow(row storage.Row, preds []scanPred) bool {
	for i := range preds {
		var v catalog.Value
		if pos := preds[i].pos; pos >= 0 && pos < len(row) {
			v = row[pos]
		}
		if !preds[i].match(v) {
			return false
		}
	}
	return true
}

// match evaluates the predicate against a value of its column.
func (p *scanPred) match(v catalog.Value) bool {
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
		return !v.IsNull() && (catalog.Compare(v, p.Lo) >= 0 && catalog.Compare(v, p.Hi) <= 0) != p.Not
	case sqlparser.PredIn:
		return !v.IsNull() && slices.ContainsFunc(p.Values, func(c catalog.Value) bool { return catalog.Equal(v, c) }) != p.Not
	case sqlparser.PredLike:
		return !v.IsNull() && (p.re != nil && p.re.MatchString(v.AsString())) != p.Not
	case sqlparser.PredIsNull:
		return v.IsNull() != p.Not
	}
	return true
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
