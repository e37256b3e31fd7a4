// Package optimizer implements the minidb two-tier optimizer the paper's
// system sits on top of: a query-rewrite tier applying heuristic
// simplifications, and a cost-based tier performing System-R style dynamic
// programming join enumeration with access-path and join-method selection.
//
// The optimizer plans from catalog statistics (which may be stale, sampled or
// missing correlation information), so its estimates can diverge from the
// runtime truth — that divergence is what GALO's learning engine harvests.
// The optimizer also honours OPTGUIDELINES documents (internal/guideline),
// which is the mechanism GALO uses for re-optimization: guidelines constrain
// join methods, join order and access methods, and inapplicable guidelines
// are dropped, exactly as in the paper.
package optimizer

import (
	"fmt"
	"strings"

	"galo/internal/catalog"
	"galo/internal/guideline"
	"galo/internal/qgm"
	"galo/internal/sqlparser"
)

// Options configures the optimizer.
type Options struct {
	// JoinEnumDPLimit is the maximum number of table references planned with
	// exhaustive dynamic programming; larger queries use a greedy heuristic,
	// mirroring how production optimizers cap enumeration.
	JoinEnumDPLimit int
	// UseColumnGroups makes the estimator consult column-group (correlation)
	// statistics when present. Off by default: the independence assumption is
	// one of the estimation errors the paper's problem patterns stem from.
	UseColumnGroups bool
	// EnableBloomFilters lets hash joins build a bloom filter on the inner
	// input (the fix of Figure 4).
	EnableBloomFilters bool
	// Guidelines optionally constrains planning (re-optimization).
	Guidelines *guideline.Document
}

// DefaultOptions returns the configuration used by the experiments.
func DefaultOptions() Options {
	return Options{JoinEnumDPLimit: 10, EnableBloomFilters: true}
}

// Report describes what the optimizer did with a query, including which
// guidelines were honoured (the matching engine surfaces this to the user).
type Report struct {
	// UsedDP is true when exhaustive enumeration was used.
	UsedDP bool
	// PlansConsidered counts the buildJoinCand calls of the search that plans
	// the query, over every attempt; not those of the greedy bound's run.
	PlansConsidered int
	// GuidelinesApplied and GuidelinesIgnored index into the guideline
	// document passed in Options.
	GuidelinesApplied []int
	GuidelinesIgnored []int
	// notes are the tier-1 rewrites that fired, as positions in where: the
	// prepared query's rewritten WHERE clause, which nothing writes to.
	notes []rewriteNote
	where []sqlparser.Predicate
}

// RewriteNotes describes the tier-1 rewrites that fired, nil for none. The
// notes are rendered on every call, into a slice the caller owns.
func (r *Report) RewriteNotes() []string {
	if len(r.notes) == 0 {
		return nil
	}
	out := make([]string, len(r.notes))
	for i, n := range r.notes {
		out[i] = n.render(r.where)
	}
	return out
}

// Optimizer plans SQL queries against a catalog. It holds no per-query state:
// any number of goroutines may call Optimize and BuildPlan on one Optimizer.
type Optimizer struct {
	Cat  *catalog.Catalog
	Opts Options
}

// New returns an optimizer over the catalog with the given options.
func New(cat *catalog.Catalog, opts Options) *Optimizer {
	if opts.JoinEnumDPLimit <= 0 {
		opts.JoinEnumDPLimit = 10
	}
	return &Optimizer{Cat: cat, Opts: opts}
}

// Quantifier is one table reference of the query being planned, with the
// estimates the optimizer derived for it. Instances are named Q1..Qn in FROM
// order, matching the TABID references used by guidelines.
type Quantifier struct {
	Ref        sqlparser.TableRef
	Instance   string
	Table      *catalog.Table
	LocalPreds []*sqlparser.Predicate // into the prepared query's WHERE clause
	// RawCard is the optimizer's belief of the table cardinality.
	RawCard float64
	// Card is the estimated cardinality after local predicates.
	Card     float64
	RowWidth int
	Pages    float64
	// bit is 1 << the position in FROM: the quantifier's bit in the
	// enumerator's set masks.
	bit uint64
	// refCols are the columns of the reference the query mentions anywhere.
	refCols []string
}

// Prepared is the half of planning that no guideline can change: the resolved
// and rewritten clone of the query, its quantifiers, join edges and
// interesting orders, and the rewrite notes. Nothing writes to it after
// Prepare returns, so one Prepared serves any number of
// OptimizePrepared calls, concurrent ones included, on any Optimizer over the
// same catalog whose options differ from the preparing one's in Guidelines
// only. It is plain garbage-collected data.
type Prepared struct {
	q      sqlparser.Query
	quants []*Quantifier
	edges  []joinEdge
	// orders are the interesting orders — the instance-qualified columns an
	// order property could pay for: equality join columns (merge joins) and
	// ORDER BY columns (final sort elimination) — sorted as their "Qi.COL"
	// names sort. An order's id is its position plus 1, so walking ids walks
	// the names sorted.
	orders []orderKey
	notes  []rewriteNote // Report.RewriteNotes, as positions in q.Where
	// noteBuf holds the notes of a query with few.
	noteBuf [4]rewriteNote
}

// SQL renders the query as planned: resolved, and rewritten by the first tier.
func (p *Prepared) SQL() string { return p.q.SQL() }

// Optimize plans the query: it resolves column references, applies the
// query-rewrite tier, then runs cost-based enumeration. The returned plan has
// estimated cardinalities and costs on every operator.
func (o *Optimizer) Optimize(q *sqlparser.Query) (*qgm.Plan, *Report, error) {
	p, err := o.Prepare(q)
	if err != nil {
		return nil, nil, err
	}
	return o.OptimizePrepared(p)
}

// Prepare runs the front half of Optimize: resolution, the query-rewrite tier
// and everything the search derives from the query alone.
func (o *Optimizer) Prepare(q *sqlparser.Query) (*Prepared, error) {
	if q == nil {
		return nil, fmt.Errorf("optimizer: nil query")
	}
	// One clone, with room for what the rewrite tier infers.
	p := new(Prepared)
	work := &p.q
	q.CloneInto(work, inferenceRoom(q))
	if err := sqlparser.Resolve(work, o.Cat.Schema); err != nil {
		return nil, err
	}
	if len(work.From) == 0 {
		return nil, fmt.Errorf("optimizer: query references no tables")
	}
	if len(work.From) > maxQuantifiers {
		return nil, fmt.Errorf("optimizer: query references %d tables, the enumerator plans at most %d", len(work.From), maxQuantifiers)
	}
	p.notes = o.rewrite(work, p.noteBuf[:0])
	p.quants = o.Quantifiers(work)
	o.resolveJoins(p)
	return p, nil
}

// OptimizePrepared runs cost-based enumeration over a prepared query under
// this optimizer's guidelines: Optimize's second half.
func (o *Optimizer) OptimizePrepared(p *Prepared) (*qgm.Plan, *Report, error) {
	report := &Report{notes: p.notes, where: p.q.Where}
	root, err := o.enumerate(p, report)
	if err != nil {
		return nil, nil, err
	}
	return o.finishPlan(p, root), report, nil
}

// finishPlan wraps a join tree into the plan Optimize and BuildPlan return.
func (o *Optimizer) finishPlan(p *Prepared, root *qgm.Node) *qgm.Plan {
	root = o.addFinalOperators(&p.q, root)
	plan := qgm.NewPlan(root)
	plan.QueryName = p.q.Name
	plan.TotalCost = root.EstCost
	plan.EstimatedMillis = root.EstCost
	return plan
}

// MustOptimize is Optimize but panics on error; for tests and examples.
func (o *Optimizer) MustOptimize(q *sqlparser.Query) *qgm.Plan {
	p, _, err := o.Optimize(q)
	if err != nil {
		panic(err)
	}
	return p
}

// Quantifiers assigns table instances (Q1..Qn, in FROM order) and derives the
// per-reference estimates. The quantifiers come from one slab; their local
// predicates (PredicatesFor's, as pointers into q.Where) and referenced
// columns are windows of one backing array each, in the order the query lists
// them.
func (o *Optimizer) Quantifiers(q *sqlparser.Query) []*Quantifier {
	npreds, ncols := 0, 0
	for _, ref := range q.From {
		npreds += localPredicates(nil, q, ref.Name())
		ncols += referencedColumns(nil, q, ref.Name())
	}
	preds, cols := make([]*sqlparser.Predicate, npreds), make([]string, ncols)
	slab, out := make([]Quantifier, len(q.From)), make([]*Quantifier, len(q.From))
	for i, ref := range q.From {
		quant := &slab[i]
		*quant = Quantifier{
			Ref:      ref,
			Instance: qgm.InstanceName(i),
			Table:    o.Cat.Table(ref.Table),
			RawCard:  o.Cat.EstimatedCardinality(ref.Table),
			Pages:    o.Cat.EstimatedPages(ref.Table),
			bit:      1 << uint(i),
		}
		if ts := o.Cat.Stats(ref.Table); ts != nil && ts.RowWidth > 0 {
			quant.RowWidth = ts.RowWidth
		} else {
			quant.RowWidth = 64
		}
		n := localPredicates(preds, q, ref.Name())
		quant.LocalPreds, preds = preds[:n:n], preds[n:]
		n = referencedColumns(cols, q, ref.Name())
		quant.refCols, cols = cols[:n:n], cols[n:]
		sel := o.localSelectivity(ref.Table, quant.LocalPreds)
		quant.Card = clampCard(quant.RawCard * sel)
		out[i] = quant
	}
	return out
}

// localPredicates points the front of dst at the local predicates of a FROM
// reference — those PredicatesFor returns, in WHERE order — and returns how
// many there are; a nil dst only counts them.
func localPredicates(dst []*sqlparser.Predicate, q *sqlparser.Query, refName string) int {
	n := 0
	for i := range q.Where {
		if p := &q.Where[i]; p.LocalTo(refName) {
			if dst != nil {
				dst[n] = p
			}
			n++
		}
	}
	return n
}

// addFinalOperators adds SORT (for ORDER BY) and GRPBY (for GROUP BY)
// operators on top of the join tree.
func (o *Optimizer) addFinalOperators(q *sqlparser.Query, root *qgm.Node) *qgm.Node {
	m := o.Cat.Config.PlanCost()
	if len(q.GroupBy) > 0 {
		card := root.EstCardinality
		groups := card / 10
		if groups < 1 {
			groups = 1
		}
		root = &qgm.Node{
			Op:             qgm.OpGRPBY,
			Outer:          root,
			EstCardinality: groups,
			EstCost:        root.EstCost + m.PerRow(card, catalog.GroupByRowCPU),
			RowSize:        root.RowSize,
			OrderedOn:      root.OrderedOn, // dedup keeps encounter order
		}
	}
	if len(q.OrderBy) > 0 {
		// Order-property payoff: a single-column ORDER BY whose column the
		// plan already delivers sorted needs no final SORT.
		if len(q.OrderBy) == 1 && root.OrderedOn != "" {
			if inst := InstanceFor(q, q.OrderBy[0].Table); inst != "" &&
				strings.EqualFold(root.OrderedOn, inst+"."+q.OrderBy[0].Column) {
				return root
			}
		}
		card := root.EstCardinality
		root = &qgm.Node{
			Op:             qgm.OpSORT,
			Outer:          root,
			EstCardinality: card,
			EstCost:        root.EstCost + m.Sort(card, root.RowSize).Millis,
			RowSize:        root.RowSize,
			OrderedOn:      orderByProperty(q),
		}
	}
	return root
}

// orderByProperty returns the instance-qualified first ORDER BY column, the
// order property a final SORT establishes.
func orderByProperty(q *sqlparser.Query) string {
	if len(q.OrderBy) == 0 {
		return ""
	}
	inst := InstanceFor(q, q.OrderBy[0].Table)
	if inst == "" {
		return ""
	}
	return inst + "." + q.OrderBy[0].Column
}

// InstanceFor returns the instance name assigned to a FROM reference name.
func InstanceFor(q *sqlparser.Query, refName string) string {
	for i, ref := range q.From {
		if strings.EqualFold(ref.Name(), refName) {
			return qgm.InstanceName(i)
		}
	}
	return ""
}

func clampCard(c float64) float64 {
	if c < 1 {
		return 1
	}
	return c
}
