package optimizer

import (
	"fmt"

	"galo/internal/catalog"
	"galo/internal/sqlparser"
)

// rewrite is the tier-1 query-rewrite engine: heuristic, semantics-preserving
// transformations applied before cost-based planning, as in DB2's query
// rewrite stage. Implemented rewrites:
//
//   - duplicate predicate elimination;
//   - predicate transitivity: a.x = b.y AND b.y = c  ==>  also a.x = c, which
//     gives the cost-based tier more local filtering opportunities;
//   - contradiction detection for BETWEEN with an empty range (noted, the
//     predicate is kept so the executor still returns zero rows).
func (o *Optimizer) rewrite(q *sqlparser.Query) (notes []string) {
	// Duplicate elimination, in place: q is the caller's own clone.
	seen := make(map[string]bool, len(q.Where))
	dedup := q.Where[:0]
	for _, p := range q.Where {
		key := p.String()
		if seen[key] {
			notes = append(notes, fmt.Sprintf("removed duplicate predicate %s", key))
			continue
		}
		seen[key] = true
		dedup = append(dedup, p)
	}
	q.Where = dedup

	// Predicate transitivity across equality join predicates: equality,
	// range-comparison and BETWEEN predicates on one side of a.x = b.y hold
	// for the other side too. Range transitivity is what carries a dimension's
	// date-range restriction onto the fact table's join key, giving the
	// cost-based tier a sargable fact-side predicate (and, with stale fact
	// statistics, the Figure 8 misestimation surface).
	var inferred []sqlparser.Predicate
	for _, jp := range q.Where {
		if !jp.IsJoin() {
			continue
		}
		for _, lp := range q.Where {
			transitive := false
			switch {
			case lp.Kind == sqlparser.PredCompare:
				switch lp.Op {
				case "=", "<", "<=", ">", ">=":
					transitive = true
				}
			case lp.Kind == sqlparser.PredBetween && !lp.Not:
				transitive = true
			}
			if !transitive {
				continue
			}
			var target sqlparser.ColumnRef
			if lp.Left == jp.Left {
				target = jp.Right
			} else if lp.Left == jp.Right {
				target = jp.Left
			} else {
				continue
			}
			cand := lp
			cand.Left = target
			if key := cand.String(); !seen[key] {
				seen[key] = true
				inferred = append(inferred, cand)
				notes = append(notes,
					fmt.Sprintf("inferred %s from %s and %s", key, jp.String(), lp.String()))
			}
		}
	}
	q.Where = append(q.Where, inferred...)

	// Contradiction detection.
	for _, p := range q.Where {
		if p.Kind == sqlparser.PredBetween && !p.Not && catalog.Compare(p.Lo, p.Hi) > 0 {
			notes = append(notes,
				fmt.Sprintf("predicate %s can never be satisfied", p.String()))
		}
	}
	return notes
}
