package optimizer

import (
	"strings"

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
//
// It rewrites q.Where in place — q is the caller's own clone, with room for
// what inferenceRoom counted — and appends its notes to notes. Predicates are
// compared by sqlparser.Predicate.Equal: two are the same exactly when they
// render the same SQL.
func (o *Optimizer) rewrite(q *sqlparser.Query, notes []rewriteNote) []rewriteNote {
	// Duplicate elimination, in place; a note names the predicate kept.
	dedup := q.Where[:0]
	for _, p := range q.Where {
		if i := indexEqual(dedup, p); i >= 0 {
			notes = append(notes, rewriteNote{kind: noteDuplicate, pred: int32(i)})
			continue
		}
		dedup = append(dedup, p)
	}
	q.Where = dedup

	// Predicate transitivity across equality join predicates: equality,
	// range-comparison and BETWEEN predicates on one side of a.x = b.y hold
	// for the other side too. Range transitivity is what carries a dimension's
	// date-range restriction onto the fact table's join key, giving the
	// cost-based tier a sargable fact-side predicate (and, with stale fact
	// statistics, the Figure 8 misestimation surface). Inferred predicates
	// are appended after the originals and infer nothing themselves.
	original := q.Where
	for ji, jp := range original {
		if !jp.IsJoin() {
			continue
		}
		for li, lp := range original {
			if !transitive(lp) {
				continue
			}
			cand := lp
			if lp.Left == jp.Left {
				cand.Left = jp.Right
			} else if lp.Left == jp.Right {
				cand.Left = jp.Left
			} else {
				continue
			}
			if indexEqual(q.Where, cand) < 0 {
				notes = append(notes, rewriteNote{kind: noteInferred, pred: int32(len(q.Where)), join: int32(ji), local: int32(li)})
				q.Where = append(q.Where, cand)
			}
		}
	}

	// Contradiction detection.
	for i, p := range q.Where {
		if p.Kind == sqlparser.PredBetween && !p.Not && catalog.Compare(p.Lo, p.Hi) > 0 {
			notes = append(notes, rewriteNote{kind: noteNeverSatisfied, pred: int32(i)})
		}
	}
	return notes
}

// transitive reports whether a predicate on one column of an equality join
// holds for the other column too: an equality or range comparison, or a
// BETWEEN.
func transitive(p sqlparser.Predicate) bool {
	switch p.Kind {
	case sqlparser.PredCompare:
		switch p.Op {
		case "=", "<", "<=", ">", ">=":
			return true
		}
	case sqlparser.PredBetween:
		return !p.Not
	}
	return false
}

// inferenceRoom bounds how many predicates rewrite's transitivity rule adds to
// q: one per pair of an equality join predicate and a transitive predicate on
// a column named like one of the join's. It reads q before Resolve, so it
// matches columns by name alone; a name that upper-cases alike without
// folding alike is undercounted, which costs no more than a regrown slice.
func inferenceRoom(q *sqlparser.Query) int {
	n := 0
	for _, jp := range q.Where {
		if !jp.IsJoin() {
			continue
		}
		for _, lp := range q.Where {
			if transitive(lp) && (strings.EqualFold(lp.Left.Column, jp.Left.Column) || strings.EqualFold(lp.Left.Column, jp.Right.Column)) {
				n++
			}
		}
	}
	return n
}

// indexEqual returns the position of the first predicate of ps equal to p, or
// -1.
func indexEqual(ps []sqlparser.Predicate, p sqlparser.Predicate) int {
	for i := range ps {
		if ps[i].Equal(p) {
			return i
		}
	}
	return -1
}

// rewriteNote is one rewrite of the first tier, kept as positions in the
// rewritten WHERE clause and rendered only when a report's notes are read.
type rewriteNote struct {
	kind noteKind
	// pred is the predicate kept in place of a duplicate, the one inferred,
	// or the one never satisfied; join and local are the predicates an
	// inferred one follows from.
	pred, join, local int32
}

type noteKind uint8

const (
	noteDuplicate noteKind = iota
	noteInferred
	noteNeverSatisfied
)

// render writes the note as Report.RewriteNotes reads it.
func (n rewriteNote) render(where []sqlparser.Predicate) string {
	switch n.kind {
	case noteDuplicate:
		return "removed duplicate predicate " + where[n.pred].String()
	case noteInferred:
		return "inferred " + where[n.pred].String() + " from " + where[n.join].String() + " and " + where[n.local].String()
	default:
		return "predicate " + where[n.pred].String() + " can never be satisfied"
	}
}
