package optimizer

import (
	"strings"

	"galo/internal/catalog"
	"galo/internal/sqlparser"
)

// Selectivity defaults used when statistics are missing, mirroring the
// classic System-R reduction factors. They are the fallback of last resort:
// when a column carries an equi-depth histogram (storage.Analyze), range,
// BETWEEN and equality predicates are estimated from it instead.
const (
	defaultEqSel      = 0.01
	defaultRangeSel   = 1.0 / 3.0
	defaultBetweenSel = 0.25
	defaultLikeSel    = 0.10
	defaultJoinSel    = 0.01
)

// localSelectivity estimates the combined selectivity of local predicates on
// one table. Under the default configuration predicates are assumed
// independent (their selectivities multiply); with UseColumnGroups the
// estimator consults column-group statistics to correct for correlation.
func (o *Optimizer) localSelectivity(table string, preds []*sqlparser.Predicate) float64 {
	if len(preds) == 0 {
		return 1.0
	}
	ts := o.Cat.Stats(table)
	sel := 1.0
	for _, p := range preds {
		sel *= o.predicateSelectivity(ts, *p)
	}
	if o.Opts.UseColumnGroups && ts != nil && len(preds) >= 2 {
		sel = o.applyGroupStats(ts, preds, sel)
	}
	if sel < 1e-9 {
		sel = 1e-9
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// applyGroupStats corrects the independence-assumption product `sel` using
// column-group (correlation) statistics. For every recorded group whose
// columns are all constrained by equality predicates, the product of the
// member columns' individual selectivities is replaced by the group's
// combined selectivity: the exact frequency of the value combination when it
// appears in the group's frequent-combination list, otherwise 1/groupNDV
// (guarded against being smaller than the independence product, since an
// NDV-only group cannot see skew across combinations). Predicates not
// covered by any group keep their independent estimates.
func (o *Optimizer) applyGroupStats(ts *catalog.TableStats, preds []*sqlparser.Predicate, sel float64) float64 {
	type eqPred struct {
		val catalog.Value
		sel float64
	}
	eq := make(map[string]eqPred, len(preds))
	for _, p := range preds {
		if p.Kind == sqlparser.PredCompare && p.Op == "=" {
			eq[strings.ToUpper(p.Left.Column)] = eqPred{p.Value, o.predicateSelectivity(ts, *p)}
		}
	}
	if len(eq) < 2 {
		return sel
	}
	used := make(map[string]bool, len(eq))
	for gi := range ts.Groups {
		g := &ts.Groups[gi]
		if len(g.Columns) < 2 {
			continue
		}
		covered := true
		for _, c := range g.Columns {
			cu := strings.ToUpper(c)
			if _, ok := eq[cu]; !ok || used[cu] {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		product := 1.0
		vals := make([]catalog.Value, len(g.Columns))
		for i, c := range g.Columns {
			e := eq[strings.ToUpper(c)]
			product *= e.sel
			vals[i] = e.val
		}
		groupSel := product
		if cnt, ok := g.FrequencyOf(vals); ok && ts.Cardinality > 0 {
			groupSel = float64(cnt) / float64(ts.Cardinality)
		} else if g.NDV > 0 {
			if gs := 1.0 / float64(g.NDV); gs > groupSel {
				groupSel = gs
			}
		}
		if product > 0 {
			sel = sel / product * groupSel
		}
		for _, c := range g.Columns {
			used[strings.ToUpper(c)] = true
		}
	}
	return sel
}

// predicateSelectivity estimates one predicate's reduction factor.
func (o *Optimizer) predicateSelectivity(ts *catalog.TableStats, p sqlparser.Predicate) float64 {
	var cs *catalog.ColumnStats
	if ts != nil {
		cs = ts.ColumnStats(p.Left.Column)
	}
	switch p.Kind {
	case sqlparser.PredCompare:
		return compareSelectivity(cs, p)
	case sqlparser.PredBetween:
		s := rangeFraction(cs, &p.Lo, &p.Hi)
		if s < 0 {
			s = defaultBetweenSel
		}
		if p.Not {
			s = 1 - s
		}
		return clampSel(s)
	case sqlparser.PredIn:
		s := 0.0
		for _, v := range p.Values {
			if cs != nil {
				if e := cs.Histogram.EqFraction(v); e >= 0 {
					s += e
					continue
				}
				if cs.NDV > 0 {
					s += 1.0 / float64(cs.NDV)
					continue
				}
			}
			s += defaultEqSel
		}
		if p.Not {
			s = 1 - s
		}
		return clampSel(s)
	case sqlparser.PredLike:
		s := defaultLikeSel
		if p.Not {
			s = 1 - s
		}
		return clampSel(s)
	case sqlparser.PredIsNull:
		s := 0.05
		if cs != nil && cs.RowCount > 0 {
			s = float64(cs.NullCount) / float64(cs.RowCount)
		}
		if p.Not {
			s = 1 - s
		}
		return clampSel(s)
	default:
		return defaultEqSel
	}
}

func compareSelectivity(cs *catalog.ColumnStats, p sqlparser.Predicate) float64 {
	switch p.Op {
	case "=":
		if cs != nil {
			if n, ok := cs.FrequencyOf(p.Value); ok && cs.RowCount > 0 {
				return clampSel(float64(n) / float64(cs.RowCount))
			}
			if s := cs.Histogram.EqFraction(p.Value); s >= 0 {
				return clampSel(s)
			}
			if cs.NDV > 0 {
				return clampSel(1.0 / float64(cs.NDV))
			}
		}
		return defaultEqSel
	case "<>":
		if cs != nil {
			if s := cs.Histogram.EqFraction(p.Value); s >= 0 {
				return clampSel(1 - s)
			}
			if cs.NDV > 0 {
				return clampSel(1 - 1.0/float64(cs.NDV))
			}
		}
		return clampSel(1 - defaultEqSel)
	case "<", "<=":
		s := rangeFraction(cs, nil, &p.Value)
		if s < 0 {
			return defaultRangeSel
		}
		return clampSel(s)
	case ">", ">=":
		s := rangeFraction(cs, &p.Value, nil)
		if s < 0 {
			return defaultRangeSel
		}
		return clampSel(s)
	default:
		return defaultRangeSel
	}
}

// rangeFraction estimates what fraction of the column's rows the range
// [lo, hi] covers. The equi-depth histogram answers first when one was
// collected; otherwise the estimate falls back to linear interpolation over
// the column's [min, max] domain (the pre-ANALYZE behaviour). It returns -1
// when neither is possible (missing stats or non-numeric domain).
func rangeFraction(cs *catalog.ColumnStats, lo, hi *catalog.Value) float64 {
	if cs == nil {
		return -1
	}
	if s := cs.Histogram.RangeFraction(lo, hi); s >= 0 {
		return s
	}
	if cs.Min.IsNull() || cs.Max.IsNull() {
		return -1
	}
	switch cs.Min.K {
	case catalog.KindInt, catalog.KindFloat, catalog.KindDate:
	default:
		return -1
	}
	minV, maxV := cs.Min.AsFloat(), cs.Max.AsFloat()
	if maxV <= minV {
		return -1
	}
	loV, hiV := minV, maxV
	if lo != nil && !lo.IsNull() {
		loV = lo.AsFloat()
	}
	if hi != nil && !hi.IsNull() {
		hiV = hi.AsFloat()
	}
	if hiV < loV {
		return 0
	}
	if loV < minV {
		loV = minV
	}
	if hiV > maxV {
		hiV = maxV
	}
	return (hiV - loV) / (maxV - minV)
}

func columnNDV(cat *catalog.Catalog, table, column string) int64 {
	ts := cat.Stats(table)
	if ts == nil {
		return 0
	}
	cs := ts.ColumnStats(column)
	if cs == nil {
		return 0
	}
	return cs.NDV
}

func clampSel(s float64) float64 {
	if s < 1e-9 {
		return 1e-9
	}
	if s > 1 {
		return 1
	}
	return s
}
