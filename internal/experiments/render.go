package experiments

import (
	"fmt"
	"strings"

	"galo/internal/core"
)

// RenderExp1 renders Figure 9 / Exp-1 as text.
func RenderExp1(rows []Exp1Row) string {
	var b strings.Builder
	b.WriteString("Exp-1 / Figure 9 — learning scalability\n")
	b.WriteString("join-threshold | avg ms/query | avg ms/sub-query | sub-queries | templates | avg improvement\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%14d | %12.1f | %16.2f | %11d | %9d | %14.0f%%\n",
			r.JoinThreshold, r.AvgMsPerQuery, r.AvgMsPerSubQuery, r.SubQueries, r.TemplatesLearned, r.AvgImprovement*100)
	}
	for _, r := range rows {
		if r.Report != nil {
			fmt.Fprintf(&b, "learning funnel, threshold %d: %s\n", r.JoinThreshold, r.Report.Funnel)
		}
	}
	return b.String()
}

// RenderExp2 renders Figure 10a/10b and the reuse count as text.
func RenderExp2(res *Exp2Result) string {
	var b strings.Builder
	figures := []string{"10a — TPC-DS", "10b — client"}
	for i, w := range []Exp2Workload{res.TPCDS, res.Client} {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "Exp-2 / Figure %s workload, optimizer with GALO versus without\n", figures[i])
		b.WriteString(renderOutcomes(w.Outcomes))
		fmt.Fprintf(&b, "summary: %d/%d queries matched (%d rewrites kept), avg improvement %.0f%%, templates learned %d\n",
			w.Summary.Matched, w.Summary.Queries, w.Summary.Applied, w.Summary.AvgImprovement*100, w.Templates)
		fmt.Fprintf(&b, "learning funnel: %s\n", w.Funnel)
	}
	fmt.Fprintf(&b, "cross-workload reuse: %d client queries improved by a pattern learned on TPC-DS\n",
		res.CrossWorkloadMatches)
	return b.String()
}

func renderOutcomes(outcomes []core.QueryOutcome) string {
	var b strings.Builder
	b.WriteString("query          | matched | original ms | GALO ms | normalized runtime\n")
	for _, o := range outcomes {
		if !o.Applied {
			continue
		}
		norm := 100.0
		if o.OriginalMillis > 0 {
			norm = o.GaloMillis / o.OriginalMillis * 100
		}
		fmt.Fprintf(&b, "%-14s | yes     | %11.1f | %7.1f | %5.1f%%\n", o.Query, o.OriginalMillis, o.GaloMillis, norm)
	}
	return b.String()
}

// RenderExp3 renders Figure 11 as text.
func RenderExp3(rows []Exp3Row) string {
	var b strings.Builder
	b.WriteString("Exp-3 / Figure 11 — matching time vs number of joined tables\n")
	b.WriteString("tables | fragments | ms per KB probe | as SPARQL text\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d | %9d | %15.3f | %14.3f\n", r.Tables, r.Fragments, r.MatchMillisPerCall, r.TextMillisPerCall)
	}
	return b.String()
}

// RenderExp4 renders Figure 12 as text.
func RenderExp4(rows []Exp4Row) string {
	var b strings.Builder
	b.WriteString("Exp-4 / Figure 12 — matching engine routinization\n")
	b.WriteString("queries | KB templates | total match ms\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7d | %12d | %14.1f\n", r.Queries, r.KBTemplates, r.TotalMillis)
	}
	return b.String()
}

// RenderExp56 renders Figures 13 and 14 as text.
func RenderExp56(rows []Exp56Row) string {
	var b strings.Builder
	b.WriteString("Exp-5 / Figure 13 — time to learn problem patterns (minutes)\n")
	b.WriteString("pattern | query       | expert min | GALO min\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7d | %-11s | %10.1f | %8.3f\n", r.Pattern, r.Query, r.ExpertMinutes, r.GaloMinutes)
	}
	b.WriteString("\nExp-6 / Figure 14 — quality of learned problem patterns (% improvement over optimizer plan)\n")
	b.WriteString("pattern | expert | GALO | expert found fix\n")
	for _, r := range rows {
		star := ""
		if !r.ExpertFoundFix {
			star = " (*)"
		}
		fmt.Fprintf(&b, "%7d | %5.0f%% | %3.0f%% | %v%s\n",
			r.Pattern, r.ExpertImprovement*100, r.GaloImprovement*100, r.ExpertFoundFix, star)
	}
	return b.String()
}
