// Quickstart: build a small TPC-DS-like database, learn a knowledge base from
// a handful of problem queries, then re-optimize one of them and show the
// before/after plans and runtimes — the full offline + online GALO workflow
// in one file.
package main

import (
	"fmt"
	"log"

	"galo"
)

func main() {
	// 1. A populated database with statistics. Hazards=true installs the
	//    estimation blind spots (stale statistics, mis-configured transfer
	//    rate) that make the optimizer beatable — the paper's premise.
	tpcds, _ := galo.ScenarioByName("tpcds")
	db, err := tpcds.Generate(galo.ScenarioGenOptions{Seed: 1, Scale: 0.15, Hazards: true})
	if err != nil {
		log.Fatal(err)
	}

	// 2. A GALO system over that database.
	cfg := galo.DefaultConfig()
	cfg.Learning.Workload = "tpcds"
	sys := galo.NewSystem(db, cfg)

	// 3. Offline learning over a few workload queries, including the
	//    wide-range Figure 8 variants whose stale-histogram misestimate the
	//    optimizer deterministically falls for.
	workload := append(tpcds.HazardQueries(db, 20)[8:], galo.Fig8WideVariants(db, 2)...)
	report, err := sys.Learn(workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned %d problem-pattern templates from %d queries (avg improvement %.0f%%)\n\n",
		report.TemplatesAdded, report.QueriesAnalyzed, report.AvgImprovement*100)

	// 4. Online re-optimization of an incoming query: a fresh wide-range
	//    query the system has not seen (different category, same hazard).
	query := galo.Fig8WideQuery(db)
	query.Name = "QUICKSTART.Q1"

	res, err := sys.Reoptimize(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== plan chosen by the cost-based optimizer ===")
	fmt.Print(galo.FormatPlan(res.OriginalPlan))
	if len(res.Matches) == 0 {
		fmt.Println("no problem pattern matched this query")
		return
	}
	fmt.Printf("\n%d problem pattern(s) matched; guideline document:\n", len(res.Matches))
	xml, _ := res.Guidelines.XML()
	fmt.Println(xml)
	fmt.Println("\n=== plan after GALO re-optimization ===")
	fmt.Print(galo.FormatPlan(res.ReoptimizedPlan))

	// 5. Execute both plans to confirm the improvement.
	before, err := sys.Execute(res.OriginalPlan, query)
	if err != nil {
		log.Fatal(err)
	}
	after, err := sys.Execute(res.ReoptimizedPlan, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated runtime: %.1f ms -> %.1f ms (%d rows in both cases)\n",
		before.Stats.ElapsedMillis, after.Stats.ElapsedMillis, len(after.Rows))
}
