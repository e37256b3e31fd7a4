// tpcds_reopt reproduces the shape of the paper's Figure 10a on a scaled-down
// TPC-DS workload: it learns a knowledge base offline over the workload, then
// re-optimizes every query and prints the normalized runtime of each matched
// query (GALO runtime as a percentage of the original runtime, matching
// overhead included).
package main

import (
	"flag"
	"fmt"
	"log"

	"galo"
)

func main() {
	scale := flag.Float64("scale", 0.15, "data scale factor")
	queries := flag.Int("queries", 40, "number of workload queries (99 = full workload)")
	flag.Parse()

	tpcds, _ := galo.ScenarioByName("tpcds")
	db, err := tpcds.Generate(galo.ScenarioGenOptions{Seed: 7, Scale: *scale, Hazards: true})
	if err != nil {
		log.Fatal(err)
	}
	cfg := galo.DefaultConfig()
	cfg.Learning.Workload = "tpcds"
	sys := galo.NewSystem(db, cfg)

	workload := tpcds.HazardQueries(db, 0)
	if *queries > 0 && *queries < len(workload) {
		workload = workload[:*queries]
	}
	fmt.Printf("offline learning over %d TPC-DS queries...\n", len(workload))
	report, err := sys.Learn(workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("knowledge base: %d templates (avg rewrite improvement %.0f%%)\n\n", report.TemplatesAdded, report.AvgImprovement*100)

	outcomes, summary, err := sys.ReoptimizeWorkload(workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query          original(ms)   GALO(ms)   normalized")
	for _, o := range outcomes {
		if !o.Applied {
			continue
		}
		fmt.Printf("%-14s %12.1f %10.1f   %5.1f%%\n",
			o.Query, o.OriginalMillis, o.GaloMillis, o.GaloMillis/o.OriginalMillis*100)
	}
	fmt.Printf("\n%d of %d queries matched, %d re-optimized; average improvement: %.0f%%\n",
		summary.Matched, summary.Queries, summary.Applied, summary.AvgImprovement*100)
	fmt.Printf("workload runtime: %.1f ms without GALO, %.1f ms with GALO\n",
		summary.TotalOriginal, summary.TotalGalo)
}
