// guideline_tuning shows GALO used the way the paper's Figure 1 describes:
// as a tool for a performance engineer debugging one problematic query. It
// plans the client workload's query #8 (the OPEN_IN / ENTRY_IDX join whose
// manual fix took the runtime from nine hours to five minutes), learns a
// rewrite for it, prints the OPTGUIDELINES document a DBA would submit with
// the query, and shows the plan change and runtime effect.
package main

import (
	"fmt"
	"log"

	"galo"
)

func main() {
	client, _ := galo.ScenarioByName("client")
	db, err := client.Generate(galo.ScenarioGenOptions{Seed: 8, Scale: 0.15, Hazards: true})
	if err != nil {
		log.Fatal(err)
	}
	cfg := galo.DefaultConfig()
	cfg.Learning.Workload = "client"
	sys := galo.NewSystem(db, cfg)

	// The problem query: Figure 1's MSJOIN between OPEN_IN and ENTRY_IDX.
	problem := client.HazardQueries(db, 8)[7] // CLIENT.Q08
	fmt.Printf("problem query %s:\n  %s\n\n", problem.Name, problem.SQL())

	plan, err := sys.Optimize(problem)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== plan chosen by the cost-based optimizer ===")
	fmt.Print(galo.FormatPlan(plan))

	// Offline analysis of just this query (what the learning engine would do
	// overnight for the whole workload).
	report, err := sys.Learn([]*galo.Query{problem})
	if err != nil {
		log.Fatal(err)
	}
	if report.TemplatesAdded == 0 {
		fmt.Println("the optimizer's plan could not be beaten for this query")
		return
	}
	fmt.Printf("\nlearning found %d rewrite(s); knowledge base now holds %d template(s)\n",
		report.TemplatesAdded, sys.KB().Size())

	res, err := sys.Reoptimize(problem)
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Matches) == 0 {
		fmt.Println("no template matched online")
		return
	}
	xml, _ := res.Guidelines.XML()
	fmt.Println("\n=== guideline document to submit with the query ===")
	fmt.Println(xml)
	fmt.Println("\n=== plan after re-optimization with the guideline ===")
	fmt.Print(galo.FormatPlan(res.ReoptimizedPlan))

	before, err := sys.Execute(res.OriginalPlan, problem)
	if err != nil {
		log.Fatal(err)
	}
	after, err := sys.Execute(res.ReoptimizedPlan, problem)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated runtime: %.1f ms -> %.1f ms\n", before.Stats.ElapsedMillis, after.Stats.ElapsedMillis)
}
