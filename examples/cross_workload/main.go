// cross_workload demonstrates the paper's Exp-2 reuse result: problem
// patterns learned over the TPC-DS workload are stored with canonical symbol
// labels, so they match — and repair — queries from the completely different
// client workload without any re-learning. It then walks the workload zoo:
// for each adversarial scenario, it shows the estimation hazard firing under
// default statistics and the scenario's remedy fixing it.
package main

import (
	"fmt"
	"log"

	"galo"
)

func main() {
	// Learn a knowledge base on TPC-DS.
	tpcds, _ := galo.ScenarioByName("tpcds")
	tpcdsDB, err := tpcds.Generate(galo.ScenarioGenOptions{Seed: 11, Scale: 0.12, Hazards: true})
	if err != nil {
		log.Fatal(err)
	}
	tpcdsCfg := galo.DefaultConfig()
	tpcdsCfg.Learning.Workload = "tpcds"
	teacher := galo.NewSystem(tpcdsDB, tpcdsCfg)
	report, err := teacher.Learn(tpcds.HazardQueries(tpcdsDB, 30))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("learned %d templates on the TPC-DS workload\n", report.TemplatesAdded)

	// A different database, a different schema, a different workload — and an
	// empty knowledge base of its own. Import the TPC-DS knowledge.
	client, _ := galo.ScenarioByName("client")
	clientDB, err := client.Generate(galo.ScenarioGenOptions{Seed: 12, Scale: 0.12, Hazards: true})
	if err != nil {
		log.Fatal(err)
	}
	clientCfg := galo.DefaultConfig()
	clientCfg.Learning.Workload = "client"
	student := galo.NewSystem(clientDB, clientCfg)
	if err := student.ImportKB(teacher.KB()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client system starts with %d imported templates and no learning of its own\n\n", student.KB().Size())

	// Re-optimize the client workload with the borrowed knowledge only.
	outcomes, summary, err := student.ReoptimizeWorkload(client.HazardQueries(clientDB, 40))
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Applied {
			fmt.Printf("%-12s rewritten using TPC-DS-learned patterns: %.1f ms -> %.1f ms (%.0f%% faster)\n",
				o.Query, o.OriginalMillis, o.GaloMillis, o.Improvement()*100)
		}
	}
	fmt.Printf("\n%d of %d client queries matched patterns learned on a different workload (%d improved)\n",
		summary.Matched, summary.Queries, summary.Applied)

	// The workload zoo: each scenario builds a different estimation hazard
	// into its data — stale histograms (ohlc), correlated join columns
	// (joblike), per-tenant type skew (trace) — and each carries its own
	// statistical remedy. Pre-learning q-errors show the hazard firing;
	// post-learning q-errors show the remedy working.
	fmt.Println("\nworkload zoo: estimation hazards before and after each scenario's remedy")
	zoo, err := galo.RunZoo(0.15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %-10s %-10s  %s\n", "scenario", "pre p90", "post p90", "hazard")
	for _, r := range zoo {
		fmt.Printf("%-8s %-10.2f %-10.2f  %s\n", r.Scenario, r.PreP90, r.PostP90, r.Hazard)
	}
}
