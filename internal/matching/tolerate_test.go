package matching

import (
	"errors"
	"testing"

	"galo/internal/optimizer"
	"galo/internal/sparql"
	"galo/internal/workload/tpcds"
)

// failingEndpoint answers every probe with an error — a dead remote shard as
// the matching engine sees it once the gateway's retries are exhausted.
type failingEndpoint struct{}

var errEndpointDown = errors.New("endpoint down")

func (failingEndpoint) Select(string) ([]sparql.Solution, error) { return nil, errEndpointDown }

func TestProbeErrorsFailMatchingByDefault(t *testing.T) {
	db, _ := fixture(t)
	eng := New(db.Catalog, failingEndpoint{}, DefaultOptions())
	opt := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	plan := opt.MustOptimize(tpcds.Fig8WideQuery(db))
	if _, err := eng.MatchPlan(plan); err == nil {
		t.Fatal("MatchPlan succeeded against a dead endpoint without TolerateProbeErrors")
	}
}

func TestTolerateProbeErrorsDegradesInsteadOfFailing(t *testing.T) {
	db, _ := fixture(t)
	opts := DefaultOptions()
	opts.TolerateProbeErrors = true
	eng := New(db.Catalog, failingEndpoint{}, opts)
	opt := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	plan := opt.MustOptimize(tpcds.Fig8WideQuery(db))

	matches, stats, err := eng.MatchPlanStats(plan)
	if err != nil {
		t.Fatalf("MatchPlanStats = %v, want degraded success", err)
	}
	if len(matches) != 0 {
		t.Errorf("dead endpoint produced %d matches", len(matches))
	}
	if stats.Errors == 0 {
		t.Errorf("stats.Errors = 0, want the failed probes counted")
	}
	if stats.Probes < stats.Errors {
		t.Errorf("stats.Probes = %d < stats.Errors = %d", stats.Probes, stats.Errors)
	}

	// The whole online workflow still answers: Reoptimize returns the
	// original plan unrewritten rather than an error.
	res, err := eng.Reoptimize(tpcds.Fig8WideQuery(db))
	if err != nil {
		t.Fatalf("Reoptimize = %v, want degraded success", err)
	}
	if res.Rewritten() {
		t.Errorf("dead endpoint rewrote the plan")
	}
}
