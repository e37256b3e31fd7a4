package client

import (
	"slices"
	"strings"
	"testing"

	"galo/internal/executor"
	"galo/internal/optimizer"
	"galo/internal/sqlparser"
)

func TestSchemaAndFigure1Preconditions(t *testing.T) {
	s := Schema()
	for _, name := range []string{OpenIn, EntryIdx, Account, Branch, CustomerInfo, Product, Region, TxLog} {
		if s.Table(name) == nil {
			t.Errorf("missing table %s", name)
		}
	}
	ei := s.Table(EntryIdx).IndexByName("EI_ENTRY_IDX")
	if ei == nil || ei.ClusterRatio > 0.3 {
		t.Errorf("entry_idx entry-key index should be poorly clustered: %+v", ei)
	}
}

func TestQueriesAre116AndResolve(t *testing.T) {
	qs := Queries()
	if len(qs) != 116 {
		t.Fatalf("Queries() = %d, want 116", len(qs))
	}
	schema := Schema()
	names := map[string]bool{}
	for _, q := range qs {
		if names[q.Name] {
			t.Errorf("duplicate query name %s", q.Name)
		}
		names[q.Name] = true
		if err := sqlparser.Resolve(q.Clone(), schema); err != nil {
			t.Errorf("%s does not resolve: %v", q.Name, err)
		}
	}
	// Query #8 is the Figure 1 shape.
	if qs[7].NumJoins() != 1 || !slices.ContainsFunc(qs[7].From, func(r sqlparser.TableRef) bool { return strings.EqualFold(r.Table, EntryIdx) }) {
		t.Errorf("Q08 is not the Figure 1 join: %v", qs[7].SQL())
	}
}

func TestGenerateAndRunFigure1Query(t *testing.T) {
	db, err := Generate(GenOptions{Seed: 2, Scale: 0.05, Hazards: true})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if db.RowCount(OpenIn) == 0 || db.RowCount(EntryIdx) == 0 {
		t.Fatalf("tables not populated")
	}
	if db.Catalog.Stats(OpenIn).StaleFactor >= 1 {
		t.Errorf("hazards not installed")
	}
	opt := optimizer.New(db.Catalog, optimizer.DefaultOptions())
	plan, _, err := opt.Optimize(Fig1Query())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	res, err := executor.New(db).Execute(plan, Fig1Query())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Stats.ElapsedMillis <= 0 {
		t.Errorf("no simulated runtime recorded")
	}
}

func TestGenerateDeterministicAndScaled(t *testing.T) {
	a, err := Generate(GenOptions{Seed: 4, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenOptions{Seed: 4, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if a.RowCount(OpenIn) != b.RowCount(OpenIn) {
		t.Errorf("generation not deterministic")
	}
	big, err := Generate(GenOptions{Seed: 4, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if big.RowCount(OpenIn) <= a.RowCount(OpenIn) {
		t.Errorf("scale did not grow open_in")
	}
}
