// Package trace provides the multi-tenant workload of the zoo: an event
// store shared by NumTenants tenants, where each tenant's traffic is
// dominated by one event type (DominantShare of its rows). The
// (tenant, type) correlation breaks the independence assumption exactly
// where every tenant's hottest query lives; the remedy is column-group
// statistics with frequent value combinations, which record the skewed
// per-tenant mix exactly.
//
// The package also generates deterministic bursty arrival traces
// (Arrivals/Replay): per-tenant request schedules with X-Galo-Client
// identities that drive `galo serve`, exercising admission-control token
// buckets, per-tenant KB namespaces and shard-skew counters with realistic
// bursts instead of uniform client loops.
package trace

import (
	"fmt"

	"galo/internal/catalog"
	"galo/internal/optimizer"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/scenario"
)

// Table names.
const (
	Events = "EVENTS"
	Tenant = "TENANT"
)

// Tenancy geometry. NumTenants and the event-type domain are
// scenario-intrinsic: they do not scale with GenOptions.Scale, so the
// correlation hazard has the same magnitude at any data size.
const (
	// NumTenants is the number of tenants sharing the event store.
	NumTenants = 16
	// DominantShare is the fraction of a tenant's events carrying its
	// dominant event type.
	DominantShare = 0.85
)

// EventTypes is the event type domain. Each type is the dominant type of
// exactly one tenant (DominantType), so the marginal type distribution is
// uniform while the per-tenant distribution is heavily skewed — single-column
// statistics see nothing wrong.
var EventTypes = []string{
	"ingest", "query", "export", "compact", "login", "billing", "webhook", "sync",
	"alert", "replay", "purge", "index", "schema", "backup", "restore", "audit",
}

// TenantID returns the X-Galo-Client identity of tenant i (1-based).
func TenantID(i int) string { return fmt.Sprintf("tenant-%02d", i) }

// DominantType returns the event type that dominates tenant i's traffic
// (1-based). It is the scenario's oracle.
func DominantType(i int) string { return EventTypes[(i-1)%len(EventTypes)] }

// Schema returns the multi-tenant event schema.
func Schema() *catalog.Schema {
	s := catalog.NewSchema("TRACE")

	events := catalog.NewTable(Events,
		catalog.Column{Name: "ev_tenant_sk", Type: catalog.KindInt},
		catalog.Column{Name: "ev_type", Type: catalog.KindString},
		catalog.Column{Name: "ev_status", Type: catalog.KindString},
		catalog.Column{Name: "ev_day", Type: catalog.KindInt},
		catalog.Column{Name: "ev_latency_ms", Type: catalog.KindInt},
		catalog.Column{Name: "ev_bytes", Type: catalog.KindInt},
	)
	mustIndex(events, catalog.Index{Name: "EV_TENANT_IDX", Columns: []string{"ev_tenant_sk"}, ClusterRatio: 0.30})
	mustIndex(events, catalog.Index{Name: "EV_DAY_IDX", Columns: []string{"ev_day"}, ClusterRatio: 0.85})
	s.AddTable(events)

	tenant := catalog.NewTable(Tenant,
		catalog.Column{Name: "t_tenant_sk", Type: catalog.KindInt},
		catalog.Column{Name: "t_name", Type: catalog.KindString},
		catalog.Column{Name: "t_plan", Type: catalog.KindString},
		catalog.Column{Name: "t_region", Type: catalog.KindString},
	)
	tenant.PrimaryKey = []string{"T_TENANT_SK"}
	mustIndex(tenant, catalog.Index{Name: "T_TENANT_SK_IDX", Columns: []string{"t_tenant_sk"}, Unique: true, ClusterRatio: 0.99})
	s.AddTable(tenant)

	return s
}

func mustIndex(t *catalog.Table, idx catalog.Index) {
	if err := t.AddIndex(idx); err != nil {
		panic(err)
	}
}

// ColumnGroups returns the correlation statistics specification that fixes
// this scenario: the (tenant, type) group with its frequent combinations.
func ColumnGroups() map[string][][]string {
	return map[string][][]string{
		Events: {{"ev_tenant_sk", "ev_type"}},
	}
}

// workload implements scenario.Scenario.
type workload struct{}

// New returns the multi-tenant trace scenario.
func New() scenario.Scenario { return workload{} }

func (workload) Name() string { return "trace" }

func (workload) Hazard() string {
	return "per-tenant dominant event types: uniform marginals hide the (tenant, type) correlation"
}

func (workload) DefaultGen() scenario.GenOptions {
	return scenario.GenOptions{Seed: 20190803, Scale: 1.0, Hazards: true}
}

func rowCounts(scale float64) (nEvents int) {
	if scale <= 0 {
		scale = 1.0
	}
	nEvents = int(24000 * scale)
	if nEvents < 128*NumTenants {
		nEvents = 128 * NumTenants
	}
	return nEvents
}

// Generate builds the multi-tenant event store. Statistics are always
// fresh; with Hazards on, no column-group statistics exist, so the
// optimizer multiplies the uniform tenant and type marginals and
// underestimates every tenant's dominant-type scan by ~DominantShare *
// len(EventTypes).
func (workload) Generate(opts scenario.GenOptions) (*storage.Database, error) {
	nEvents := rowCounts(opts.Scale)
	cat := catalog.New(Schema())
	db := storage.NewDatabase(cat)
	g := storage.NewGenerator(opts.Seed)

	plans := []string{"free", "pro", "enterprise"}
	regions := []string{"us-east", "us-west", "eu-central", "ap-south"}
	for i := 1; i <= NumTenants; i++ {
		if err := db.Insert(Tenant, storage.Row{
			catalog.Int(int64(i)),
			catalog.String(TenantID(i)),
			catalog.String(plans[i%len(plans)]),
			catalog.String(regions[i%len(regions)]),
		}); err != nil {
			return nil, err
		}
	}

	statuses := []string{"ok", "ok", "ok", "retry", "error"}
	for i := 0; i < nEvents; i++ {
		tenant := g.Intn(NumTenants) + 1
		var typ string
		if g.Bool(DominantShare) {
			typ = DominantType(tenant)
		} else {
			// A non-dominant type, uniform over the remaining domain.
			off := g.Intn(len(EventTypes) - 1)
			typ = EventTypes[((tenant-1)+1+off)%len(EventTypes)]
		}
		if err := db.Insert(Events, storage.Row{
			catalog.Int(int64(tenant)),
			catalog.String(typ),
			catalog.String(statuses[g.Intn(len(statuses))]),
			catalog.Int(g.UniformInt(1, 365)),
			catalog.Int(g.SkewedInt(5000, 1.2)),
			catalog.Int(g.UniformInt(64, 1<<20)),
		}); err != nil {
			return nil, err
		}
	}

	analyze := storage.AnalyzeOptions{Histograms: true}
	if !opts.Hazards {
		analyze.ColumnGroups = ColumnGroups()
	}
	if err := storage.AnalyzeAll(db, analyze); err != nil {
		return nil, err
	}

	cfg := db.Catalog.Config
	evPages := db.Pages(Events)
	cfg.BufferPoolPages = max(32, evPages/5)
	cfg.SortHeapPages = max(4, evPages/40)
	db.Catalog.Config = cfg
	return db, nil
}

// TenantQuery returns tenant i's hottest query: its own events of its
// dominant type. This is the scan the correlation hazard hits.
func TenantQuery(i int) *sqlparser.Query {
	q := sqlparser.MustParse(fmt.Sprintf(
		`SELECT ev_day, ev_status, ev_latency_ms FROM events
		 WHERE ev_tenant_sk = %d AND ev_type = '%s'`, i, DominantType(i)))
	q.Name = fmt.Sprintf("TRACE.T%02d", i)
	return q
}

// TenantJoinQuery returns tenant i's dominant-type scan joined with the
// tenant dimension. The dimension is pinned by name as well as key: the
// optimizer infers t_tenant_sk = i transitively, and the executed dimension
// scan must apply an equivalent restriction for est/act to be comparable.
// Unlike the single-table TenantQuery, the join carries a fragment the
// matching engine probes the knowledge base for, so a trace of these
// exercises the per-client probe budgets.
func TenantJoinQuery(i int) *sqlparser.Query {
	q := sqlparser.MustParse(fmt.Sprintf(
		`SELECT t_name, ev_day, ev_latency_ms FROM events, tenant
		 WHERE ev_tenant_sk = t_tenant_sk AND t_name = '%s'
		 AND ev_tenant_sk = %d AND ev_type = '%s'`,
		TenantID(i), i, DominantType(i)))
	q.Name = fmt.Sprintf("TRACE.J%02d", i)
	return q
}

// HazardQueries returns each tenant's dominant-type scan (optionally joined
// with the tenant dimension) plus one non-dominant control.
func (workload) HazardQueries(db *storage.Database, n int) []*sqlparser.Query {
	var out []*sqlparser.Query
	for i := 1; i <= NumTenants/2; i++ {
		out = append(out, TenantQuery(i))
	}
	for i := NumTenants/2 + 1; i <= NumTenants/2+2; i++ {
		out = append(out, TenantJoinQuery(i))
	}
	// Control: single-column predicates the marginal statistics estimate well.
	q := sqlparser.MustParse(`SELECT ev_day, ev_bytes FROM events WHERE ev_tenant_sk = 1`)
	q.Name = "TRACE.C01"
	out = append(out, q)
	return scenario.First(out, n)
}

// Learn is the trace remedy: collect the (tenant, type) column group with
// its frequent value combinations — 256 combinations cover the whole domain,
// so every tenant's skewed mix is recorded exactly — and turn on the
// estimator's group lookup.
func (workload) Learn(db *storage.Database) (optimizer.Options, error) {
	o, err := scenario.Reanalyze(db, storage.AnalyzeOptions{Histograms: true, ColumnGroups: ColumnGroups()})
	o.UseColumnGroups = true
	return o, err
}
