// Package client provides the synthetic stand-in for the real-world IBM
// client workload the paper evaluates against (116 queries over a customer
// database): an order-entry style schema whose OPEN_IN and ENTRY_IDX tables
// reproduce the running example of Figure 1, a deterministic data generator,
// and a 116-query workload with a naming context completely different from
// the TPC-DS workload — which is what makes the cross-workload pattern-reuse
// experiment (Exp-2) meaningful.
package client

import (
	"fmt"

	"galo/internal/catalog"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/scenario"
)

// Table names.
const (
	OpenIn       = "OPEN_IN"
	EntryIdx     = "ENTRY_IDX"
	Account      = "ACCOUNT"
	Branch       = "BRANCH"
	CustomerInfo = "CUSTOMER_INFO"
	Product      = "PRODUCT"
	Region       = "REGION"
	TxLog        = "TRANSACTION_LOG"
)

// Schema returns the client schema. ENTRY_IDX's entry-key index is poorly
// clustered, mirroring the conditions behind the Figure 1 problem pattern.
func Schema() *catalog.Schema {
	s := catalog.NewSchema("CLIENT")
	add := func(t *catalog.Table, idx ...catalog.Index) {
		for _, i := range idx {
			if err := t.AddIndex(i); err != nil {
				panic(err)
			}
		}
		s.AddTable(t)
	}

	add(catalog.NewTable(OpenIn,
		catalog.Column{Name: "oi_entry_key", Type: catalog.KindInt},
		catalog.Column{Name: "oi_account_id", Type: catalog.KindInt},
		catalog.Column{Name: "oi_status", Type: catalog.KindString},
		catalog.Column{Name: "oi_amount", Type: catalog.KindFloat},
		catalog.Column{Name: "oi_open_date", Type: catalog.KindInt},
	),
		catalog.Index{Name: "OI_ENTRY_IDX", Columns: []string{"oi_entry_key"}, ClusterRatio: 0.85},
		catalog.Index{Name: "OI_ACCOUNT_IDX", Columns: []string{"oi_account_id"}, ClusterRatio: 0.3})

	add(catalog.NewTable(EntryIdx,
		catalog.Column{Name: "ei_entry_key", Type: catalog.KindInt},
		catalog.Column{Name: "ei_product_id", Type: catalog.KindInt},
		catalog.Column{Name: "ei_branch_id", Type: catalog.KindInt},
		catalog.Column{Name: "ei_entry_type", Type: catalog.KindString},
		catalog.Column{Name: "ei_posted", Type: catalog.KindString},
	),
		catalog.Index{Name: "EI_ENTRY_IDX", Columns: []string{"ei_entry_key"}, ClusterRatio: 0.15},
		catalog.Index{Name: "EI_PRODUCT_IDX", Columns: []string{"ei_product_id"}, ClusterRatio: 0.2})

	add(catalog.NewTable(Account,
		catalog.Column{Name: "ac_account_id", Type: catalog.KindInt},
		catalog.Column{Name: "ac_customer_id", Type: catalog.KindInt},
		catalog.Column{Name: "ac_branch_id", Type: catalog.KindInt},
		catalog.Column{Name: "ac_type", Type: catalog.KindString},
		catalog.Column{Name: "ac_balance", Type: catalog.KindFloat},
	),
		catalog.Index{Name: "AC_ACCOUNT_IDX", Columns: []string{"ac_account_id"}, Unique: true, ClusterRatio: 0.95})

	add(catalog.NewTable(Branch,
		catalog.Column{Name: "br_branch_id", Type: catalog.KindInt},
		catalog.Column{Name: "br_region_id", Type: catalog.KindInt},
		catalog.Column{Name: "br_name", Type: catalog.KindString},
	),
		catalog.Index{Name: "BR_BRANCH_IDX", Columns: []string{"br_branch_id"}, Unique: true, ClusterRatio: 0.98})

	add(catalog.NewTable(CustomerInfo,
		catalog.Column{Name: "ci_customer_id", Type: catalog.KindInt},
		catalog.Column{Name: "ci_segment", Type: catalog.KindString},
		catalog.Column{Name: "ci_country", Type: catalog.KindString},
		catalog.Column{Name: "ci_risk_score", Type: catalog.KindInt},
	),
		catalog.Index{Name: "CI_CUSTOMER_IDX", Columns: []string{"ci_customer_id"}, Unique: true, ClusterRatio: 0.96})

	add(catalog.NewTable(Product,
		catalog.Column{Name: "pr_product_id", Type: catalog.KindInt},
		catalog.Column{Name: "pr_category", Type: catalog.KindString},
		catalog.Column{Name: "pr_fee", Type: catalog.KindFloat},
	),
		catalog.Index{Name: "PR_PRODUCT_IDX", Columns: []string{"pr_product_id"}, Unique: true, ClusterRatio: 0.97})

	add(catalog.NewTable(Region,
		catalog.Column{Name: "rg_region_id", Type: catalog.KindInt},
		catalog.Column{Name: "rg_name", Type: catalog.KindString},
	),
		catalog.Index{Name: "RG_REGION_IDX", Columns: []string{"rg_region_id"}, Unique: true, ClusterRatio: 0.99})

	add(catalog.NewTable(TxLog,
		catalog.Column{Name: "tx_account_id", Type: catalog.KindInt},
		catalog.Column{Name: "tx_product_id", Type: catalog.KindInt},
		catalog.Column{Name: "tx_amount", Type: catalog.KindFloat},
		catalog.Column{Name: "tx_status", Type: catalog.KindString},
	),
		catalog.Index{Name: "TX_ACCOUNT_IDX", Columns: []string{"tx_account_id"}, ClusterRatio: 0.25},
		catalog.Index{Name: "TX_PRODUCT_IDX", Columns: []string{"tx_product_id"}, ClusterRatio: 0.18})

	return s
}

// GenOptions controls data generation.
type GenOptions = scenario.GenOptions

// New returns the client workload as a scenario: Generate's hazards, the 116
// queries, and a remedy that collects the statistics again, which resets the
// stale factors, and restores the runtime transfer rate.
func New() scenario.Scenario {
	return scenario.Fixed{
		Key:        "client",
		HazardText: "stale statistics on OPEN_IN, ENTRY_IDX and TRANSACTION_LOG, and a configured transfer rate 3x the runtime's",
		Gen:        scenario.GenOptions{Seed: 20190523, Scale: 1.0, Hazards: true},
		Build:      Generate, Queries: Queries,
	}
}

// Generate builds and populates the client database and collects statistics.
// With Hazards set, the big transactional tables' statistics are marked stale
// and the configured transfer rate overstates the runtime's 3x, as in the
// TPC-DS workload.
func Generate(opts GenOptions) (*storage.Database, error) {
	if opts.Scale <= 0 {
		opts.Scale = 1.0
	}
	n := func(base int) int {
		v := int(float64(base) * opts.Scale)
		if v < 4 {
			v = 4
		}
		return v
	}
	nOpen := n(26000)
	nEntry := n(32000)
	nAccount := n(4000)
	nBranch := n(60)
	nCustomer := n(3000)
	nProduct := n(400)
	nRegion := 8
	nTx := n(20000)

	cat := catalog.New(Schema())
	db := storage.NewDatabase(cat)
	g := storage.NewGenerator(opts.Seed)

	statuses := []string{"OPEN", "PENDING", "CLOSED", "HOLD"}
	segments := []string{"RETAIL", "CORPORATE", "SMB", "PRIVATE"}
	countries := []string{"CA", "US", "UK", "DE", "BR", "IN"}
	categories := []string{"CHECKING", "SAVINGS", "LOAN", "CARD", "FX", "WIRE"}
	entryTypes := []string{"DEBIT", "CREDIT", "FEE", "ADJ"}

	for i := 1; i <= nRegion; i++ {
		if err := db.Insert(Region, storage.Row{catalog.Int(int64(i)), catalog.String(fmt.Sprintf("Region-%d", i))}); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= nBranch; i++ {
		if err := db.Insert(Branch, storage.Row{
			catalog.Int(int64(i)), catalog.Int(g.UniformInt(1, int64(nRegion))),
			catalog.String(fmt.Sprintf("Branch-%03d", i))}); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= nCustomer; i++ {
		if err := db.Insert(CustomerInfo, storage.Row{
			catalog.Int(int64(i)), catalog.String(g.Choice(segments)),
			catalog.String(g.WeightedChoice(countries, []float64{4, 3, 1, 1, 0.5, 0.5})),
			catalog.Int(g.UniformInt(1, 100))}); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= nProduct; i++ {
		if err := db.Insert(Product, storage.Row{
			catalog.Int(int64(i)), catalog.String(g.Choice(categories)),
			catalog.Float(g.Float(0, 250))}); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= nAccount; i++ {
		if err := db.Insert(Account, storage.Row{
			catalog.Int(int64(i)), catalog.Int(g.SkewedInt(int64(nCustomer), 1.4)),
			catalog.Int(g.UniformInt(1, int64(nBranch))), catalog.String(g.Choice(categories[:4])),
			catalog.Float(g.Float(-5000, 250000))}); err != nil {
			return nil, err
		}
	}
	// OPEN_IN and ENTRY_IDX share the entry-key domain; open items are skewed
	// toward recent entry keys and toward the OPEN status.
	entryDomain := int64(nEntry)
	for i := 0; i < nOpen; i++ {
		if err := db.Insert(OpenIn, storage.Row{
			catalog.Int(entryDomain - g.SkewedInt(entryDomain, 1.6) + 1),
			catalog.Int(g.SkewedInt(int64(nAccount), 1.5)),
			catalog.String(g.WeightedChoice(statuses, []float64{6, 2, 1, 1})),
			catalog.Float(g.Float(1, 100000)),
			catalog.Int(g.UniformInt(1, 3650))}); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= nEntry; i++ {
		if err := db.Insert(EntryIdx, storage.Row{
			catalog.Int(int64(i)),
			catalog.Int(g.SkewedInt(int64(nProduct), 1.8)),
			catalog.Int(g.UniformInt(1, int64(nBranch))),
			catalog.String(g.Choice(entryTypes)),
			catalog.String(g.WeightedChoice([]string{"Y", "N"}, []float64{9, 1}))}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nTx; i++ {
		if err := db.Insert(TxLog, storage.Row{
			catalog.Int(g.SkewedInt(int64(nAccount), 1.7)),
			catalog.Int(g.SkewedInt(int64(nProduct), 1.9)),
			catalog.Float(g.Float(-10000, 10000)),
			catalog.String(g.WeightedChoice(statuses, []float64{1, 2, 6, 1}))}); err != nil {
			return nil, err
		}
	}

	if err := storage.AnalyzeAll(db, storage.AnalyzeOptions{}); err != nil {
		return nil, err
	}
	// As with the TPC-DS workload, size memory relative to the data so that
	// the large transactional tables do not fit in the buffer pool and big
	// sorts and hash builds spill.
	cfg := db.Catalog.Config
	bigPages := db.Pages(OpenIn) + db.Pages(EntryIdx) + db.Pages(TxLog)
	cfg.BufferPoolPages = max(32, bigPages/8)
	cfg.SortHeapPages = max(4, bigPages/40)
	if opts.Hazards {
		_ = db.Catalog.SetStaleFactor(OpenIn, 0.10)
		_ = db.Catalog.SetStaleFactor(EntryIdx, 0.12)
		_ = db.Catalog.SetStaleFactor(TxLog, 0.25)
		cfg.RuntimeTransferRate = cfg.TransferRate
		cfg.TransferRate = cfg.TransferRate * 3.0
	}
	db.Catalog.Config = cfg
	return db, nil
}

// Fig1Query reproduces the join shape of the paper's Figure 1: OPEN_IN joined
// with ENTRY_IDX on the entry key (the client workload's query #8, whose
// rewrite took it from nine hours to five minutes).
func Fig1Query() *sqlparser.Query {
	q := sqlparser.MustParse(`SELECT oi_account_id, oi_amount, ei_product_id
		FROM open_in, entry_idx
		WHERE oi_entry_key = ei_entry_key AND oi_status = 'OPEN' AND ei_posted = 'Y'`)
	q.Name = "CLIENT.Q08"
	return q
}

// Queries returns the 116-query client workload.
func Queries() []*sqlparser.Query {
	var out []*sqlparser.Query
	add := func(sql string) {
		q := sqlparser.MustParse(sql)
		q.Name = fmt.Sprintf("CLIENT.Q%02d", len(out)+1)
		out = append(out, q)
	}
	statuses := []string{"OPEN", "PENDING", "CLOSED", "HOLD"}
	segments := []string{"RETAIL", "CORPORATE", "SMB", "PRIVATE"}
	categories := []string{"CHECKING", "SAVINGS", "LOAN", "CARD", "FX", "WIRE"}
	entryTypes := []string{"DEBIT", "CREDIT", "FEE", "ADJ"}

	// Q01..Q07: filtered single-table and simple lookups.
	for i := 0; i < 7; i++ {
		add(fmt.Sprintf(`SELECT ac_account_id, ac_balance FROM account WHERE ac_type = '%s' AND ac_balance > %d`,
			categories[i%4], i*1000))
	}
	// Q08..Q27: the Figure 1 shape with varying predicates (20 queries).
	for i := 0; i < 20; i++ {
		add(fmt.Sprintf(`SELECT oi_account_id, oi_amount, ei_product_id
			FROM open_in, entry_idx
			WHERE oi_entry_key = ei_entry_key AND oi_status = '%s' AND ei_posted = '%s'`,
			statuses[i%4], []string{"Y", "N"}[i%2]))
	}
	// Q28..Q51: open items with account and customer context (24 queries).
	for i := 0; i < 24; i++ {
		add(fmt.Sprintf(`SELECT oi_amount, ac_balance, ci_segment
			FROM open_in, account, customer_info
			WHERE oi_account_id = ac_account_id AND ac_customer_id = ci_customer_id
			AND ci_segment = '%s' AND oi_status = '%s'`, segments[i%4], statuses[i%3]))
	}
	// Q52..Q75: entry postings with product and branch/region context (24).
	for i := 0; i < 24; i++ {
		add(fmt.Sprintf(`SELECT ei_entry_type, pr_category, br_name, rg_name
			FROM entry_idx, product, branch, region
			WHERE ei_product_id = pr_product_id AND ei_branch_id = br_branch_id
			AND br_region_id = rg_region_id
			AND pr_category = '%s' AND ei_entry_type = '%s'`, categories[i%6], entryTypes[i%4]))
	}
	// Q76..Q99: transaction history with accounts, products and customers (24).
	for i := 0; i < 24; i++ {
		add(fmt.Sprintf(`SELECT tx_amount, ac_balance, pr_fee, ci_country
			FROM transaction_log, account, product, customer_info
			WHERE tx_account_id = ac_account_id AND tx_product_id = pr_product_id
			AND ac_customer_id = ci_customer_id
			AND tx_status = '%s' AND ci_segment = '%s'`, statuses[i%4], segments[(i+1)%4]))
	}
	// Q100..Q116: wide reporting queries spanning the whole schema (17).
	for i := 0; i < 17; i++ {
		add(fmt.Sprintf(`SELECT OI.oi_amount, EI.ei_entry_type, AC.ac_balance, CI.ci_segment, PR.pr_category, BR.br_name
			FROM open_in OI, entry_idx EI, account AC, customer_info CI, product PR, branch BR
			WHERE OI.oi_entry_key = EI.ei_entry_key AND OI.oi_account_id = AC.ac_account_id
			AND AC.ac_customer_id = CI.ci_customer_id AND EI.ei_product_id = PR.pr_product_id
			AND EI.ei_branch_id = BR.br_branch_id
			AND OI.oi_status = '%s' AND CI.ci_segment = '%s' AND PR.pr_category = '%s'`,
			statuses[i%4], segments[i%4], categories[i%6]))
	}
	return out
}
