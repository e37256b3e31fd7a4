// Golden byte-identity suite for the join enumerator. The fixtures under
// testdata/ were generated on the commit *before* the enumeration core was
// rewritten around the planning context (PR 12); the rewrite — and every
// later change that claims to be loss-free — must reproduce them bit for bit:
// same plan, same float64 bits on every operator, same PlansConsidered, same
// guideline outcome. `go test ./internal/optimizer/ -run Golden -update`
// regenerates them (only do that for a change that means to move plans).
package optimizer_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"galo/internal/catalog"
	"galo/internal/guideline"
	"galo/internal/optimizer"
	"galo/internal/qgm"
	"galo/internal/randplan"
	"galo/internal/sqlparser"
	"galo/internal/storage"
	"galo/internal/workload/joblike"
	"galo/internal/workload/ohlc"
	"galo/internal/workload/scenario"
	"galo/internal/workload/tpcds"
	"galo/internal/workload/trace"
)

var update = flag.Bool("update", false, "regenerate the golden fixtures under testdata/")

// goldenEntry is one planned query. Sig keeps a mismatch readable; Digest
// covers qgm.Format plus every estimate-side field of every operator.
type goldenEntry struct {
	Name       string `json:"name"`
	Err        string `json:"err,omitempty"`
	Sig        string `json:"sig,omitempty"`
	CostBits   uint64 `json:"cost_bits,omitempty"`
	Considered int    `json:"considered,omitempty"`
	UsedDP     bool   `json:"used_dp,omitempty"`
	Applied    []int  `json:"applied,omitempty"`
	Ignored    []int  `json:"ignored,omitempty"`
	Digest     string `json:"digest,omitempty"`
}

// dumpPlan renders everything the optimizer decides about a plan: the
// db2exfmt-style text plus, per operator, the fields Format leaves out, with
// floats as raw bits. sql is the query as planned (preparedSQL).
func dumpPlan(p *qgm.Plan, sql string) string {
	var b strings.Builder
	b.WriteString(qgm.Format(p))
	fmt.Fprintf(&b, "total=%016x millis=%016x sql=%s\n", math.Float64bits(p.TotalCost), math.Float64bits(p.EstimatedMillis), sql)
	p.Root.Walk(func(n *qgm.Node) {
		fmt.Fprintf(&b, "%d %s %s %s %q card=%016x cost=%016x row=%d pages=%016x ord=%q bloom=%v early=%v join=%q preds=%q\n",
			n.ID, n.Op, n.Table, n.TableInstance, n.Index,
			math.Float64bits(n.EstCardinality), math.Float64bits(n.EstCost), n.RowSize, math.Float64bits(n.Pages),
			n.OrderedOn, n.BloomFilter, n.EarlyOut, n.JoinCols, n.Predicates)
	})
	return b.String()
}

// preparedSQL is the text a digest records beside the plan: the query as the
// optimizer resolved and rewrote it, "" when it does not prepare.
func preparedSQL(o *optimizer.Optimizer, q *sqlparser.Query) string {
	p, err := o.Prepare(q)
	if err != nil {
		return ""
	}
	return p.SQL()
}

func entryFor(name, sql string, p *qgm.Plan, r *optimizer.Report, err error) (goldenEntry, string) {
	if err != nil {
		return goldenEntry{Name: name, Err: err.Error()}, err.Error()
	}
	dump := dumpPlan(p, sql)
	sum := sha256.Sum256([]byte(dump))
	e := goldenEntry{Name: name, Sig: p.Signature(), CostBits: math.Float64bits(p.TotalCost), Digest: hex.EncodeToString(sum[:])}
	if r != nil {
		e.Considered, e.UsedDP, e.Applied, e.Ignored = r.PlansConsidered, r.UsedDP, r.GuidelinesApplied, r.GuidelinesIgnored
	}
	return e, dump
}

// --- corpus -------------------------------------------------------------------

type corpus struct {
	name    string
	db      *storage.Database
	queries []*sqlparser.Query
}

var (
	corporaOnce sync.Once
	corpora     []corpus
)

// goldenTPCDS is the TPC-DS-like database the tpcds, bench and rand corpora
// (and the planning benchmarks) are planned against.
// renderEntry is everything the suites compare of one planning: the golden
// entry as JSON, then the plan dump.
func renderEntry(name, sql string, p *qgm.Plan, r *optimizer.Report, err error) string {
	e, dump := entryFor(name, sql, p, r, err)
	js, _ := json.Marshal(e)
	return string(js) + "\n" + dump
}

func goldenTPCDS(t testing.TB) *storage.Database { return goldenCorpora(t)[0].db }

// benchShapes are the nine bench/gen.go query shapes with fixed literals
// (bench/ is its own module, so they are re-typed here).
var benchShapes = []struct{ name, sql string }{
	{"webItem", `SELECT ws_quantity, ws_sales_price, i_item_desc FROM web_sales, item
		WHERE ws_item_sk = i_item_sk AND i_category = 'Music' AND i_current_price > 42`},
	{"storeDate", `SELECT ss_quantity, ss_sales_price FROM store_sales, date_dim
		WHERE ss_sold_date_sk = d_date_sk AND d_year >= 1993 AND ss_quantity > 30`},
	{"fig3", `SELECT i_item_desc, i_category, i_class, i_current_price FROM web_sales, item, date_dim
		WHERE ws_item_sk = i_item_sk AND i_category = 'Jewelry' AND ws_sold_date_sk = d_date_sk AND d_year >= 1991`},
	{"fig8", `SELECT i_item_desc, ss_quantity, ss_sales_price FROM store_sales, date_dim, item
		WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk AND d_year >= 1992 AND i_category = 'Books'`},
	{"fig4", `SELECT CS1.cs_quantity, CS2.cs_sales_price, CA.ca_state
		FROM customer_address CA, catalog_sales CS1, date_dim D, catalog_sales CS2
		WHERE CS1.cs_bill_addr_sk = CA.ca_address_sk AND CS2.cs_item_sk = CS1.cs_item_sk
		AND CS2.cs_sold_date_sk = D.d_date_sk AND D.d_year >= 1994 AND CA.ca_state = 'TX'`},
	{"fig7", `SELECT ss_quantity, cd_purchase_estimate, s_store_name
		FROM customer_address, customer_demographics, store, store_sales
		WHERE ss_addr_sk = ca_address_sk AND ss_cdemo_sk = cd_demo_sk AND ss_store_sk = s_store_sk
		AND cd_education_status = 'College' AND ca_state = 'NY'`},
	{"star", `SELECT i_item_desc, d_year, ss_net_profit, s_store_name FROM store_sales, item, date_dim, store
		WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND ss_store_sk = s_store_sk
		AND i_category = 'Sports' AND d_moy = 7`},
	{"snowflake", `SELECT i_item_desc, c_last_name, ca_state, ss_sales_price
		FROM store_sales, item, date_dim, customer, customer_address
		WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
		AND ss_customer_sk = c_customer_sk AND c_current_addr_sk = ca_address_sk
		AND i_category = 'Home' AND ca_state = 'CA' AND d_year >= 1995`},
	{"snowflake5", `SELECT i_item_desc, c_last_name, cd_education_status, cs_sales_price
		FROM catalog_sales, item, date_dim, customer, customer_demographics, customer_address
		WHERE cs_item_sk = i_item_sk AND cs_sold_date_sk = d_date_sk
		AND cs_bill_customer_sk = c_customer_sk AND c_current_cdemo_sk = cd_demo_sk
		AND c_current_addr_sk = ca_address_sk
		AND i_category = 'Shoes' AND cd_gender = 'F' AND ca_state = 'FL'`},
}

func benchShapeQueries() []*sqlparser.Query {
	var out []*sqlparser.Query
	for _, s := range benchShapes {
		q := sqlparser.MustParse(s.sql)
		q.Name = "BENCH." + s.name
		out = append(out, q)
	}
	return out
}

// fkEdges is the join graph random queries are grown over: every pair of
// columns the TPC-DS-like schema joins on, fact-to-fact pairs included.
var fkEdges = []struct{ lt, lc, rt, rc string }{
	{tpcds.StoreSales, "ss_item_sk", tpcds.Item, "i_item_sk"},
	{tpcds.StoreSales, "ss_sold_date_sk", tpcds.DateDim, "d_date_sk"},
	{tpcds.StoreSales, "ss_customer_sk", tpcds.Customer, "c_customer_sk"},
	{tpcds.StoreSales, "ss_cdemo_sk", tpcds.CustomerDemographics, "cd_demo_sk"},
	{tpcds.StoreSales, "ss_addr_sk", tpcds.CustomerAddress, "ca_address_sk"},
	{tpcds.StoreSales, "ss_store_sk", tpcds.Store, "s_store_sk"},
	{tpcds.CatalogSales, "cs_item_sk", tpcds.Item, "i_item_sk"},
	{tpcds.CatalogSales, "cs_sold_date_sk", tpcds.DateDim, "d_date_sk"},
	{tpcds.CatalogSales, "cs_bill_customer_sk", tpcds.Customer, "c_customer_sk"},
	{tpcds.CatalogSales, "cs_bill_addr_sk", tpcds.CustomerAddress, "ca_address_sk"},
	{tpcds.CatalogSales, "cs_bill_cdemo_sk", tpcds.CustomerDemographics, "cd_demo_sk"},
	{tpcds.WebSales, "ws_item_sk", tpcds.Item, "i_item_sk"},
	{tpcds.WebSales, "ws_sold_date_sk", tpcds.DateDim, "d_date_sk"},
	{tpcds.WebSales, "ws_bill_customer_sk", tpcds.Customer, "c_customer_sk"},
	{tpcds.Customer, "c_current_addr_sk", tpcds.CustomerAddress, "ca_address_sk"},
	{tpcds.Customer, "c_current_cdemo_sk", tpcds.CustomerDemographics, "cd_demo_sk"},
	{tpcds.StoreSales, "ss_item_sk", tpcds.CatalogSales, "cs_item_sk"},
	{tpcds.StoreSales, "ss_customer_sk", tpcds.CatalogSales, "cs_bill_customer_sk"},
	{tpcds.StoreSales, "ss_item_sk", tpcds.WebSales, "ws_item_sk"},
	{tpcds.CatalogSales, "cs_sold_date_sk", tpcds.WebSales, "ws_sold_date_sk"},
	{tpcds.CatalogSales, "cs_item_sk", tpcds.CatalogSales, "cs_item_sk"},
}

// localPreds are per-table predicate templates; %s is the alias.
var localPreds = map[string][]func(r *rand.Rand, a string) string{
	tpcds.Item: {
		func(r *rand.Rand, a string) string {
			return fmt.Sprintf("%s.i_category = '%s'", a, tpcds.Categories[r.Intn(len(tpcds.Categories))])
		},
		func(r *rand.Rand, a string) string { return fmt.Sprintf("%s.i_current_price > %d", a, 5+r.Intn(200)) },
		func(r *rand.Rand, a string) string {
			return fmt.Sprintf("%s.i_category IN ('%s', '%s')", a, tpcds.Categories[r.Intn(5)], tpcds.Categories[5+r.Intn(5)])
		},
		func(r *rand.Rand, a string) string {
			return fmt.Sprintf("%s.i_item_sk BETWEEN %d AND %d", a, 1+r.Intn(50), 60+r.Intn(200))
		},
	},
	tpcds.DateDim: {
		func(r *rand.Rand, a string) string { return fmt.Sprintf("%s.d_year >= %d", a, 1988+r.Intn(10)) },
		func(r *rand.Rand, a string) string { return fmt.Sprintf("%s.d_moy = %d", a, 1+r.Intn(12)) },
		func(r *rand.Rand, a string) string {
			lo := 1 + r.Intn(400)
			return fmt.Sprintf("%s.d_date_sk BETWEEN %d AND %d", a, lo, lo+10+r.Intn(300))
		},
	},
	tpcds.StoreSales: {
		func(r *rand.Rand, a string) string { return fmt.Sprintf("%s.ss_quantity > %d", a, r.Intn(90)) },
		func(r *rand.Rand, a string) string { return fmt.Sprintf("%s.ss_sales_price < %d", a, 10+r.Intn(400)) },
		func(r *rand.Rand, a string) string { return fmt.Sprintf("%s.ss_sold_date_sk <= %d", a, 50+r.Intn(400)) },
	},
	tpcds.CatalogSales: {
		func(r *rand.Rand, a string) string { return fmt.Sprintf("%s.cs_quantity >= %d", a, r.Intn(90)) },
		func(r *rand.Rand, a string) string { return fmt.Sprintf("%s.cs_sales_price < %d", a, 10+r.Intn(400)) },
	},
	tpcds.WebSales: {
		func(r *rand.Rand, a string) string { return fmt.Sprintf("%s.ws_quantity < %d", a, 5+r.Intn(90)) },
		func(r *rand.Rand, a string) string { return fmt.Sprintf("%s.ws_item_sk = %d", a, 1+r.Intn(200)) },
	},
	tpcds.Customer: {
		func(r *rand.Rand, a string) string { return fmt.Sprintf("%s.c_birth_year > %d", a, 1930+r.Intn(60)) },
		func(r *rand.Rand, a string) string {
			return fmt.Sprintf("%s.c_last_name LIKE '%c%%'", a, 'A'+rune(r.Intn(26)))
		},
	},
	tpcds.CustomerAddress: {
		func(r *rand.Rand, a string) string {
			return fmt.Sprintf("%s.ca_state = '%s'", a, tpcds.States[r.Intn(len(tpcds.States))])
		},
		func(r *rand.Rand, a string) string { return fmt.Sprintf("%s.ca_gmt_offset <> %d", a, 5+r.Intn(4)) },
	},
	tpcds.CustomerDemographics: {
		func(r *rand.Rand, a string) string {
			return fmt.Sprintf("%s.cd_gender = '%s'", a, []string{"M", "F"}[r.Intn(2)])
		},
		func(r *rand.Rand, a string) string {
			return fmt.Sprintf("%s.cd_purchase_estimate > %d", a, 500*r.Intn(15))
		},
	},
	tpcds.Store: {
		func(r *rand.Rand, a string) string { return fmt.Sprintf("%s.s_floor_space > %d", a, 1000*r.Intn(9)) },
	},
	tpcds.Promotion: {
		func(r *rand.Rand, a string) string { return fmt.Sprintf("%s.p_cost > %d", a, 100*r.Intn(9)) },
	},
}

var allTables = []string{tpcds.StoreSales, tpcds.CatalogSales, tpcds.WebSales, tpcds.Item, tpcds.DateDim,
	tpcds.Customer, tpcds.CustomerAddress, tpcds.CustomerDemographics, tpcds.Store, tpcds.Promotion}

// randomQuery grows a 1–6-table query over fkEdges (see growQuery).
func randomQuery(r *rand.Rand, schema *catalog.Schema, i int) *sqlparser.Query {
	return growQuery(r, schema, fmt.Sprintf("RAND.Q%03d", i), 1+r.Intn(6))
}

// growQuery grows an n-table query over fkEdges: mostly a connected tree
// (aliases T1..Tn, so self-joins work), sometimes with an extra cycle edge, a
// second predicate between one pair, or a disconnected table (cartesian
// product); random local predicates, sometimes GROUP BY / ORDER BY.
func growQuery(r *rand.Rand, schema *catalog.Schema, name string, n int) *sqlparser.Query {
	tables := []string{allTables[r.Intn(len(allTables))]}
	alias := func(k int) string { return fmt.Sprintf("T%d", k+1) }
	var preds, joinSides []string
	seen := map[string]bool{}
	addPred := func(p string) {
		if !seen[p] {
			seen[p] = true
			preds = append(preds, p)
		}
	}
	connect := func(a, b int) {
		var fits [][2]string
		for _, e := range fkEdges {
			if e.lt == tables[a] && e.rt == tables[b] {
				fits = append(fits, [2]string{alias(a) + "." + e.lc, alias(b) + "." + e.rc})
			}
			if e.rt == tables[a] && e.lt == tables[b] && e.lt != e.rt {
				fits = append(fits, [2]string{alias(a) + "." + e.rc, alias(b) + "." + e.lc})
			}
		}
		if len(fits) > 0 {
			f := fits[r.Intn(len(fits))]
			addPred(f[0] + " = " + f[1])
			joinSides = append(joinSides, f[0], f[1])
		}
	}
	for len(tables) < n {
		if r.Float64() < 0.08 {
			tables = append(tables, allTables[r.Intn(len(allTables))]) // disconnected
			continue
		}
		from := r.Intn(len(tables))
		var next []string
		for _, e := range fkEdges {
			if e.lt == tables[from] {
				next = append(next, e.rt)
			}
			if e.rt == tables[from] {
				next = append(next, e.lt)
			}
		}
		if len(next) == 0 {
			tables = append(tables, allTables[r.Intn(len(allTables))])
			continue
		}
		tables = append(tables, next[r.Intn(len(next))])
		connect(from, len(tables)-1)
	}
	for extra := r.Intn(3); extra > 0 && n > 2; extra-- {
		a, b := r.Intn(n), r.Intn(n)
		if a != b {
			connect(a, b) // a cycle, or a second predicate between one pair
		}
	}
	var cols []string
	for k, tbl := range tables {
		tmpl := localPreds[tbl]
		for _, f := range tmpl {
			if r.Float64() < 0.45 {
				addPred(f(r, alias(k)))
			}
		}
		tc := schema.Table(tbl).Columns
		cols = append(cols, alias(k)+"."+tc[r.Intn(len(tc))].Name)
	}
	sql := "SELECT " + strings.Join(cols, ", ") + " FROM "
	for k, tbl := range tables {
		if k > 0 {
			sql += ", "
		}
		sql += tbl + " " + alias(k)
	}
	if len(preds) > 0 {
		sql += " WHERE " + strings.Join(preds, " AND ")
	}
	switch x := r.Float64(); {
	case x < 0.15:
		sql += " GROUP BY " + strings.Join(cols, ", ")
	case x < 0.45:
		// ORDER BY a join column half the time, so sort elimination through
		// an order property is in play.
		ob := cols[r.Intn(len(cols))]
		if len(joinSides) > 0 && r.Float64() < 0.5 {
			ob = joinSides[r.Intn(len(joinSides))]
		}
		sql += " ORDER BY " + ob
	}
	q := sqlparser.MustParse(sql)
	q.Name = name
	return q
}

// randomGuidelines builds a seeded guideline document for the query: access
// and join guidelines over its instances — valid ones, ones naming instances
// or indexes that do not exist, and join trees no plan can satisfy (NLJOIN
// over a composite inner, MSJOIN with no predicate, two guidelines fighting
// over one set), so the drop-and-retry loop runs.
func randomGuidelines(r *rand.Rand, cat *catalog.Catalog, q *sqlparser.Query) *guideline.Document {
	n := len(q.From)
	inst := func(k int) string { return fmt.Sprintf("Q%d", k+1) }
	access := func(k int) *guideline.Element {
		e := &guideline.Element{Op: guideline.ElemTBSCAN}
		if k >= n || r.Float64() < 0.8 {
			e.TabID = inst(k)
		} else {
			e.Table = q.From[k].Table // resolves only when the table appears once
		}
		if k < n && r.Float64() < 0.5 {
			e.Op = guideline.ElemIXSCAN
			if tbl := cat.Table(q.From[k].Table); tbl != nil && len(tbl.Indexes) > 0 && r.Float64() < 0.7 {
				e.Index = tbl.Indexes[r.Intn(len(tbl.Indexes))].Name
			} else if r.Float64() < 0.3 {
				e.Index = "NO_SUCH_IDX"
			}
		}
		return e
	}
	methods := []string{guideline.ElemHSJOIN, guideline.ElemMSJOIN, guideline.ElemNLJOIN}
	var tree func(ks []int) *guideline.Element
	tree = func(ks []int) *guideline.Element {
		if len(ks) == 1 {
			return access(ks[0])
		}
		cut := len(ks) - 1 // left-deep
		if r.Float64() < 0.3 {
			cut = 1 + r.Intn(len(ks)-1) // bushy / composite inner
		}
		return &guideline.Element{Op: methods[r.Intn(3)], Children: []*guideline.Element{tree(ks[:cut]), tree(ks[cut:])}}
	}
	doc := &guideline.Document{}
	for g := 1 + r.Intn(3); g > 0; g-- {
		switch x := r.Float64(); {
		case n == 1 || x < 0.25:
			doc.Add(access(r.Intn(n)))
		case x < 0.35:
			doc.Add(tree([]int{r.Intn(n), n})) // Q(n+1) does not exist
		default:
			size := 2 + r.Intn(min(n, 4)-1)
			doc.Add(tree(r.Perm(n)[:size]))
		}
	}
	return doc
}

// goldenCorpora generates the databases and query lists once per test binary.
func goldenCorpora(t testing.TB) []corpus {
	t.Helper()
	corporaOnce.Do(func() {
		db, err := tpcds.Generate(tpcds.GenOptions{Seed: 11, Scale: 0.15, Hazards: true})
		if err != nil {
			t.Fatalf("generate tpcds: %v", err)
		}
		r := rand.New(rand.NewSource(20190522))
		var random []*sqlparser.Query
		for i := 0; i < 200; i++ {
			random = append(random, randomQuery(r, db.Catalog.Schema, i))
		}
		corpora = []corpus{
			{"tpcds", db, tpcds.Queries()},
			{"bench", db, benchShapeQueries()},
			{"rand", db, random},
		}
		for _, sc := range []scenario.Scenario{ohlc.New(), joblike.New(), trace.New()} {
			opts := sc.DefaultGen()
			opts.Scale = 0.2
			zdb, err := sc.Generate(opts)
			if err != nil {
				t.Fatalf("generate %s: %v", sc.Name(), err)
			}
			corpora = append(corpora, corpus{sc.Name(), zdb, sc.HazardQueries(zdb, 0)})
		}
	})
	return corpora
}

// --- the tests ----------------------------------------------------------------

func checkGolden(t *testing.T, file string, got []goldenEntry, dumps map[string]string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries planned, fixture has %d", file, len(got), len(want))
	}
	shown := 0
	for i := range got {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) == string(w) {
			continue
		}
		t.Errorf("%s differs from the fixture\n got: %s\nwant: %s", got[i].Name, g, w)
		if shown++; shown <= 3 {
			t.Logf("planned:\n%s", dumps[got[i].Name])
		}
	}
}

// TestGoldenPlans plans every corpus query four ways — unconstrained, under a
// seeded random guideline document, above JoinEnumDPLimit (greedy), and greedy
// under guidelines — and compares against testdata/golden_plans.json.
func TestGoldenPlans(t *testing.T) {
	var got []goldenEntry
	dumps := map[string]string{}
	for _, c := range goldenCorpora(t) {
		gr := rand.New(rand.NewSource(int64(len(c.name)) + 7))
		for _, q := range c.queries {
			doc := randomGuidelines(gr, c.db.Catalog, q)
			for _, mode := range []struct {
				name    string
				dpLimit int
				doc     *guideline.Document
			}{{"plain", 0, nil}, {"guided", 0, doc}, {"greedy", 3, nil}, {"greedy+guided", 3, doc}} {
				opts := optimizer.DefaultOptions()
				if mode.dpLimit > 0 {
					opts.JoinEnumDPLimit = mode.dpLimit
				}
				opts.Guidelines = mode.doc
				opt := optimizer.New(c.db.Catalog, opts)
				plan, report, err := opt.Optimize(q)
				name := c.name + "/" + q.Name + "/" + mode.name
				e, dump := entryFor(name, preparedSQL(opt, q), plan, report, err)
				got = append(got, e)
				dumps[name] = dump
			}
		}
	}
	checkGolden(t, "golden_plans.json", got, dumps)
}

// TestGoldenSpecPlans costs randplan's seeded specs through BuildPlan — the
// third caller of the join constructor — against testdata/golden_specs.json.
func TestGoldenSpecPlans(t *testing.T) {
	var got []goldenEntry
	dumps := map[string]string{}
	for _, c := range goldenCorpora(t) {
		opt := optimizer.New(c.db.Catalog, optimizer.DefaultOptions())
		gen := randplan.New(opt, 20190522)
		for _, q := range c.queries {
			if len(q.From) > 12 {
				continue
			}
			for k := 0; k < 3; k++ {
				name := fmt.Sprintf("%s/%s/spec%d", c.name, q.Name, k)
				spec, err := gen.RandomSpec(q)
				var plan *qgm.Plan
				if err == nil {
					plan, err = opt.BuildPlan(q, spec)
				}
				e, dump := entryFor(name, preparedSQL(opt, q), plan, nil, err)
				got = append(got, e)
				dumps[name] = dump
			}
		}
	}
	checkGolden(t, "golden_specs.json", got, dumps)
}

// TestOptimizeIsReentrant shares one Optimizer between 8 goroutines mixing
// Optimize and BuildPlan over single-table, DP (1 to 4 joins), greedy (up to 8
// joins) and guideline-constrained queries, and requires every plan and report
// to equal the serial run's. The last three guidelines contradict each other
// on any query that has a Q4 and a Q5, so the 4-join DP queries go through
// the drop-and-retry loop twice and finish in an arena two abandoned attempts
// have written over. Run under -race it also proves a call keeps no state on
// the Optimizer (UsedDP used to travel through a field) and that two calls
// never hold one arena.
func TestOptimizeIsReentrant(t *testing.T) {
	db := goldenTPCDS(t)
	const settled = `<HSJOIN><TBSCAN TABID='Q1'/><IXSCAN TABID='Q2'/></HSJOIN>
		<MSJOIN><TBSCAN TABID='Q9'/><TBSCAN TABID='Q3'/></MSJOIN>
		<HSJOIN><TBSCAN TABID='Q4'/><TBSCAN TABID='Q5'/></HSJOIN>`
	newOpt := func(guidelines string) *optimizer.Optimizer {
		doc, err := guideline.Parse("<OPTGUIDELINES>" + guidelines + "</OPTGUIDELINES>")
		if err != nil {
			t.Fatal(err)
		}
		opts := optimizer.DefaultOptions()
		opts.Guidelines = doc
		opts.JoinEnumDPLimit = 5
		return optimizer.New(db.Catalog, opts)
	}
	opt := newOpt(settled + `<MSJOIN><TBSCAN TABID='Q4'/><TBSCAN TABID='Q5'/></MSJOIN>
		<NLJOIN><TBSCAN TABID='Q5'/><TBSCAN TABID='Q4'/></NLJOIN>`)
	all := tpcds.Queries()
	queries := []*sqlparser.Query{all[0], all[3], all[5], all[9], all[21], all[35], all[45], all[60], all[75], all[92]}
	for _, c := range planningCases {
		queries = append(queries, planningQuery(all, c.index, c.sql))
	}
	queries = append(queries, benchShapeQueries()...)

	// The retried query: two of its three attempts are thrown away, which
	// shows as more candidates considered than under the guidelines it ends
	// up with.
	retried := all[planningCases[3].index]
	_, r, err := opt.Optimize(retried)
	if err != nil {
		t.Fatal(err)
	}
	_, once, err := newOpt(settled).Optimize(retried)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r.GuidelinesIgnored) != "[1 3 4]" || !r.UsedDP || r.PlansConsidered <= once.PlansConsidered {
		t.Fatalf("%s should drop guidelines 4 and 3 in two DP retries: report %+v, without them %+v", retried.Name, r, once)
	}

	// Every query is planned twice: by enumeration, and from a seeded spec.
	gen := randplan.New(opt, 20190522)
	specs := make([]*optimizer.Spec, len(queries))
	for i, q := range queries {
		if specs[i], err = gen.RandomSpec(q); err != nil {
			t.Fatal(err)
		}
	}
	plan := func(k int) string {
		q := queries[k%len(queries)]
		var p *qgm.Plan
		var r *optimizer.Report
		var err error
		if k < len(queries) {
			p, r, err = opt.Optimize(q)
		} else {
			p, err = opt.BuildPlan(q, specs[k%len(queries)])
		}
		return renderEntry(q.Name, preparedSQL(opt, q), p, r, err)
	}
	want := make([]string, 2*len(queries))
	usedDP := map[bool]int{}
	for k := range want {
		want[k] = plan(k)
		if k < len(queries) {
			usedDP[strings.Contains(want[k], `"used_dp":true`)]++
		}
	}
	if usedDP[true] == 0 || usedDP[false] < 2 {
		t.Fatalf("query mix does not cover DP and non-DP planning: %v", usedDP)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range want {
				i := (k*7 + g*3) % len(want) // every goroutine walks its own order
				if got := plan(i); got != want[i] {
					t.Errorf("goroutine %d: %s differs from the serial run\n got: %s\nwant: %s", g, queries[i%len(queries)].Name, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPlanOutlivesPlanning renders a plan, runs two hundred other plannings
// on the same Optimizer, and renders it again: nothing reachable from a
// returned plan may belong to scratch that a later call reuses.
func TestPlanOutlivesPlanning(t *testing.T) {
	opt := optimizer.New(goldenTPCDS(t).Catalog, optimizer.DefaultOptions())
	all := tpcds.Queries()
	gen := randplan.New(opt, 7)
	q := all[planningCases[3].index]
	enumerated, _, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	// A random spec may ask for a join method its inputs do not admit; take
	// the first that builds.
	var built *qgm.Plan
	for try := 0; built == nil; try++ {
		spec, err := gen.RandomSpec(q)
		if err == nil {
			built, err = opt.BuildPlan(q, spec)
		}
		if err != nil && try == 20 {
			t.Fatal(err)
		}
	}
	render := func() string {
		sql := preparedSQL(opt, q)
		return dumpPlan(enumerated, sql) + enumerated.Signature() + "\n" + dumpPlan(built, sql) + built.Signature()
	}
	before := render()
	for i := 0; i < 200; i++ {
		other := all[i%len(all)]
		if i%2 == 0 {
			if _, _, err := opt.Optimize(other); err != nil {
				t.Fatalf("%s: %v", other.Name, err)
			}
		} else if spec, err := gen.RandomSpec(other); err == nil {
			_, _ = opt.BuildPlan(other, spec) // an inapplicable spec has still used the scratch
		}
	}
	if after := render(); after != before {
		t.Errorf("plans changed after later plannings\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestMaterializeWithoutJoinPredicates covers what the corpora barely touch:
// a single-table plan (no join to materialize) and a cartesian product, whose
// JoinCols guideline and transform print and which must stay the empty,
// non-nil slice — by DP, by the greedy search and from a spec.
func TestMaterializeWithoutJoinPredicates(t *testing.T) {
	cat := goldenTPCDS(t).Catalog
	single, _, err := optimizer.New(cat, optimizer.DefaultOptions()).Optimize(
		sqlparser.MustParse(`SELECT i_item_desc FROM item WHERE i_category = 'Music'`))
	if err != nil {
		t.Fatal(err)
	}
	scans := single.Root.Scans()
	if len(scans) != 1 || single.NumJoins() != 0 || fmt.Sprintf("%q", scans[0].Predicates) != `["ITEM.I_CATEGORY = 'Music'"]` || scans[0].JoinCols != nil {
		t.Errorf("single-table plan:\n%s", dumpPlan(single, ""))
	}

	cartesian := sqlparser.MustParse(`SELECT i_item_desc, s_store_name FROM item, store WHERE i_category = 'Music'`)
	greedy := optimizer.DefaultOptions()
	greedy.JoinEnumDPLimit = 1
	plans := map[string]*qgm.Plan{}
	if plans["dp"], _, err = optimizer.New(cat, optimizer.DefaultOptions()).Optimize(cartesian); err != nil {
		t.Fatal(err)
	}
	if plans["greedy"], _, err = optimizer.New(cat, greedy).Optimize(cartesian); err != nil {
		t.Fatal(err)
	}
	if plans["spec"], err = optimizer.New(cat, greedy).BuildPlan(cartesian,
		optimizer.Join(qgm.OpHSJOIN, optimizer.Leaf("STORE"), optimizer.Leaf("ITEM"))); err != nil {
		t.Fatal(err)
	}
	for name, p := range plans {
		joins := p.Root.Joins()
		if len(joins) != 1 || joins[0].JoinCols == nil || len(joins[0].JoinCols) != 0 || joins[0].Op == qgm.OpMSJOIN {
			t.Errorf("%s: cartesian product should be one non-merge join with empty, non-nil JoinCols:\n%s", name, dumpPlan(p, ""))
		}
	}
}
