package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"galo/internal/core"
	"galo/internal/kb"
	"galo/internal/qgm"
	"galo/internal/storage"
	"galo/internal/workload/tpcds"
)

// request is one POST /reopt call. body is all the program under test ever
// receives; name and joins stay on the benchmark's side for checking and
// for the per-join attribution.
type request struct {
	name  string
	sql   string
	joins int
	body  []byte
}

func newRequest(name, sql string, joins int, execute bool) request {
	body, err := json.Marshal(core.ReoptRequest{SQL: sql, Name: name, Execute: execute})
	if err != nil {
		panic(err) // strings and a bool always marshal
	}
	return request{name: name, sql: sql, joins: joins, body: body}
}

// stream is a workload's request sequence: index i always yields the same
// request for the same seed, so any number of clients drawing indices from
// one counter issue one reproducible sequence.
type stream func(i int) request

// shape is one TPC-DS-like query template; sql fills its literals from r.
type shape struct {
	joins int
	sql   func(r *rand.Rand) string
}

func category(r *rand.Rand) string { return tpcds.Categories[r.Intn(len(tpcds.Categories))] }
func state(r *rand.Rand) string    { return tpcds.States[r.Intn(len(tpcds.States))] }

var educations = []string{"Primary", "Secondary", "College", "2 yr Degree", "4 yr Degree", "Advanced Degree"}

// The shapes mirror tpcds.Queries(): the figure queries of the paper plus
// star and snowflake joins, one or more per join count.
var (
	shapeWebItem = shape{1, func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT ws_quantity, ws_sales_price, i_item_desc FROM web_sales, item
			WHERE ws_item_sk = i_item_sk AND i_category = '%s' AND i_current_price > %d`, category(r), 5+r.Intn(200))
	}}
	shapeStoreDate = shape{1, func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT ss_quantity, ss_sales_price FROM store_sales, date_dim
			WHERE ss_sold_date_sk = d_date_sk AND d_year >= %d AND ss_quantity > %d`, 1990+r.Intn(6), r.Intn(90))
	}}
	shapeFig3 = shape{2, func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT i_item_desc, i_category, i_class, i_current_price FROM web_sales, item, date_dim
			WHERE ws_item_sk = i_item_sk AND i_category = '%s' AND ws_sold_date_sk = d_date_sk AND d_year >= %d`,
			category(r), 1988+r.Intn(10))
	}}
	shapeFig8 = shape{2, func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT i_item_desc, ss_quantity, ss_sales_price FROM store_sales, date_dim, item
			WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk AND d_year >= %d AND i_category = '%s'`,
			1990+r.Intn(6), category(r))
	}}
	shapeFig4 = shape{3, func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT CS1.cs_quantity, CS2.cs_sales_price, CA.ca_state
			FROM customer_address CA, catalog_sales CS1, date_dim D, catalog_sales CS2
			WHERE CS1.cs_bill_addr_sk = CA.ca_address_sk AND CS2.cs_item_sk = CS1.cs_item_sk
			AND CS2.cs_sold_date_sk = D.d_date_sk AND D.d_year >= %d AND CA.ca_state = '%s'`, 1990+r.Intn(8), state(r))
	}}
	shapeFig7 = shape{3, func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT ss_quantity, cd_purchase_estimate, s_store_name
			FROM customer_address, customer_demographics, store, store_sales
			WHERE ss_addr_sk = ca_address_sk AND ss_cdemo_sk = cd_demo_sk AND ss_store_sk = s_store_sk
			AND cd_education_status = '%s' AND ca_state = '%s'`, educations[r.Intn(len(educations))], state(r))
	}}
	shapeStar = shape{3, func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT i_item_desc, d_year, ss_net_profit, s_store_name FROM store_sales, item, date_dim, store
			WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND ss_store_sk = s_store_sk
			AND i_category = '%s' AND d_moy = %d`, category(r), 1+r.Intn(12))
	}}
	shapeSnowflake = shape{4, func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT i_item_desc, c_last_name, ca_state, ss_sales_price
			FROM store_sales, item, date_dim, customer, customer_address
			WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
			AND ss_customer_sk = c_customer_sk AND c_current_addr_sk = ca_address_sk
			AND i_category = '%s' AND ca_state = '%s' AND d_year >= %d`, category(r), state(r), 1990+r.Intn(8))
	}}
	shapeSnowflake5 = shape{5, func(r *rand.Rand) string {
		return fmt.Sprintf(`SELECT i_item_desc, c_last_name, cd_education_status, cs_sales_price
			FROM catalog_sales, item, date_dim, customer, customer_demographics, customer_address
			WHERE cs_item_sk = i_item_sk AND cs_sold_date_sk = d_date_sk
			AND cs_bill_customer_sk = c_customer_sk AND c_current_cdemo_sk = cd_demo_sk
			AND c_current_addr_sk = ca_address_sk
			AND i_category = '%s' AND cd_gender = '%s' AND ca_state = '%s'`, category(r), []string{"M", "F"}[r.Intn(2)], state(r))
	}}
)

// draw returns n requests of the given shapes (round-robin), each with a SQL
// text not yet in seen.
func draw(r *rand.Rand, prefix string, n int, execute bool, seen map[string]bool, shapes ...shape) []request {
	var out []request
	for len(out) < n {
		s := shapes[len(out)%len(shapes)]
		sql := s.sql(r)
		if seen[sql] {
			continue
		}
		seen[sql] = true
		out = append(out, newRequest(fmt.Sprintf("%s%02d", prefix, len(seen)), sql, s.joins, execute))
	}
	return out
}

// poolSeed draws the literals of the fixed pools. Whether a query matches a
// template — and so pays a second optimization pass — depends on its
// literals; when --seed drew them, the work per request moved by 12 % from
// seed to seed. So the pools are the same queries for every seed, and the
// seed decides the order they are sent in.
const poolSeed = 20190522

// routinizedPool is the fixed pool of the routinized and publish_while_serving
// workloads: 40 queries stratified by join count, 4 with one join, 8 with
// two, 20 with three and 8 with four. Half the pool being 3-join queries puts
// the median request inside one join band (30th to 80th percentile), so it
// cannot flip between bands from run to run; the 99th percentile sits in the
// 4-join band.
func routinizedPool() []request {
	r := rand.New(rand.NewSource(poolSeed))
	seen := map[string]bool{}
	var pool []request
	pool = append(pool, draw(r, "R", 4, false, seen, shapeWebItem, shapeStoreDate)...)
	pool = append(pool, draw(r, "R", 8, false, seen, shapeFig3, shapeFig8)...)
	pool = append(pool, draw(r, "R", 20, false, seen, shapeFig4, shapeFig7, shapeStar)...)
	pool = append(pool, draw(r, "R", 8, false, seen, shapeSnowflake)...)
	return pool
}

// fiveJoinExtras are 5-join queries the traced pass times for the per-join
// table only: one costs ~100 ms of join enumeration, too much for a timed pool.
func fiveJoinExtras() []request {
	return draw(rand.New(rand.NewSource(poolSeed+1)), "J5-", 3, false, map[string]bool{}, shapeSnowflake5)
}

// executePool is the pool of execute_validate: 28 wide-range Figure 8
// variants (the shape the knowledge base was trained on; ranges start 2–6 %
// deep in the old calendar, the band tpcds.Fig8WideVariants spans) plus 12
// other 1–2-join queries, all with "execute": true.
func executePool(db *storage.Database) []request {
	r := rand.New(rand.NewSource(poolSeed))
	winLo, winHi, max := tpcds.SaleDateRange(db)
	histSpan := max - (winHi - winLo + 1)
	fig8Wide := shape{2, func(r *rand.Rand) string {
		lo := winLo - histSpan*int64(20+r.Intn(41))/1000
		if lo < 1 {
			lo = 1
		}
		return fmt.Sprintf(`SELECT i_item_desc, ss_quantity, ss_sales_price FROM store_sales, date_dim, item
			WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
			AND d_date_sk BETWEEN %d AND %d AND i_category = '%s'`, lo, winHi, category(r))
	}}
	seen := map[string]bool{}
	pool := draw(r, "E", 28, true, seen, fig8Wide)
	return append(pool, draw(r, "E", 12, true, seen, shapeWebItem, shapeFig3)...)
}

// cycle turns a pool into a stream: consecutive seeded shuffles of the whole
// pool, so every len(pool) requests hold each query exactly once and the mix
// never drifts, whatever the window length.
func cycle(seed int64, pool []request) stream {
	const rounds = 64
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	order := make([]int, 0, rounds*len(pool))
	for c := 0; c < rounds; c++ {
		order = append(order, r.Perm(len(pool))...)
	}
	return func(i int) request { return pool[order[i%len(order)]] }
}

// splitmix is the splitmix64 finalizer: a random-access source for the
// distinct stream, where request i must not depend on how many came before.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// coldStream is the distinct stream of cold_large_kb: 1- and 2-join queries
// alternate, every range literal comes from (seed, i), and the last literal
// carries i in its low decimals, so no SQL text can repeat within a run and
// estimated cardinalities — hence fragment fingerprints — rarely do.
func coldStream(seed int64) stream {
	return func(i int) request {
		h := splitmix(uint64(seed)<<32 ^ uint64(i))
		unit := func() float64 {
			h = splitmix(h)
			return float64(h>>11) / (1 << 53)
		}
		// A price with two seeded decimals followed by i: 123.450000042.
		price := func(max float64) string {
			cents := int(unit() * max * 100)
			return fmt.Sprintf("%d.%02d%07d", cents/100, cents%100, i)
		}
		dateLo := 1 + int(unit()*150)
		dateHi := dateLo + 5 + int(unit()*30)
		var sql string
		joins := 1 + i%2
		switch i % 4 {
		case 0:
			sql = fmt.Sprintf(`SELECT ss_quantity, ss_sales_price FROM store_sales, date_dim
				WHERE ss_sold_date_sk = d_date_sk AND d_date_sk BETWEEN %d AND %d AND ss_sales_price < %s`,
				dateLo, dateHi, price(500))
		case 1:
			sql = fmt.Sprintf(`SELECT i_item_desc, i_class, ws_quantity FROM web_sales, item, date_dim
				WHERE ws_item_sk = i_item_sk AND ws_sold_date_sk = d_date_sk
				AND d_date_sk BETWEEN %d AND %d AND i_current_price > %.2f AND ws_sales_price < %s`,
				dateLo, dateHi, unit()*250, price(600))
		case 2:
			sql = fmt.Sprintf(`SELECT ws_quantity, i_item_desc FROM web_sales, item
				WHERE ws_item_sk = i_item_sk AND i_current_price > %.2f AND ws_sales_price < %s`,
				unit()*250, price(600))
		default:
			sql = fmt.Sprintf(`SELECT i_item_desc, ss_quantity FROM store_sales, date_dim, item
				WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
				AND d_date_sk BETWEEN %d AND %d AND i_current_price > %.2f AND ss_sales_price < %s`,
				dateLo, dateHi, unit()*250, price(500))
		}
		return newRequest(fmt.Sprintf("C%d", i), sql, joins, false)
	}
}

// publishTemplate is publication i of the writer's template stream: a
// synthetic problem pattern shaped like experiments.InflateKB's (1–3 joins,
// random methods, access paths and cardinality bounds) over table instances
// unique to i, so every publication adds a template instead of merging into
// an earlier one, and the random operator tree spreads them over the shards.
func publishTemplate(seed int64, i int) *kb.Template {
	r := rand.New(rand.NewSource(seed<<20 + int64(i)))
	methods := qgm.JoinMethods()
	scans := []qgm.OpType{qgm.OpTBSCAN, qgm.OpIXSCAN, qgm.OpFETCH}
	joins := 1 + r.Intn(3)
	var node *qgm.Node
	for k := 0; k <= joins; k++ {
		inst := fmt.Sprintf("PUB%d_%d", i, k+1)
		leaf := &qgm.Node{Op: scans[r.Intn(len(scans))], Table: inst, TableInstance: inst,
			EstCardinality: float64(10 + r.Intn(1_000_000))}
		if leaf.Op != qgm.OpTBSCAN {
			leaf.Index = fmt.Sprintf("INDEX_%d", k+1)
		}
		if node == nil {
			node = leaf
			continue
		}
		node = &qgm.Node{Op: methods[r.Intn(len(methods))], Outer: node, Inner: leaf,
			EstCardinality: float64(10 + r.Intn(1_000_000))}
	}
	problem := qgm.NewPlan(node).Root.Outer
	bounds := map[int]kb.Range{}
	problem.Walk(func(x *qgm.Node) {
		bounds[x.ID] = kb.Range{Lo: x.EstCardinality / 2, Hi: x.EstCardinality * 2}
	})
	return &kb.Template{
		Problem: problem,
		Bounds:  bounds,
		GuidelineXML: fmt.Sprintf("<OPTGUIDELINES><HSJOIN><TBSCAN TABID='PUB%d_1'/><TBSCAN TABID='PUB%d_2'/></HSJOIN></OPTGUIDELINES>",
			i, i),
		Improvement:    0.1 + r.Float64()*0.5,
		Structural:     true,
		SourceWorkload: "bench",
		SourceQuery:    fmt.Sprintf("PUB.%d", i),
	}
}
