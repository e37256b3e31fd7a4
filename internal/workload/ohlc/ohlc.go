// Package ohlc provides the time-series workload of the zoo: per-symbol
// per-day OHLC bars with a deep calendar, where the bulk of the bars floods
// into the most recent window *after* statistics collection. Window
// aggregations over the recent window are the production query shape of
// time-series stores; a statistics snapshot taken before the flood believes
// the recent window is nearly empty, so the optimizer's cardinality
// estimates for exactly the queries everyone runs are off by orders of
// magnitude until statistics are refreshed.
package ohlc

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
	Bars     = "BARS"
	Symbol   = "SYMBOL"
	Exchange = "EXCHANGE"
)

// Calendar geometry. These are scenario-intrinsic and deliberately do NOT
// scale with GenOptions.Scale: the hazard needs a deep time range even at
// tiny row counts, which is why experiments keeps a per-workload scale
// instead of one global knob.
const (
	// CalendarDays is the depth of the bar calendar (b_day ∈ [1, CalendarDays]).
	CalendarDays = 1024
	// RecentWindowDays is the width of the recent window that receives the
	// post-ANALYZE flood.
	RecentWindowDays = 32
	// HistoricalFraction is the share of bars loaded before statistics
	// collection, spread uniformly over the old calendar.
	HistoricalFraction = 0.3
)

// Sectors is the symbol sector domain.
var Sectors = []string{"Tech", "Energy", "Finance", "Health", "Retail", "Industrial", "Utilities", "Telecom"}

// Schema returns the OHLC schema: a bars fact table, a symbol dimension and
// a small exchange dimension. The day index on bars is well clustered
// (bars append roughly in time order); the symbol index is not.
func Schema() *catalog.Schema {
	s := catalog.NewSchema("OHLC")

	bars := catalog.NewTable(Bars,
		catalog.Column{Name: "b_symbol_sk", Type: catalog.KindInt},
		catalog.Column{Name: "b_day", Type: catalog.KindInt},
		catalog.Column{Name: "b_open", Type: catalog.KindFloat},
		catalog.Column{Name: "b_high", Type: catalog.KindFloat},
		catalog.Column{Name: "b_low", Type: catalog.KindFloat},
		catalog.Column{Name: "b_close", Type: catalog.KindFloat},
		catalog.Column{Name: "b_volume", Type: catalog.KindInt},
	)
	mustIndex(bars, catalog.Index{Name: "B_DAY_IDX", Columns: []string{"b_day"}, ClusterRatio: 0.90})
	mustIndex(bars, catalog.Index{Name: "B_SYMBOL_IDX", Columns: []string{"b_symbol_sk"}, ClusterRatio: 0.10})
	s.AddTable(bars)

	symbol := catalog.NewTable(Symbol,
		catalog.Column{Name: "sy_symbol_sk", Type: catalog.KindInt},
		catalog.Column{Name: "sy_ticker", Type: catalog.KindString},
		catalog.Column{Name: "sy_sector", Type: catalog.KindString},
		catalog.Column{Name: "sy_exchange_sk", Type: catalog.KindInt},
	)
	symbol.PrimaryKey = []string{"SY_SYMBOL_SK"}
	mustIndex(symbol, catalog.Index{Name: "SY_SYMBOL_SK_IDX", Columns: []string{"sy_symbol_sk"}, Unique: true, ClusterRatio: 0.98})
	mustIndex(symbol, catalog.Index{Name: "SY_SECTOR_IDX", Columns: []string{"sy_sector"}, ClusterRatio: 0.30})
	s.AddTable(symbol)

	exchange := catalog.NewTable(Exchange,
		catalog.Column{Name: "ex_exchange_sk", Type: catalog.KindInt},
		catalog.Column{Name: "ex_name", Type: catalog.KindString},
		catalog.Column{Name: "ex_region", Type: catalog.KindString},
	)
	exchange.PrimaryKey = []string{"EX_EXCHANGE_SK"}
	mustIndex(exchange, catalog.Index{Name: "EX_EXCHANGE_SK_IDX", Columns: []string{"ex_exchange_sk"}, Unique: true, ClusterRatio: 0.99})
	s.AddTable(exchange)

	return s
}

func mustIndex(t *catalog.Table, idx catalog.Index) {
	if err := t.AddIndex(idx); err != nil {
		panic(err)
	}
}

// workload implements scenario.Scenario.
type workload struct{}

// New returns the OHLC scenario.
func New() scenario.Scenario { return workload{} }

func (workload) Name() string { return "ohlc" }

func (workload) Hazard() string {
	return "recent-window flood after ANALYZE: the time histogram believes the hot window is empty"
}

func (workload) DefaultGen() scenario.GenOptions {
	return scenario.GenOptions{Seed: 20190801, Scale: 1.0, Hazards: true}
}

func rowCounts(scale float64) (nBars, nSymbols, nExchanges int) {
	if scale <= 0 {
		scale = 1.0
	}
	nBars = int(36000 * scale)
	if nBars < 256 {
		nBars = 256
	}
	nSymbols = int(240 * scale)
	if nSymbols < 8 {
		nSymbols = 8
	}
	return nBars, nSymbols, 8
}

// Generate builds the OHLC database. With Hazards on, statistics (including
// the ANALYZE histograms) are collected after the historical wave but before
// the recent-window flood — the snapshot is genuinely stale, exactly the
// two-wave discipline the tpcds workload uses for Figure 8.
func (workload) Generate(opts scenario.GenOptions) (*storage.Database, error) {
	nBars, nSymbols, nExchanges := rowCounts(opts.Scale)
	cat := catalog.New(Schema())
	db := storage.NewDatabase(cat)
	g := storage.NewGenerator(opts.Seed)

	for i := 1; i <= nExchanges; i++ {
		if err := db.Insert(Exchange, storage.Row{
			catalog.Int(int64(i)),
			catalog.String(fmt.Sprintf("EXCH%02d", i)),
			catalog.String([]string{"AMER", "EMEA", "APAC", "LATAM"}[i%4]),
		}); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= nSymbols; i++ {
		if err := db.Insert(Symbol, storage.Row{
			catalog.Int(int64(i)),
			catalog.String(fmt.Sprintf("SYM%04d", i)),
			catalog.String(Sectors[g.Intn(len(Sectors))]),
			catalog.Int(g.UniformInt(1, int64(nExchanges))),
		}); err != nil {
			return nil, err
		}
	}

	histSpan := int64(CalendarDays - RecentWindowDays)
	insertBars := func(n int, day func() int64) error {
		for i := 0; i < n; i++ {
			open := g.Float(5, 500)
			spread := g.Float(0, open*0.1)
			if err := db.Insert(Bars, storage.Row{
				catalog.Int(g.SkewedInt(int64(nSymbols), 1.4)),
				catalog.Int(day()),
				catalog.Float(open),
				catalog.Float(open + spread),
				catalog.Float(open - spread),
				catalog.Float(open + g.Float(-spread, spread)),
				catalog.Int(g.UniformInt(100, 1000000)),
			}); err != nil {
				return err
			}
		}
		return nil
	}
	histDay := func() int64 { return g.UniformInt(1, histSpan) }
	floodDay := func() int64 { return g.UniformInt(histSpan+1, CalendarDays) }

	nHist := int(float64(nBars) * HistoricalFraction)
	analyze := storage.AnalyzeOptions{Histograms: true}
	if err := insertBars(nHist, histDay); err != nil {
		return nil, err
	}
	if opts.Hazards {
		// Statistics before the flood: a genuinely stale snapshot that
		// believes the recent window holds almost no bars.
		if err := storage.AnalyzeAll(db, analyze); err != nil {
			return nil, err
		}
	}
	if err := insertBars(nBars-nHist, floodDay); err != nil {
		return nil, err
	}
	if !opts.Hazards {
		if err := storage.AnalyzeAll(db, analyze); err != nil {
			return nil, err
		}
	}

	// Size memory so plan choice matters: dimensions fit, the bar table does
	// not, large sorts spill.
	cfg := db.Catalog.Config
	barPages := db.Pages(Bars)
	cfg.BufferPoolPages = max(32, barPages/5)
	cfg.SortHeapPages = max(4, barPages/40)
	db.Catalog.Config = cfg
	return db, nil
}

// RecentWindow returns the b_day range [lo, hi] holding the post-ANALYZE
// flood — the window every dashboard query aggregates over.
func RecentWindow() (lo, hi int64) {
	return CalendarDays - RecentWindowDays + 1, CalendarDays
}

// HazardQueries returns window aggregations over the recent window (and one
// wide and one historical control variant). The bar-table estimates of the
// recent-window queries are catastrophically low until Learn refreshes the
// statistics.
func (workload) HazardQueries(db *storage.Database, n int) []*sqlparser.Query {
	lo, hi := RecentWindow()
	var out []*sqlparser.Query
	add := func(sql string) {
		q := sqlparser.MustParse(sql)
		q.Name = fmt.Sprintf("OHLC.Q%02d", len(out)+1)
		out = append(out, q)
	}
	// Whole recent window, last half, last quarter: the daily dashboards.
	for _, w := range []int64{RecentWindowDays, RecentWindowDays / 2, RecentWindowDays / 4} {
		add(fmt.Sprintf(`SELECT b_symbol_sk, b_day, b_close, b_volume FROM bars
			WHERE b_day BETWEEN %d AND %d`, hi-w+1, hi))
	}
	// Sector-filtered window aggregations (the symbol scan is estimated
	// accurately; only the bars scan is hazardous).
	for i, w := range []int64{RecentWindowDays, RecentWindowDays / 2, RecentWindowDays / 4} {
		add(fmt.Sprintf(`SELECT b_symbol_sk, b_day FROM bars, symbol
			WHERE b_symbol_sk = sy_symbol_sk AND sy_sector = '%s'
			AND b_day BETWEEN %d AND %d
			GROUP BY b_symbol_sk, b_day`, Sectors[i%len(Sectors)], hi-w+1, hi))
	}
	// Wide variant: the recent window plus a tail of the old calendar — the
	// Figure 8 shape transplanted to time series.
	add(fmt.Sprintf(`SELECT b_symbol_sk, b_day, b_close FROM bars
		WHERE b_day BETWEEN %d AND %d`, lo-int64(CalendarDays/30), hi))
	// Historical control: a mid-calendar window both snapshots estimate well.
	mid := int64(CalendarDays-RecentWindowDays) / 2
	add(fmt.Sprintf(`SELECT b_symbol_sk, b_day, b_close FROM bars
		WHERE b_day BETWEEN %d AND %d`, mid, mid+RecentWindowDays))
	return scenario.First(out, n)
}

// Learn is the OHLC remedy: rerun the statistics pass, histograms included,
// over the full data. No correlation statistics are needed — staleness is the
// whole hazard.
func (workload) Learn(db *storage.Database) (optimizer.Options, error) {
	return scenario.Reanalyze(db, storage.AnalyzeOptions{Histograms: true})
}
