package tpcds

import (
	"fmt"

	"galo/internal/catalog"
	"galo/internal/storage"
	"galo/internal/workload/scenario"
)

// GenOptions controls data generation. Scale 1.0 is tens of thousands of
// fact rows, a laptop-scale stand-in for the paper's 1 GB database.
type GenOptions = scenario.GenOptions

// New returns the TPC-DS workload as a scenario: Generate's hazards, the 99
// queries, and a remedy that collects the statistics again, histograms
// included, and restores the runtime transfer rate.
func New() scenario.Scenario {
	return scenario.Fixed{
		Key:        "tpcds",
		HazardText: "statistics snapshotted before the recent-window flood, and a configured transfer rate 3x the runtime's",
		Gen:        scenario.GenOptions{Seed: 20190522, Scale: 1.0, Hazards: true},
		Build:      Generate, Queries: Queries, Analyze: storage.AnalyzeOptions{Histograms: true},
	}
}

// HistoricalFraction is the share of each fact table loaded as the
// "historical" wave, whose dates spread over the old calendar. The remaining
// rows are the recent-window flood loaded after statistics collection when
// hazards are on.
const HistoricalFraction = 0.3

// rowCounts returns per-table row counts at the given scale.
func rowCounts(scale float64) map[string]int {
	if scale <= 0 {
		scale = 1.0
	}
	base := map[string]int{
		Item:                 1800,
		DateDim:              2400,
		StoreSales:           28800,
		CatalogSales:         14400,
		WebSales:             9600,
		Customer:             5000,
		CustomerAddress:      2500,
		CustomerDemographics: 4800,
		Store:                12,
		Promotion:            100,
	}
	out := make(map[string]int, len(base))
	for k, v := range base {
		n := int(float64(v) * scale)
		if n < 4 {
			n = 4
		}
		out[k] = n
	}
	return out
}

// Generate builds the database, populates it and collects statistics. With
// Hazards set it installs the estimation hazards the paper's problem patterns
// stem from: statistics (including the ANALYZE histograms) are collected
// after the historical fact wave but *before* the recent-window flood — so
// the optimizer plans over a snapshot that is genuinely stale, believing the
// fact tables are ~HistoricalFraction of their true size and that almost no
// fact rows carry recent dates — and the configured transfer rate overstates
// the true sequential read cost 3x (the Figure 7 pattern).
func Generate(opts GenOptions) (*storage.Database, error) {
	counts := rowCounts(opts.Scale)
	cat := catalog.New(Schema())
	db := storage.NewDatabase(cat)
	g := storage.NewGenerator(opts.Seed)

	nItems := counts[Item]
	nDates := counts[DateDim]
	nCustomers := counts[Customer]
	nAddresses := counts[CustomerAddress]
	nDemos := counts[CustomerDemographics]
	nStores := counts[Store]
	nPromos := counts[Promotion]

	// ITEM: i_class is determined by i_category (3 classes per category), a
	// correlation the optimizer's independence assumption misses.
	for i := 1; i <= nItems; i++ {
		cat := Categories[g.Intn(len(Categories))]
		class := fmt.Sprintf("%s-class-%d", cat, g.Intn(3)+1)
		if err := db.Insert(Item, storage.Row{
			catalog.Int(int64(i)),
			catalog.String(fmt.Sprintf("ITEM%06d", i)),
			catalog.String(fmt.Sprintf("%s item %d description", cat, i)),
			catalog.String(cat),
			catalog.String(class),
			catalog.String(fmt.Sprintf("Brand#%d", g.Intn(40)+1)),
			catalog.Float(g.Float(0.5, 300)),
			catalog.Float(g.Float(0.2, 150)),
		}); err != nil {
			return nil, err
		}
	}

	// DATE_DIM: a long calendar range; the bulk of the sales references only
	// the final saleWindow days, reproducing the Figure 8 mismatch between
	// the dimension's range and the fact data's range.
	const startYearDay = int64(7305) // 1990-01-01 in days since epoch
	dayNames := []string{"Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"}
	for i := 1; i <= nDates; i++ {
		day := startYearDay + int64(i-1)
		year := 1990 + (i-1)/365
		if err := db.Insert(DateDim, storage.Row{
			catalog.Int(int64(i)),
			catalog.DateFromDays(day),
			catalog.Int(int64(year)),
			catalog.Int(int64((i/30)%12 + 1)),
			catalog.Int(int64(i%28 + 1)),
			catalog.String(dayNames[i%7]),
		}); err != nil {
			return nil, err
		}
	}
	saleWindow := nDates / 12 // the flood lives in the most recent twelfth of the calendar
	if saleWindow < 1 {
		saleWindow = 1
	}
	histSpan := nDates - saleWindow
	if histSpan < 1 {
		histSpan = 1
	}
	// saleDate draws a flood date from the recent window; histDate draws a
	// historical date uniformly over the old calendar.
	saleDate := func() int64 {
		return int64(nDates - g.Intn(saleWindow))
	}
	histDate := func() int64 {
		return int64(g.Intn(histSpan) + 1)
	}

	// CUSTOMER_ADDRESS: state heavily skewed toward the first few states.
	stateWeights := make([]float64, len(States))
	for i := range States {
		stateWeights[i] = 1.0 / float64(i+1)
	}
	for i := 1; i <= nAddresses; i++ {
		if err := db.Insert(CustomerAddress, storage.Row{
			catalog.Int(int64(i)),
			catalog.String(g.WeightedChoice(States, stateWeights)),
			catalog.String(fmt.Sprintf("City%03d", g.Intn(200))),
			catalog.String("United States"),
			catalog.Int(int64(-g.Intn(8) - 1)),
		}); err != nil {
			return nil, err
		}
	}

	// CUSTOMER_DEMOGRAPHICS: education correlates with purchase estimate.
	educations := []string{"Primary", "Secondary", "College", "2 yr Degree", "4 yr Degree", "Advanced Degree"}
	for i := 1; i <= nDemos; i++ {
		edu := g.Intn(len(educations))
		purchase := int64(500*(edu+1)) + g.UniformInt(0, 499)
		gender := "M"
		if g.Bool(0.5) {
			gender = "F"
		}
		marital := []string{"S", "M", "D", "W"}[g.Intn(4)]
		if err := db.Insert(CustomerDemographics, storage.Row{
			catalog.Int(int64(i)),
			catalog.String(gender),
			catalog.String(marital),
			catalog.String(educations[edu]),
			catalog.Int(purchase),
		}); err != nil {
			return nil, err
		}
	}

	// CUSTOMER.
	for i := 1; i <= nCustomers; i++ {
		if err := db.Insert(Customer, storage.Row{
			catalog.Int(int64(i)),
			catalog.Int(g.UniformInt(1, int64(nAddresses))),
			catalog.Int(g.UniformInt(1, int64(nDemos))),
			catalog.String(fmt.Sprintf("First%04d", g.Intn(2000))),
			catalog.String(fmt.Sprintf("Last%04d", g.Intn(3000))),
			catalog.Int(g.UniformInt(1930, 2005)),
		}); err != nil {
			return nil, err
		}
	}

	// STORE and PROMOTION.
	for i := 1; i <= nStores; i++ {
		if err := db.Insert(Store, storage.Row{
			catalog.Int(int64(i)),
			catalog.String(fmt.Sprintf("Store %c", 'A'+i%26)),
			catalog.String(States[i%len(States)]),
			catalog.Int(g.UniformInt(5000, 100000)),
		}); err != nil {
			return nil, err
		}
	}
	yn := []string{"Y", "N"}
	for i := 1; i <= nPromos; i++ {
		if err := db.Insert(Promotion, storage.Row{
			catalog.Int(int64(i)),
			catalog.String(yn[g.Intn(2)]),
			catalog.String(yn[g.Intn(2)]),
			catalog.Float(g.Float(100, 5000)),
		}); err != nil {
			return nil, err
		}
	}

	// Fact tables: item and customer foreign keys are Zipf-skewed (popular
	// items and repeat customers dominate). Rows arrive in two waves: a
	// historical wave whose dates spread over the old calendar and the
	// recent-window flood. With hazards on, statistics — cardinalities AND
	// the ANALYZE histograms — are snapshotted between the waves, which is
	// exactly the stale-statistics window behind the paper's Figure 8: the
	// optimizer believes recent dates are nearly empty of sales when in truth
	// they hold the bulk of the data.
	insertFacts := func(date func() int64, n map[string]int) error {
		for i := 0; i < n[StoreSales]; i++ {
			if err := db.Insert(StoreSales, storage.Row{
				catalog.Int(date()),
				catalog.Int(g.SkewedInt(int64(nItems), 1.8)),
				catalog.Int(g.SkewedInt(int64(nCustomers), 1.5)),
				catalog.Int(g.UniformInt(1, int64(nDemos))),
				catalog.Int(g.SkewedInt(int64(nAddresses), 1.4)),
				catalog.Int(g.UniformInt(1, int64(nStores))),
				catalog.Int(g.UniformInt(1, 100)),
				catalog.Float(g.Float(1, 500)),
				catalog.Float(g.Float(-50, 250)),
			}); err != nil {
				return err
			}
		}
		for i := 0; i < n[CatalogSales]; i++ {
			if err := db.Insert(CatalogSales, storage.Row{
				catalog.Int(date()),
				catalog.Int(g.SkewedInt(int64(nItems), 2.0)),
				catalog.Int(g.SkewedInt(int64(nCustomers), 1.6)),
				catalog.Int(g.SkewedInt(int64(nAddresses), 1.6)),
				catalog.Int(g.UniformInt(1, int64(nDemos))),
				catalog.Int(g.UniformInt(1, 100)),
				catalog.Float(g.Float(1, 800)),
			}); err != nil {
				return err
			}
		}
		for i := 0; i < n[WebSales]; i++ {
			if err := db.Insert(WebSales, storage.Row{
				catalog.Int(date()),
				catalog.Int(g.SkewedInt(int64(nItems), 1.7)),
				catalog.Int(g.SkewedInt(int64(nCustomers), 1.5)),
				catalog.Int(g.UniformInt(1, 100)),
				catalog.Float(g.Float(1, 600)),
			}); err != nil {
				return err
			}
		}
		return nil
	}
	histCounts := map[string]int{}
	floodCounts := map[string]int{}
	for _, tbl := range []string{StoreSales, CatalogSales, WebSales} {
		histCounts[tbl] = int(float64(counts[tbl]) * HistoricalFraction)
		floodCounts[tbl] = counts[tbl] - histCounts[tbl]
	}
	if err := insertFacts(histDate, histCounts); err != nil {
		return nil, err
	}
	analyze := storage.AnalyzeOptions{Histograms: true}
	if opts.Hazards {
		// Statistics before the flood: a genuinely stale snapshot.
		if err := storage.AnalyzeAll(db, analyze); err != nil {
			return nil, err
		}
	}
	if err := insertFacts(saleDate, floodCounts); err != nil {
		return nil, err
	}
	if !opts.Hazards {
		if err := storage.AnalyzeAll(db, analyze); err != nil {
			return nil, err
		}
	}
	// Size memory relative to the data so plan choice matters at any scale:
	// dimension tables (and a stale-statistics-sized fact snapshot) fit in
	// the buffer pool while the biggest fact tables do not, and large hash
	// builds and sorts spill — mirroring the paper's 1 GB database with
	// "main memory adjusted accordingly to simulate real-world environment".
	cfg := db.Catalog.Config
	factPages := db.Pages(StoreSales) + db.Pages(CatalogSales) + db.Pages(WebSales)
	cfg.BufferPoolPages = max(32, factPages/5)
	cfg.SortHeapPages = max(4, factPages/40)
	if opts.Hazards {
		cfg.RuntimeTransferRate = cfg.TransferRate
		cfg.TransferRate = cfg.TransferRate * 3.0
	}
	db.Catalog.Config = cfg
	return db, nil
}

// SaleDateRange returns the d_date_sk range [lo, hi] holding the
// recent-window flood (the bulk of the fact rows), and the full dimension
// range [1, max]. Queries filtering on ranges around this window reproduce
// the misestimation of Figure 8.
func SaleDateRange(db *storage.Database) (lo, hi, max int64) {
	n := int64(db.RowCount(DateDim))
	window := n / 12
	if window < 1 {
		window = 1
	}
	return n - window + 1, n, n
}

// WideDateRange returns the d_date_sk range of the Figure 8 wide-range
// variant: it covers the entire recent sale window plus a tail of the old
// calendar — months of dates, all of the actual sales — yet a statistics
// snapshot taken before the flood believes it matches only the thin
// historical tail.
func WideDateRange(db *storage.Database) (lo, hi int64) {
	winLo, winHi, max := SaleDateRange(db)
	histSpan := max - (winHi - winLo + 1)
	tail := histSpan / 30
	if tail < 1 {
		tail = 1
	}
	lo = winLo - tail
	if lo < 1 {
		lo = 1
	}
	return lo, winHi
}
