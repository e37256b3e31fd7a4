// Package scenario defines the common contract of every workload — TPC-DS,
// client and the zoo (ohlc, joblike, trace): a deterministic data generator
// with a built-in estimation hazard, a set of queries whose cardinality
// estimates go wrong under default statistics, and a deterministic
// statistical remedy ("Learn") that fixes the estimates without touching the
// data. For the zoo, the gap between the pre-learning and post-learning
// q-error is what makes a scenario adversarial rather than decorative, and it
// is gated in tier-1 tests (internal/experiments) and BENCH_workloads.json.
package scenario

import (
	"hash/fnv"

	"galo/internal/optimizer"
	"galo/internal/sqlparser"
	"galo/internal/storage"
)

// GenOptions controls generation of a workload's dataset: the same options
// always produce a byte-identical database and query list at any worker
// count.
type GenOptions struct {
	// Seed makes generation deterministic.
	Seed int64
	// Scale multiplies the scenario's default row counts. Scenario-intrinsic
	// dimensions that the hazard depends on (calendar depth, tenant count,
	// genre fan-out) deliberately do NOT scale with it, so the hazard fires
	// at any scale.
	Scale float64
	// Hazards, when true (the usual case), leaves the scenario's estimation
	// hazard armed: statistics are collected in whatever blind-spotted way
	// the scenario prescribes (stale snapshot, no correlation stats). When
	// false, generation applies the remedy up front, producing the control
	// dataset the post-learning gate compares against.
	Hazards bool
}

// Scenario is one workload.
type Scenario interface {
	// Name is the registry key ("tpcds", "client", "ohlc", "joblike",
	// "trace").
	Name() string
	// Hazard is a one-line description of the estimation hazard.
	Hazard() string
	// DefaultGen returns the options that make the hazard fire at a
	// laptop-friendly size.
	DefaultGen() GenOptions
	// Generate builds the dataset, collects statistics per the hazard
	// prescription, and sizes the system configuration.
	Generate(opts GenOptions) (*storage.Database, error)
	// HazardQueries returns the first n (all for 0) deterministic queries over
	// the dataset: TPC-DS's and client's query lists, and for the zoo queries
	// whose base-table estimates are badly wrong pre-learning.
	HazardQueries(db *storage.Database, n int) []*sqlparser.Query
	// Learn applies the scenario's deterministic statistical remedy (refresh
	// the stale snapshot, collect correlation statistics) and returns the
	// optimizer options that consult the new statistics. It never modifies
	// stored rows.
	Learn(db *storage.Database) (optimizer.Options, error)
}

// Fixed is a Scenario whose queries are a fixed list — the paper's TPC-DS and
// client workloads: its hazard queries are the list's first n, and its remedy
// is Reanalyze with Analyze, the generator's statistics options.
type Fixed struct {
	Key, HazardText string
	Gen             GenOptions
	Build           func(GenOptions) (*storage.Database, error)
	Queries         func() []*sqlparser.Query
	Analyze         storage.AnalyzeOptions
}

func (f Fixed) Name() string                                        { return f.Key }
func (f Fixed) Hazard() string                                      { return f.HazardText }
func (f Fixed) DefaultGen() GenOptions                              { return f.Gen }
func (f Fixed) Generate(opts GenOptions) (*storage.Database, error) { return f.Build(opts) }
func (f Fixed) Learn(db *storage.Database) (optimizer.Options, error) {
	return Reanalyze(db, f.Analyze)
}
func (f Fixed) HazardQueries(_ *storage.Database, n int) []*sqlparser.Query {
	return First(f.Queries(), n)
}

// First returns the first n of qs, all of them when n is 0 or less.
func First(qs []*sqlparser.Query, n int) []*sqlparser.Query {
	if n > 0 && n < len(qs) {
		return qs[:n]
	}
	return qs
}

// Reanalyze is the statistical remedy the workloads share: it collects
// statistics again over the full data with opts, which also resets every
// stale factor, gives the optimizer the transfer rate the runtime observes,
// and returns the default optimizer options.
func Reanalyze(db *storage.Database, opts storage.AnalyzeOptions) (optimizer.Options, error) {
	if err := storage.AnalyzeAll(db, opts); err != nil {
		return optimizer.Options{}, err
	}
	cfg := db.Catalog.Config
	cfg.TransferRate = cfg.EffectiveRuntimeTransferRate()
	db.Catalog.Config = cfg
	return optimizer.DefaultOptions(), nil
}

// Fingerprint hashes every table, row and value of the database (table names
// in sorted order, rows in insertion order) into one 64-bit FNV-1a digest.
// Two databases with the same fingerprint are byte-identical for the
// purposes of the determinism gates.
func Fingerprint(db *storage.Database) uint64 {
	h := fnv.New64a()
	for _, name := range db.TableNames() {
		h.Write([]byte(name))
		h.Write([]byte{0})
		t := db.Table(name)
		if t == nil {
			continue
		}
		for _, row := range t.Rows {
			for _, v := range row {
				h.Write([]byte(v.Key()))
				h.Write([]byte{'|'})
			}
			h.Write([]byte{'\n'})
		}
	}
	return h.Sum64()
}

// FingerprintQueries hashes a query list (names and rendered SQL, in order)
// into one 64-bit FNV-1a digest.
func FingerprintQueries(qs []*sqlparser.Query) uint64 {
	h := fnv.New64a()
	for _, q := range qs {
		h.Write([]byte(q.Name))
		h.Write([]byte{0})
		h.Write([]byte(q.SQL()))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
