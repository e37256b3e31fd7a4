// Package joblike provides the correlated-join workload of the zoo, modeled
// on the Join Order Benchmark's IMDB queries: multi-column predicates whose
// columns are functionally dependent (a movie's certification class is
// determined by its genre; a company's tier by its country). The estimator's
// independence assumption multiplies the two selectivities and underestimates
// every such scan by the genre fan-out (16x), which cascades through the join
// tree — the reproducible target for the ROADMAP learned-estimation item.
// The remedy is DB2-style column-group statistics (storage.AnalyzeOptions.
// ColumnGroups + optimizer.Options.UseColumnGroups), which this scenario's
// Learn applies.
package joblike

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
	Movie        = "MOVIE"
	Company      = "COMPANY"
	MovieCompany = "MOVIE_COMPANY"
	CastInfo     = "CAST_INFO"
	Person       = "PERSON"
)

// Genres is the movie genre domain; each genre deterministically implies one
// certification class (ClassOf), a fan-out of len(Genres) that the
// independence assumption divides estimates by.
var Genres = []string{
	"action", "comedy", "drama", "horror", "thriller", "romance", "scifi", "fantasy",
	"crime", "mystery", "western", "musical", "war", "history", "sport", "animation",
}

// Countries is the company country domain; each country implies one market
// tier (TierOf).
var Countries = []string{
	"us", "uk", "de", "fr", "jp", "in", "cn", "kr",
	"it", "es", "br", "mx", "ca", "au", "se", "nl",
}

// ClassOf returns the certification class functionally determined by a
// genre. It is the scenario's oracle: every MOVIE row satisfies
// m_class = ClassOf(m_genre).
func ClassOf(genre string) string { return "cert-" + genre }

// TierOf returns the market tier functionally determined by a country:
// every COMPANY row satisfies co_tier = TierOf(co_country).
func TierOf(country string) string { return "tier-" + country }

// Schema returns the JOB-like schema.
func Schema() *catalog.Schema {
	s := catalog.NewSchema("JOBLIKE")

	movie := catalog.NewTable(Movie,
		catalog.Column{Name: "m_movie_sk", Type: catalog.KindInt},
		catalog.Column{Name: "m_title", Type: catalog.KindString},
		catalog.Column{Name: "m_genre", Type: catalog.KindString},
		catalog.Column{Name: "m_class", Type: catalog.KindString},
		catalog.Column{Name: "m_year", Type: catalog.KindInt},
		catalog.Column{Name: "m_votes", Type: catalog.KindInt},
	)
	movie.PrimaryKey = []string{"M_MOVIE_SK"}
	mustIndex(movie, catalog.Index{Name: "M_MOVIE_SK_IDX", Columns: []string{"m_movie_sk"}, Unique: true, ClusterRatio: 0.98})
	mustIndex(movie, catalog.Index{Name: "M_GENRE_IDX", Columns: []string{"m_genre"}, ClusterRatio: 0.25})
	s.AddTable(movie)

	company := catalog.NewTable(Company,
		catalog.Column{Name: "co_company_sk", Type: catalog.KindInt},
		catalog.Column{Name: "co_name", Type: catalog.KindString},
		catalog.Column{Name: "co_country", Type: catalog.KindString},
		catalog.Column{Name: "co_tier", Type: catalog.KindString},
	)
	company.PrimaryKey = []string{"CO_COMPANY_SK"}
	mustIndex(company, catalog.Index{Name: "CO_COMPANY_SK_IDX", Columns: []string{"co_company_sk"}, Unique: true, ClusterRatio: 0.98})
	s.AddTable(company)

	movieCompany := catalog.NewTable(MovieCompany,
		catalog.Column{Name: "mc_movie_sk", Type: catalog.KindInt},
		catalog.Column{Name: "mc_company_sk", Type: catalog.KindInt},
		catalog.Column{Name: "mc_kind", Type: catalog.KindString},
	)
	mustIndex(movieCompany, catalog.Index{Name: "MC_MOVIE_IDX", Columns: []string{"mc_movie_sk"}, ClusterRatio: 0.40})
	mustIndex(movieCompany, catalog.Index{Name: "MC_COMPANY_IDX", Columns: []string{"mc_company_sk"}, ClusterRatio: 0.15})
	s.AddTable(movieCompany)

	castInfo := catalog.NewTable(CastInfo,
		catalog.Column{Name: "ci_movie_sk", Type: catalog.KindInt},
		catalog.Column{Name: "ci_person_sk", Type: catalog.KindInt},
		catalog.Column{Name: "ci_role", Type: catalog.KindString},
	)
	mustIndex(castInfo, catalog.Index{Name: "CI_MOVIE_IDX", Columns: []string{"ci_movie_sk"}, ClusterRatio: 0.40})
	mustIndex(castInfo, catalog.Index{Name: "CI_PERSON_IDX", Columns: []string{"ci_person_sk"}, ClusterRatio: 0.15})
	s.AddTable(castInfo)

	person := catalog.NewTable(Person,
		catalog.Column{Name: "p_person_sk", Type: catalog.KindInt},
		catalog.Column{Name: "p_name", Type: catalog.KindString},
		catalog.Column{Name: "p_gender", Type: catalog.KindString},
	)
	person.PrimaryKey = []string{"P_PERSON_SK"}
	mustIndex(person, catalog.Index{Name: "P_PERSON_SK_IDX", Columns: []string{"p_person_sk"}, Unique: true, ClusterRatio: 0.98})
	s.AddTable(person)

	return s
}

func mustIndex(t *catalog.Table, idx catalog.Index) {
	if err := t.AddIndex(idx); err != nil {
		panic(err)
	}
}

// ColumnGroups returns the correlation statistics specification that fixes
// this scenario: combined statistics over each functionally dependent pair.
func ColumnGroups() map[string][][]string {
	return map[string][][]string{
		Movie:   {{"m_genre", "m_class"}},
		Company: {{"co_country", "co_tier"}},
	}
}

// workload implements scenario.Scenario.
type workload struct{}

// New returns the JOB-like scenario.
func New() scenario.Scenario { return workload{} }

func (workload) Name() string { return "joblike" }

func (workload) Hazard() string {
	return "functionally dependent predicate pairs: the independence assumption underestimates by the genre fan-out"
}

func (workload) DefaultGen() scenario.GenOptions {
	return scenario.GenOptions{Seed: 20190802, Scale: 1.0, Hazards: true}
}

func rowCounts(scale float64) (nMovies, nCompanies, nMovieCompanies, nCast, nPersons int) {
	if scale <= 0 {
		scale = 1.0
	}
	atLeast := func(n, lo int) int {
		if n < lo {
			return lo
		}
		return n
	}
	nMovies = atLeast(int(8000*scale), 64*len(Genres))
	nCompanies = atLeast(int(800*scale), 8*len(Countries))
	nMovieCompanies = atLeast(int(16000*scale), nMovies)
	nCast = atLeast(int(24000*scale), nMovies)
	nPersons = atLeast(int(4000*scale), 64)
	return
}

// Generate builds the JOB-like database. Statistics are always fresh — the
// hazard here is not staleness but the *kind* of statistics collected: with
// Hazards on, no column-group statistics exist, so the optimizer multiplies
// the functionally dependent selectivities.
func (workload) Generate(opts scenario.GenOptions) (*storage.Database, error) {
	nMovies, nCompanies, nMovieCompanies, nCast, nPersons := rowCounts(opts.Scale)
	cat := catalog.New(Schema())
	db := storage.NewDatabase(cat)
	g := storage.NewGenerator(opts.Seed)

	for i := 1; i <= nMovies; i++ {
		genre := Genres[g.Intn(len(Genres))]
		if err := db.Insert(Movie, storage.Row{
			catalog.Int(int64(i)),
			catalog.String(fmt.Sprintf("Movie %05d", i)),
			catalog.String(genre),
			catalog.String(ClassOf(genre)),
			catalog.Int(g.UniformInt(1950, 2019)),
			catalog.Int(g.UniformInt(10, 2000000)),
		}); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= nCompanies; i++ {
		country := Countries[g.Intn(len(Countries))]
		if err := db.Insert(Company, storage.Row{
			catalog.Int(int64(i)),
			catalog.String(fmt.Sprintf("Company %04d", i)),
			catalog.String(country),
			catalog.String(TierOf(country)),
		}); err != nil {
			return nil, err
		}
	}
	kinds := []string{"production", "distribution", "effects", "finance"}
	for i := 0; i < nMovieCompanies; i++ {
		if err := db.Insert(MovieCompany, storage.Row{
			catalog.Int(g.SkewedInt(int64(nMovies), 1.3)),
			catalog.Int(g.SkewedInt(int64(nCompanies), 1.6)),
			catalog.String(kinds[g.Intn(len(kinds))]),
		}); err != nil {
			return nil, err
		}
	}
	roles := []string{"actor", "actress", "director", "writer", "producer", "composer"}
	for i := 0; i < nCast; i++ {
		if err := db.Insert(CastInfo, storage.Row{
			catalog.Int(g.SkewedInt(int64(nMovies), 1.3)),
			catalog.Int(g.SkewedInt(int64(nPersons), 1.5)),
			catalog.String(roles[g.Intn(len(roles))]),
		}); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= nPersons; i++ {
		gender := "m"
		if g.Bool(0.5) {
			gender = "f"
		}
		if err := db.Insert(Person, storage.Row{
			catalog.Int(int64(i)),
			catalog.String(fmt.Sprintf("Person %05d", i)),
			catalog.String(gender),
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
	factPages := db.Pages(MovieCompany) + db.Pages(CastInfo)
	cfg.BufferPoolPages = max(32, factPages/5)
	cfg.SortHeapPages = max(4, factPages/40)
	db.Catalog.Config = cfg
	return db, nil
}

// HazardQueries returns JOB-shaped queries whose scans carry functionally
// dependent predicate pairs on movie (genre, class) and company
// (country, tier).
func (workload) HazardQueries(db *storage.Database, n int) []*sqlparser.Query {
	var out []*sqlparser.Query
	add := func(sql string) {
		q := sqlparser.MustParse(sql)
		q.Name = fmt.Sprintf("JOB.Q%02d", len(out)+1)
		out = append(out, q)
	}
	genre := func(i int) string { return Genres[i%len(Genres)] }
	country := func(i int) string { return Countries[i%len(Countries)] }

	// Single-table FD pairs.
	for i := 0; i < 2; i++ {
		add(fmt.Sprintf(`SELECT m_title, m_year, m_votes FROM movie
			WHERE m_genre = '%s' AND m_class = '%s'`, genre(i), ClassOf(genre(i))))
	}
	// Movie x movie_company x company with FD pairs on both ends.
	for i := 2; i < 4; i++ {
		add(fmt.Sprintf(`SELECT m_title, co_name FROM movie, movie_company, company
			WHERE m_movie_sk = mc_movie_sk AND mc_company_sk = co_company_sk
			AND m_genre = '%s' AND m_class = '%s'
			AND co_country = '%s' AND co_tier = '%s'`,
			genre(i), ClassOf(genre(i)), country(i), TierOf(country(i))))
	}
	// Movie x cast_info x person with the movie-side FD pair.
	for i := 4; i < 6; i++ {
		add(fmt.Sprintf(`SELECT m_title, p_name FROM movie, cast_info, person
			WHERE m_movie_sk = ci_movie_sk AND ci_person_sk = p_person_sk
			AND m_genre = '%s' AND m_class = '%s' AND p_gender = 'f'`,
			genre(i), ClassOf(genre(i))))
	}
	// Company-side FD pair only; the movie side carries an accurate range.
	add(fmt.Sprintf(`SELECT m_title, co_name FROM movie, movie_company, company
		WHERE m_movie_sk = mc_movie_sk AND mc_company_sk = co_company_sk
		AND m_year >= 2000 AND co_country = '%s' AND co_tier = '%s'`,
		country(6), TierOf(country(6))))
	// Control: a single-column predicate both configurations estimate well.
	add(fmt.Sprintf(`SELECT m_title, m_votes FROM movie WHERE m_genre = '%s'`, genre(7)))
	return scenario.First(out, n)
}

// Learn is the JOB-like remedy: collect column-group statistics over the
// functionally dependent pairs and turn on the estimator's group lookup.
func (workload) Learn(db *storage.Database) (optimizer.Options, error) {
	o, err := scenario.Reanalyze(db, storage.AnalyzeOptions{Histograms: true, ColumnGroups: ColumnGroups()})
	o.UseColumnGroups = true
	return o, err
}
