package storage_test

import (
	"testing"

	"galo/internal/catalog"
	"galo/internal/storage"
	"galo/internal/workload/client"
	"galo/internal/workload/joblike"
	"galo/internal/workload/ohlc"
	"galo/internal/workload/scenario"
	"galo/internal/workload/tpcds"
	"galo/internal/workload/trace"
)

// TestKeyWordsOverShippedSchemas holds the key-word vectors to their
// definition over every table of every workload the repository ships: the
// vector of a column is nil exactly when the column holds a string, and
// otherwise carries catalog.Value.KeyWord of every row — KeyWordNull where
// the row holds NULL.
func TestKeyWordsOverShippedSchemas(t *testing.T) {
	dbs := map[string]*storage.Database{}
	var err error
	if dbs["tpcds"], err = tpcds.Generate(tpcds.GenOptions{Seed: 5, Scale: 0.1, Hazards: true}); err != nil {
		t.Fatal(err)
	}
	clientOpts := client.DefaultGenOptions()
	clientOpts.Scale = 0.1
	if dbs["client"], err = client.Generate(clientOpts); err != nil {
		t.Fatal(err)
	}
	for _, sc := range []scenario.Scenario{joblike.New(), ohlc.New(), trace.New()} {
		opts := sc.DefaultGen()
		opts.Scale = 0.1
		if dbs[sc.Name()], err = sc.Generate(opts); err != nil {
			t.Fatal(err)
		}
	}
	for name, db := range dbs {
		vectors, stringCols, nulls := 0, 0, 0
		for _, tn := range db.TableNames() {
			table := db.Table(tn)
			for c, col := range table.Def.Columns {
				holdsString := false
				for _, row := range table.Rows {
					holdsString = holdsString || row[c].K == catalog.KindString
				}
				words := table.KeyWords(c)
				if holdsString {
					stringCols++
					if words != nil {
						t.Errorf("%s %s.%s holds a string and has a key-word vector", name, tn, col.Name)
					}
					continue
				}
				vectors++
				if words == nil || len(words) != len(table.Rows) {
					t.Fatalf("%s %s.%s: vector of %d words (nil: %v) over %d rows", name, tn, col.Name, len(words), words == nil, len(table.Rows))
				}
				for i, row := range table.Rows {
					if w, _ := row[c].KeyWord(); words[i] != w {
						t.Fatalf("%s %s.%s row %d: word %#x, KeyWord of %v is %#x", name, tn, col.Name, i, words[i], row[c], w)
					}
					if row[c].IsNull() {
						nulls++
						if words[i] != catalog.KeyWordNull {
							t.Fatalf("%s %s.%s row %d: NULL carries word %#x", name, tn, col.Name, i, words[i])
						}
					}
				}
			}
		}
		t.Logf("%s: %d vectors, %d string columns, %d NULLs", name, vectors, stringCols, nulls)
		if vectors == 0 || stringCols == 0 {
			t.Errorf("%s: %d vectors and %d string columns checked: not a meaningful property", name, vectors, stringCols)
		}
	}
}
