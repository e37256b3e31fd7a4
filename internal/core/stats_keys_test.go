package core

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"galo/internal/fleet"
	"galo/internal/workload/tpcds"
)

var updateStatsKeys = flag.Bool("update", false, "regenerate testdata/stats_keys.txt")

const statsKeysPath = "testdata/stats_keys.txt"

// TestStatsKeySetFrozen pins the set of JSON key paths GET /stats answers
// with. The system has a data directory open, tenancy on, a 1×1 fleet and its
// rebalancer attached, and has answered one tenant's /reopt, so every
// optional section is present. A path is dot-separated; the elements of an
// array of objects contribute their keys under "<key>[]". -update rewrites
// the file.
func TestStatsKeySetFrozen(t *testing.T) {
	opts, _ := chaosFleet(t, "", 1, 1)
	opts.Rebalance = fleet.RebalanceOptions{Enabled: true, Interval: time.Hour}
	cfg := durableConfig(t.TempDir(), 1)
	cfg.Tenancy = TenancyOptions{Enabled: true}
	cfg.Fleet = opts
	sys := NewSystem(coreDBForConfig(t), cfg)
	defer sys.Close()
	if _, err := sys.OpenDataDir(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.APIHandler())
	defer srv.Close()
	if code, _ := postReopt(t, srv.URL, "tenant-a", tpcds.Queries()[0].SQL(), "Q1"); code != http.StatusOK {
		t.Fatalf("/reopt answered %d", code)
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	keyPaths(doc, "", set)
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	got := strings.Join(paths, "\n") + "\n"

	if *updateStatsKeys {
		if err := os.WriteFile(statsKeysPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(statsKeysPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/stats key paths changed (-update regenerates %s):\ngot:\n%s\nwant:\n%s", statsKeysPath, got, want)
	}
}

// keyPaths adds the key path of every member of v under prefix to set.
func keyPaths(v any, prefix string, set map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			set[p] = true
			keyPaths(child, p, set)
		}
	case []any:
		for _, elem := range v {
			keyPaths(elem, prefix+"[]", set)
		}
	}
}
