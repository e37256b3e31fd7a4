package main

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"galo"
	"galo/internal/workload/scenario"
)

// TestFlagSurfaceFrozen builds every command's flag set from the options
// table and compares each flag's name and printed default with
// testdata/flags.txt, which was generated from `galo <cmd> -h` before the
// table existed (see the verify notes for the command). Building all seven
// sets also catches two entries binding one flag name for one command: the
// flag package panics on the redefinition.
func TestFlagSurfaceFrozen(t *testing.T) {
	var got []string
	for _, c := range commands {
		var help bytes.Buffer
		fs := flags(c.name, new(settings))
		fs.SetOutput(&help)
		fs.PrintDefaults()
		name, def := "", ""
		emit := func() {
			if name != "" {
				got = append(got, strings.TrimSpace(c.name+" "+name+" "+def))
			}
		}
		for _, line := range strings.Split(help.String(), "\n") {
			if strings.HasPrefix(line, "  -") {
				emit()
				name, def = strings.Fields(line)[0], ""
			} else if i := strings.LastIndex(line, "(default "); i >= 0 {
				def = strings.ReplaceAll(strings.TrimSuffix(line[i+len("(default "):], ")"), `"`, "")
			}
		}
		emit()
	}
	data, err := os.ReadFile("testdata/flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %q\nwant %q", got, want)
	}
}

// TestFlagsWriteConfig parses argvs and checks the configuration and the
// command inputs they produce; the expected values are what each command
// built from the same flags before the options table. An explicit -shards
// that disagrees with the -fleet group count is an error naming both, not a
// silent override.
func TestFlagsWriteConfig(t *testing.T) {
	workload := settings{workload: "tpcds", kb: "kb.nt", scale: 0.2, seed: 20190522}
	always, _ := galo.ParseSyncPolicy("always")
	serve := galo.DefaultConfig()
	serve.Shards = 2
	serve.Exec = galo.ExecOptions{Workers: 4, MemBudgetBytes: 256 << 20}
	serve.Admission = galo.AdmissionOptions{ProbeBudget: 5, MaxConcurrent: 7}
	serve.Tenancy = galo.TenancyOptions{Enabled: true, ShareTemplates: true, MaxTenants: 9}
	serve.Fleet = galo.FleetOptions{
		Shards:    [][]string{{"http://a:1", "http://b:1"}, {"http://c:2"}},
		Policy:    galo.FleetPolicy{ProbeTimeout: 3 * time.Second, MaxAttempts: 4, HedgeAfter: 50 * time.Millisecond},
		Rebalance: galo.RebalanceOptions{Enabled: true, Interval: 2 * time.Second},
	}
	serve.DataDir = "data"
	serve.Sync = always
	serve.SnapshotEvery = 100
	serve.Online = galo.DefaultOnlineOptions()
	serveIn := settings{workload: "joblike", kb: "x.nt", addr: "127.0.0.1:9", scale: 0.1, seed: 7, queries: 3}

	reopt := galo.DefaultConfig()
	reopt.Shards = 3
	reopt.Exec = galo.ExecOptions{Workers: 4, MemBudgetBytes: 1 << 30}

	fleetOnly := galo.DefaultConfig()
	fleetOnly.Shards = 2
	fleetOnly.Fleet.Shards = [][]string{{"http://a:1"}, {"http://b:2"}}
	fleetOnlyIn := workload
	fleetOnlyIn.addr = ":3030"

	noFleet := galo.DefaultConfig()
	noFleet.Shards = 1

	trace := galo.DefaultConfig()
	trace.Admission.ProbeBudget = 8
	traceIn := settings{scale: 0.25, seed: 20190803, profile: "bursty", tenants: 4, arrivals: 128, burstLen: 16, speedup: 10}

	learn := galo.DefaultConfig()
	learn.Learning.Workload = "tpcds"

	cases := []struct {
		cmd  string
		args []string
		want galo.Config
		in   settings // the command inputs beside the configuration
		err  string
	}{
		{"serve", []string{
			"-kb", "x.nt", "-addr", "127.0.0.1:9", "-online", "-shards", "2",
			"-probe-budget", "5", "-max-inflight", "7",
			"-tenant-namespaces", "-tenant-share", "-max-tenants", "9",
			"-fleet", "http://a:1, http://b:1/;http://c:2",
			"-fleet-probe-timeout", "3s", "-fleet-attempts", "4", "-fleet-hedge", "50ms",
			"-fleet-rebalance", "-fleet-rebalance-interval", "2s",
			"-data-dir", "data", "-sync", "always", "-snapshot-every", "100",
			"-exec-workers", "4", "-exec-mem-budget", "256MB",
			"-workload", "joblike", "-scale", "0.1", "-seed", "7", "-queries", "3",
		}, serve, serveIn, ""},
		// -fleet alone sets the shard count from its groups.
		{"serve", []string{"-fleet", "http://a:1;http://b:2"}, fleetOnly, fleetOnlyIn, ""},
		// Without -fleet the fleet knobs configure nothing, and an empty
		// -fleet or -exec-mem-budget means none.
		{"serve", []string{"-fleet", "", "-fleet-attempts", "5", "-fleet-rebalance", "-exec-mem-budget", ""},
			noFleet, fleetOnlyIn, ""},
		{cmd: "serve", args: []string{"-shards", "4", "-fleet", "http://a:1;http://b:2"},
			err: "-shards 4 contradicts the 2 shard groups of -fleet"},
		{cmd: "serve", args: []string{"-fleet", "http://a:1;http://b:2", "-shards", "1"},
			err: "-shards 1 contradicts the 2 shard groups of -fleet"},
		{"reopt", []string{"-shards", "3", "-exec-workers", "4", "-exec-mem-budget", "1GB"}, reopt, workload, ""},
		{"trace", nil, trace, traceIn, ""},
		{"learn", nil, learn, workload, ""},
	}
	for _, c := range cases {
		s, err := parse(c.cmd, c.args)
		if c.err != "" || err != nil {
			if err == nil || err.Error() != c.err {
				t.Errorf("%s %q: err = %v, want %q", c.cmd, c.args, err, c.err)
			}
			continue
		}
		if !reflect.DeepEqual(s.Config, c.want) {
			t.Errorf("%s %q: config\n got %+v\nwant %+v", c.cmd, c.args, s.Config, c.want)
		}
		in := *s
		in.Config = galo.Config{}
		if !reflect.DeepEqual(in, c.in) {
			t.Errorf("%s %q: inputs\n got %+v\nwant %+v", c.cmd, c.args, in, c.in)
		}
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"512", 512, true},
		{"0", 0, true},
		{"512B", 512, true},
		{"64KB", 64 << 10, true},
		{"64k", 64 << 10, true},
		{" 256 MB ", 256 << 20, true},
		{"256m", 256 << 20, true},
		{"1GB", 1 << 30, true},
		{"2G", 2 << 30, true},
		{"4294967296GB", 1 << 62, true},
		{"4294967297GB", 0, false}, // past the overflow guard
		// Only the one suffix that matched is a unit; what is left must be a
		// number ("5MK" used to parse as 5 KB).
		{"5MK", 0, false},
		{"5KMGB", 0, false},
		{"5BB", 0, false},
		{"MB", 0, false},
		{"", 0, false},
		{"-1KB", 0, false},
		{"1.5GB", 0, false},
		{"12TB", 0, false},
	}
	for _, c := range cases {
		got, err := parseByteSize(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseByteSize(%q): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if got != c.want {
			t.Errorf("parseByteSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseFleetSpec(t *testing.T) {
	cases := []struct {
		in   string
		want [][]string
	}{
		{"http://a:1", [][]string{{"http://a:1"}}},
		{"http://a:1/,https://b:2", [][]string{{"http://a:1", "https://b:2"}}},
		{" http://a:1 , http://b:2 ; http://c:3 ", [][]string{{"http://a:1", "http://b:2"}, {"http://c:3"}}},
		{"http://a:1,,http://b:2", [][]string{{"http://a:1", "http://b:2"}}},
		{"", nil},
		{"http://a:1;", nil}, // a shard group with no replica
		{";http://a:1", nil},
		{"a:1", nil}, // not an http(s) URL
		{"http://a:1,ftp://b", nil},
	}
	for _, c := range cases {
		got, err := parseFleetSpec(c.in)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseFleetSpec(%q) = %v, want an error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseFleetSpec(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseFleetSpec(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestSeedZeroIsTheWorkloadDefault: -seed 0 generates every workload from its
// own DefaultGen seed, as the flag's help text says.
func TestSeedZeroIsTheWorkloadDefault(t *testing.T) {
	for _, name := range []string{"tpcds", "client", "ohlc", "joblike", "trace"} {
		db, _, err := (&settings{workload: name, scale: 0.05}).load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sc, _ := galo.ScenarioByName(name)
		gen := sc.DefaultGen()
		gen.Scale = 0.05
		want, err := sc.Generate(gen)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, fp := scenario.Fingerprint(db), scenario.Fingerprint(want); got != fp {
			t.Errorf("%s -seed 0: fingerprint %x, DefaultGen gives %x", name, got, fp)
		}
	}
}
