// Golden probe suite: every fragment of the routinized pool, of
// tpcds.Queries() and of 200 distinct-stream queries renders the SPARQL text
// it rendered before probes were prepared, builds the query that text parses
// to, and gets the same solutions in the same order — LIMIT 8 cuts by
// enumeration order, so order decides which template wins — whichever way the
// probe reaches the knowledge base. The fixtures and their generator are in
// golden_fixture_test.go.
package transform_test

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"galo/internal/fleet"
	"galo/internal/fuseki"
	"galo/internal/kb"
	"galo/internal/sparql"
	"galo/internal/transform"
)

func TestGoldenProbes(t *testing.T) {
	if *update {
		regenerateGolden(t)
	}
	g := readGolden(t)
	learned, inflated := goldenKBs(t)

	// The three ways a probe reaches a knowledge base.
	type path struct {
		name string
		sel  func(p *transform.Probe) ([]sparql.Solution, error)
	}
	paths := func(knowledge *kb.KB) []path {
		local := fuseki.LocalEndpoint{Store: knowledge.Store()}
		pinned, _ := local.PinEpoch()
		srv := httptest.NewServer(fleet.NewShardServer(knowledge))
		t.Cleanup(srv.Close)
		remote := fleet.New(fleet.Options{Shards: [][]string{{srv.URL}}}).Endpoint(0)
		return []path{
			{"local text", func(p *transform.Probe) ([]sparql.Solution, error) { return local.Select(p.Text()) }},
			{"prepared", func(p *transform.Probe) ([]sparql.Solution, error) {
				pr, err := sparql.Prepare(p.Query())
				if err != nil {
					return nil, err
				}
				return pinned.Select(pr, p.AppendParams(nil))
			}},
			{"1x1 fleet", func(p *transform.Probe) ([]sparql.Solution, error) { return remote.Select(p.Text()) }},
		}
	}
	sides := []struct {
		name  string
		paths []path
		want  func(goldenFragment) []map[string]string
	}{
		{"learned", paths(learned), func(f goldenFragment) []map[string]string { return f.Learned }},
		{"inflated", paths(inflated), func(f goldenFragment) []map[string]string { return f.Inflated }},
	}

	fragments, withSolutions := 0, 0
	for qi, frags := range goldenPlans(t, g) {
		gq := g.Queries[qi]
		if len(frags) != len(gq.Fragments) {
			t.Fatalf("%s: plan has %d fragments, golden %d", gq.Name, len(frags), len(gq.Fragments))
		}
		for fi, frag := range frags {
			want := gq.Fragments[fi]
			p, err := transform.NewProbe(frag.Root)
			if err != nil {
				t.Fatalf("%s fragment %d: %v", gq.Name, fi, err)
			}
			text := p.Text()
			if text != want.Text {
				t.Fatalf("%s fragment %d: text differs from the golden one\n--- got\n%s--- want\n%s", gq.Name, fi, text, want.Text)
			}
			parsed, err := sparql.Parse(text)
			if err != nil {
				t.Fatalf("%s fragment %d: %v", gq.Name, fi, err)
			}
			if built := p.Query(); !reflect.DeepEqual(built, parsed) {
				t.Fatalf("%s fragment %d: Query() is not what Text() parses to\nbuilt  %+v\nparsed %+v", gq.Name, fi, built, parsed)
			}
			exportedText, info, err := transform.FragmentMatchQuery(frag.Root)
			if err != nil || exportedText != text || !reflect.DeepEqual(info, p.Info()) {
				t.Fatalf("%s fragment %d: FragmentMatchQuery disagrees with the probe (err %v)", gq.Name, fi, err)
			}
			fragments++
			if len(want.Learned)+len(want.Inflated) > 0 {
				withSolutions++
			}
			for _, side := range sides {
				for _, path := range side.paths {
					sols, err := path.sel(p)
					if err != nil {
						t.Fatalf("%s fragment %d, %s KB, %s: %v", gq.Name, fi, side.name, path.name, err)
					}
					if got := renderSolutions(sols); !sameSolutions(got, side.want(want)) {
						t.Fatalf("%s fragment %d, %s KB, %s: solutions differ\ngot  %v\nwant %v", gq.Name, fi, side.name, path.name, got, side.want(want))
					}
				}
			}
		}
	}
	if fragments < 800 || withSolutions < 50 {
		t.Fatalf("suite covered %d fragments, %d with solutions: the fixture has shrunk", fragments, withSolutions)
	}
}

// sameSolutions compares two solution lists position by position; nil and
// empty are the same list.
func sameSolutions(got, want []map[string]string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return false
		}
	}
	return true
}
