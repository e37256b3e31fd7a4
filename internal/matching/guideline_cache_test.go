package matching

import (
	"fmt"
	"sync"
	"testing"

	"galo/internal/fuseki"
	"galo/internal/kb"
	"galo/internal/qgm"
)

// instanceFragment is oneJoinFragment over the given table instances.
func instanceFragment(outer, inner string) *qgm.Plan {
	frag := oneJoinFragment()
	frag.Outer.TableInstance, frag.Inner.TableInstance = outer, inner
	return qgm.NewPlan(frag)
}

// TestCachedGuidelineNeverLeaks pins the guideline cache's clone-before-rebind
// rule: every plan that matches a template rebinds the template's guideline to
// its own table instances, and the parsed tree behind it is shared through
// the engine's cache. Eight goroutines match plans over instances of their
// own — alternating two pairs, so a tree rebound by an earlier request of the
// same goroutine would show too — and each match must name exactly its plan's
// instances while the cached tree keeps the template's canonical labels. Run
// it with -race -count=10: a rebind that wrote into the shared tree is a data
// race as well as a wrong answer.
func TestCachedGuidelineNeverLeaks(t *testing.T) {
	knowledge := kb.New()
	tmpl := matchingTemplate(0)
	// Canonical labels the template's guideline names, so a match rebinds.
	tmpl.Problem.Outer.TableInstance, tmpl.Problem.Inner.TableInstance = "TABLE_1", "TABLE_2"
	mustAdd(t, knowledge, tmpl)
	eng := New(nil, fuseki.LocalEndpoint{Store: knowledge.Store()}, DefaultOptions())

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 16; r++ {
				outer, inner := fmt.Sprintf("G%dR%dX", g, r%2), fmt.Sprintf("G%dR%dY", g, r%2)
				matches, err := eng.MatchPlan(instanceFragment(outer, inner))
				if err != nil || len(matches) != 1 {
					t.Errorf("goroutine %d round %d: %d matches, %v", g, r, len(matches), err)
					return
				}
				kids := matches[0].Guideline.Children
				if len(kids) != 2 || kids[0].TabID != outer || kids[1].TabID != inner {
					t.Errorf("goroutine %d round %d: plan over %s, %s got guideline %+v, %+v", g, r, outer, inner, kids[0], kids[1])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	cached, ok := eng.guidelines.get(tmpl.GuidelineXML)
	if !ok {
		t.Fatal("the template's guideline is not cached")
	}
	if kids := cached.Children; kids[0].TabID != "TABLE_1" || kids[1].TabID != "TABLE_2" {
		t.Errorf("the cached guideline was rebound: %+v, %+v", kids[0], kids[1])
	}
}

// TestGuidelineCacheIsBounded fills the cache past its capacity with distinct
// guideline texts: it never holds more than guidelineCacheSize trees, and a
// text it dropped parses again.
func TestGuidelineCacheIsBounded(t *testing.T) {
	var c guidelineCache
	text := func(i int) string {
		return fmt.Sprintf("<OPTGUIDELINES><TBSCAN TABID='Q%d'/></OPTGUIDELINES>", i)
	}
	for i := 0; i < guidelineCacheSize+100; i++ {
		g, err := c.parse(text(i))
		if err != nil || g.TabID != fmt.Sprintf("Q%d", i) {
			t.Fatalf("parse %d: %+v, %v", i, g, err)
		}
		if n := len(c.m); n > guidelineCacheSize {
			t.Fatalf("%d trees cached, capacity is %d", n, guidelineCacheSize)
		}
	}
	if g, err := c.parse(text(0)); err != nil || g.TabID != "Q0" {
		t.Errorf("re-parse of an evicted text: %+v, %v", g, err)
	}
	if _, err := c.parse("<OPTGUIDELINES><HSJOIN/></OPTGUIDELINES>"); err == nil {
		t.Error("an invalid guideline parsed")
	}
}
