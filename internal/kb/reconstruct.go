package kb

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"galo/internal/qgm"
	"galo/internal/rdf"
	"galo/internal/transform"
)

// graph is a triple list read by subject: what reconstruction reads in place
// of an indexed store.
type graph struct {
	ts   []rdf.Triple
	of   map[rdf.Term][]int32    // subject -> positions of its triples
	pops map[rdf.Term][]rdf.Term // template IRI -> its operators
}

func newGraph(ts []rdf.Triple) *graph {
	g := &graph{ts: ts, of: make(map[rdf.Term][]int32, len(ts)/4), pops: map[rdf.Term][]rdf.Term{}}
	inTemplate := transform.Prop(transform.PropInTemplate)
	for i, t := range ts {
		g.of[t.S] = append(g.of[t.S], int32(i))
		if t.P == inTemplate {
			g.pops[t.O] = append(g.pops[t.O], t.S)
		}
	}
	return g
}

// object returns the first object of (subject, prop) in list order and its
// triple's position; an absent property reads as the zero Term at -1.
func (g *graph) object(subject rdf.Term, prop string) (rdf.Term, int32) {
	p := transform.Prop(prop)
	for _, i := range g.of[subject] {
		if g.ts[i].P == p {
			return g.ts[i].O, i
		}
	}
	return rdf.Term{}, -1
}

// reconstructTemplates rebuilds the template index from an RDF graph. It is
// the inverse of templateTriples and implements the "KB to QEP mapper" role
// of the paper's matching engine for knowledge bases loaded from disk or
// fetched from a remote endpoint. The graph carries no shard layout; the
// caller routes the templates afterwards. A property takes its first value,
// and every string a template keeps is a copy: it holds no part of a parsed
// document. Templates are returned in stable (ID) order so re-rendering them
// produces the same shard epochs for the same input.
func reconstructTemplates(g *graph) ([]*Template, error) {
	var templates []*Template
	guideline := transform.Prop(transform.PropGuideline)
	for at, tr := range g.ts {
		if tr.P != guideline {
			continue
		}
		if _, first := g.object(tr.S, transform.PropGuideline); first != int32(at) {
			continue // a template's second guideline
		}
		id := strings.Clone(strings.TrimPrefix(tr.S.Value, transform.KBTmplBase))
		problem, bounds, err := reconstructProblem(g, id, tr.S)
		if err != nil {
			return nil, fmt.Errorf("kb: template %s: %w", id, err)
		}
		improvement, _ := g.object(tr.S, transform.PropImprovement)
		query, _ := g.object(tr.S, transform.PropSourceQuery)
		workload, _ := g.object(tr.S, transform.PropSourceWorkload)
		structural, _ := g.object(tr.S, transform.PropStructural)
		t := &Template{ID: id, Problem: problem, Bounds: bounds, GuidelineXML: strings.Clone(tr.O.Value),
			Structural: structural.Value == "true", SourceQuery: strings.Clone(query.Value),
			SourceWorkload: strings.Clone(workload.Value), Joins: problem.CountJoins()}
		t.Improvement, _ = improvement.Float()
		templates = append(templates, t)
	}
	slices.SortStableFunc(templates, func(a, b *Template) int { return strings.Compare(a.ID, b.ID) })
	return templates, nil
}

// reconstructProblem rebuilds the problem fragment tree of one template from
// its pop resources.
func reconstructProblem(g *graph, templateID string, tmplIRI rdf.Term) (*qgm.Node, map[int]Range, error) {
	pops := g.pops[tmplIRI]
	if len(pops) == 0 {
		return nil, nil, fmt.Errorf("no operators recorded")
	}
	nodes := map[int]*qgm.Node{}
	bounds := map[int]Range{}
	prefix := transform.KBPopBase + templateID + "/"
	idOf := func(t rdf.Term) (int, bool) {
		if !strings.HasPrefix(t.Value, prefix) {
			return 0, false
		}
		id, err := strconv.Atoi(strings.TrimPrefix(t.Value, prefix))
		return id, err == nil
	}
	for _, pop := range pops {
		id, ok := idOf(pop)
		if !ok {
			continue
		}
		op, _ := g.object(pop, transform.PropPopType)
		table, _ := g.object(pop, transform.PropCanonicalTable)
		bloom, _ := g.object(pop, transform.PropBloomFilter)
		lo, _ := g.object(pop, transform.PropLowerCardinality)
		hi, _ := g.object(pop, transform.PropHigherCardinality)
		var r Range
		r.Lo, _ = lo.Float()
		r.Hi, _ = hi.Float()
		bounds[id] = r
		n := &qgm.Node{ID: id, Op: qgm.OpType(strings.Clone(op.Value)), Table: strings.Clone(table.Value),
			BloomFilter: bloom.Value == "true", EstCardinality: (r.Lo + r.Hi) / 2}
		n.TableInstance = n.Table
		nodes[id] = n
	}
	// Link children and find the root.
	hasParent := map[int]bool{}
	for id, n := range nodes {
		subj := transform.KBPopIRI(templateID, id)
		outer, _ := g.object(subj, transform.PropOuterInput)
		if cid, ok := idOf(outer); ok {
			n.Outer = nodes[cid]
			hasParent[cid] = true
		}
		inner, _ := g.object(subj, transform.PropInnerInput)
		if cid, ok := idOf(inner); ok {
			n.Inner = nodes[cid]
			hasParent[cid] = true
		}
	}
	var root *qgm.Node
	for id, n := range nodes {
		if !hasParent[id] {
			if root != nil {
				return nil, nil, fmt.Errorf("multiple roots in template graph")
			}
			root = n
		}
	}
	if root == nil {
		return nil, nil, fmt.Errorf("no root operator found")
	}
	return root, bounds, nil
}
