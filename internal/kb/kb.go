package kb

import (
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sort"
	"strconv"
	"sync"

	"galo/internal/qgm"
	"galo/internal/rdf"
	"galo/internal/transform"
)

// Range is a closed numeric interval [Lo, Hi].
type Range struct {
	Lo, Hi float64
}

// Widen extends the range to include v.
func (r Range) Widen(v float64) Range {
	if v < r.Lo {
		r.Lo = v
	}
	if v > r.Hi {
		r.Hi = v
	}
	return r
}

// Template is one problem-pattern template and its recommended rewrite.
type Template struct {
	// ID is the anonymized unique identifier of the template.
	ID string
	// Problem is the abstracted problem plan fragment (canonical labels).
	Problem *qgm.Node
	// Bounds maps the problem fragment's operator IDs to the cardinality
	// interval within which the template applies (hasLowerCardinality /
	// hasHigherCardinality in the RDF encoding).
	Bounds map[int]Range
	// GuidelineXML is the recommended rewrite as an OPTGUIDELINES document
	// whose TABIDs are canonical labels.
	GuidelineXML string
	// Improvement is the observed relative improvement (0.40 = 40% faster).
	Improvement float64
	// Structural reports whether the guideline's plan differs structurally
	// from the problem fragment. Non-structural templates record wins the
	// guideline language cannot express (e.g. index choice); they still
	// routinize matching fragments but recommend no plan change, so a
	// structural rewrite for the same problem always takes precedence.
	Structural bool
	// SourceQuery and SourceWorkload record provenance.
	SourceQuery    string
	SourceWorkload string
	// Joins is the number of join operators in the problem fragment.
	Joins int
}

// Signature returns the structural signature used to de-duplicate templates.
func (t *Template) Signature() string {
	if t.Problem == nil {
		return ""
	}
	return t.Problem.Signature()
}

// KB is the knowledge base. Its RDF graph is split across one or more
// shards (independent epoch-snapshot stores); every template's triples live
// in exactly one shard, chosen by RouteShape over the template problem's
// shape signature. The template index (templates, bySignature) stays global.
type KB struct {
	// stores is immutable after construction: one RDF store per shard.
	stores []*rdf.Store

	mu          sync.RWMutex
	templates   []*Template
	bySignature map[string]*Template
	ids         map[string]bool // every template's ID
	seq         int
}

// New returns an empty single-shard knowledge base.
func New() *KB { return NewSharded(1) }

// NewSharded returns an empty knowledge base split across n shards
// (values below one mean a single shard).
func NewSharded(n int) *KB {
	if n < 1 {
		n = 1
	}
	stores := make([]*rdf.Store, n)
	for i := range stores {
		stores[i] = rdf.NewStore()
	}
	return &KB{stores: stores, bySignature: map[string]*Template{}, ids: map[string]bool{}}
}

// Shards returns the number of knowledge base shards.
func (kb *KB) Shards() int { return len(kb.stores) }

// Store exposes the first shard's RDF store. It is the whole knowledge base
// only for single-shard KBs (the default); sharded callers — the matching
// engine, the Fuseki handler — use Stores/ShardStore instead.
func (kb *KB) Store() *rdf.Store { return kb.stores[0] }

// ShardStore returns shard i's RDF store.
func (kb *KB) ShardStore(i int) *rdf.Store { return kb.stores[i] }

// Stores returns every shard's RDF store, in shard order.
func (kb *KB) Stores() []*rdf.Store { return append([]*rdf.Store(nil), kb.stores...) }

// Epoch identifies the knowledge base's current published epoch across all
// shards (the sum of the per-shard epochs, so it is monotonic and changes
// exactly when some shard publishes). Single-shard callers can use it as
// the cache-invalidation key; sharded matching pins the per-shard vector
// (Epochs) instead, so a publication on one shard never invalidates entries
// served from another.
func (kb *KB) Epoch() uint64 {
	var sum uint64
	for _, st := range kb.stores {
		sum += st.Version()
	}
	return sum
}

// Epochs returns the per-shard epoch vector. Every batch of template
// additions, merges and rewrites publishes exactly one new epoch (one atomic
// snapshot swap) on each owning shard and leaves every other shard's epoch
// untouched.
func (kb *KB) Epochs() []uint64 {
	out := make([]uint64, len(kb.stores))
	for i, st := range kb.stores {
		out[i] = st.Version()
	}
	return out
}

// Triples returns the total triple count across all shards.
func (kb *KB) Triples() int {
	total := 0
	for _, st := range kb.stores {
		total += st.Len()
	}
	return total
}

// Size returns the number of templates.
func (kb *KB) Size() int {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return len(kb.templates)
}

// Templates returns the templates sorted by ID.
func (kb *KB) Templates() []*Template {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	out := append([]*Template(nil), kb.templates...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FindBySignature returns the template with the given problem signature, or
// nil.
func (kb *KB) FindBySignature(sig string) *Template {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.bySignature[sig]
}

// Add inserts a template: AddAll of one. It returns true when a new
// template was created.
func (kb *KB) Add(t *Template) (bool, error) {
	created, err := kb.AddAll([]*Template{t})
	return created == 1, err
}

// AddAll inserts templates in order. A template whose problem signature is
// already known — published or earlier in the batch — widens that template
// (mergeInto) instead; a new one without an ID, or whose ID is taken, gets
// one salted with the sequence. The batch is ONE atomic epoch publication
// per owning shard and none elsewhere. It returns how many templates were
// created; an invalid template fails the batch before anything changes.
func (kb *KB) AddAll(ts []*Template) (int, error) {
	for _, t := range ts {
		if t == nil || t.Problem == nil {
			return 0, fmt.Errorf("kb: template needs a problem fragment")
		}
		if t.GuidelineXML == "" {
			return 0, fmt.Errorf("kb: template needs a guideline")
		}
	}
	kb.mu.Lock()
	defer kb.mu.Unlock()
	return kb.publish(ts, nil, nil), nil
}

// publish is AddAll under kb.mu. cache holds renderings that stay valid until
// their template is renamed or merged into; strays join shard 0's batch.
func (kb *KB) publish(ts []*Template, cache map[*Template][]rdf.Triple, strays []rdf.Triple) int {
	n0 := len(kb.templates)
	var widened []*Template // published before the batch and merged into
	for _, t := range ts {
		sig := t.Problem.Signature()
		if existing, ok := kb.bySignature[sig]; ok {
			kb.mergeInto(existing, t)
			delete(cache, existing)
			if !slices.Contains(widened, existing) && slices.Contains(kb.templates[:n0], existing) {
				widened = append(widened, existing)
			}
			continue
		}
		if t.ID != "" {
			kb.seq++ // a named template advances the sequence, as a load always has
		}
		if t.ID == "" || kb.ids[t.ID] {
			t.ID = kb.newID(sig)
			delete(cache, t)
		}
		kb.ids[t.ID] = true
		if t.Bounds == nil {
			t.Bounds = map[int]Range{}
		}
		if t.Joins == 0 {
			t.Joins = t.Problem.CountJoins()
		}
		kb.templates = append(kb.templates, t)
		kb.bySignature[sig] = t
	}
	// A reader pins either the old templates or the new ones. A merge never
	// moves a template: routing is a function of the problem's shape.
	removals := make([][]rdf.Pattern, len(kb.stores))
	additions := make([][][]rdf.Triple, len(kb.stores)) // concatenated once
	for i, t := range append(widened, kb.templates[n0:]...) {
		shard := kb.ShardOf(t)
		if i < len(widened) {
			removals[shard] = append(removals[shard], subjectPatterns(t)...)
		}
		triples, ok := cache[t]
		if !ok {
			triples = kb.templateTriples(t)
		}
		additions[shard] = append(additions[shard], triples)
	}
	additions[0] = append(additions[0], strays)
	for i, st := range kb.stores {
		if batch := slices.Concat(additions[i]...); len(removals[i]) > 0 || len(batch) > 0 {
			st.Apply(removals[i], batch)
		}
	}
	return len(kb.templates) - n0
}

// newID produces an anonymized unique identifier, as Section 3.2 requires to
// avoid resource-name collisions between templates.
func (kb *KB) newID(sig string) string {
	kb.seq++
	h := fnv.New64a()
	_, _ = h.Write([]byte(sig))
	_, _ = h.Write([]byte(strconv.Itoa(kb.seq)))
	return fmt.Sprintf("t%016x", h.Sum64())
}

// mergeInto widens the existing template with a new observation. The
// recommended rewrite is upgraded on a better improvement, except that a
// structural rewrite is never displaced by a non-structural one — an
// inexpressible (index-level) win must not overwrite an actual plan change,
// however large its measured improvement.
func (kb *KB) mergeInto(existing, incoming *Template) {
	for id, r := range incoming.Bounds {
		if cur, ok := existing.Bounds[id]; ok {
			cur = cur.Widen(r.Lo)
			cur = cur.Widen(r.Hi)
			existing.Bounds[id] = cur
		} else {
			existing.Bounds[id] = r
		}
	}
	switch {
	case incoming.Structural && !existing.Structural:
		existing.Improvement = incoming.Improvement
		existing.GuidelineXML = incoming.GuidelineXML
		existing.Structural = true
	case incoming.Structural == existing.Structural && incoming.Improvement > existing.Improvement:
		existing.Improvement = incoming.Improvement
		existing.GuidelineXML = incoming.GuidelineXML
	}
}

// --- RDF encoding ------------------------------------------------------------

// templateTriples renders a template's full RDF encoding.
func (kb *KB) templateTriples(t *Template) []rdf.Triple {
	tmplIRI := transform.TemplateIRI(t.ID)
	batch := make([]rdf.Triple, 0, 8+16*(t.Joins+1))
	add := func(s rdf.Term, prop string, o rdf.Term) {
		batch = append(batch, rdf.Triple{S: s, P: transform.Prop(prop), O: o})
	}
	add(tmplIRI, transform.PropGuideline, rdf.NewLiteral(t.GuidelineXML))
	add(tmplIRI, transform.PropImprovement, rdf.NewNumericLiteral(t.Improvement))
	add(tmplIRI, transform.PropSignature, rdf.NewLiteral(t.Signature()))
	add(tmplIRI, transform.PropJoinCount, rdf.NewNumericLiteral(float64(t.Joins)))
	if t.Structural {
		add(tmplIRI, transform.PropStructural, rdf.NewLiteral("true"))
	}
	if t.SourceQuery != "" {
		add(tmplIRI, transform.PropSourceQuery, rdf.NewLiteral(t.SourceQuery))
	}
	if t.SourceWorkload != "" {
		add(tmplIRI, transform.PropSourceWorkload, rdf.NewLiteral(t.SourceWorkload))
	}
	t.Problem.Walk(func(n *qgm.Node) {
		subj := transform.KBPopIRI(t.ID, n.ID)
		add(subj, transform.PropPopType, rdf.NewLiteral(string(n.Op)))
		add(subj, transform.PropInTemplate, tmplIRI)
		bounds, ok := t.Bounds[n.ID]
		if !ok {
			bounds = defaultBounds(n.EstCardinality)
		}
		add(subj, transform.PropLowerCardinality, rdf.NewNumericLiteral(bounds.Lo))
		add(subj, transform.PropHigherCardinality, rdf.NewNumericLiteral(bounds.Hi))
		if n.Op.IsScan() {
			add(subj, transform.PropCanonicalTable, rdf.NewLiteral(n.TableInstance))
		}
		if n.BloomFilter {
			add(subj, transform.PropBloomFilter, rdf.NewLiteral("true"))
		}
		if n.Outer != nil {
			add(subj, transform.PropOuterInput, transform.KBPopIRI(t.ID, n.Outer.ID))
			add(transform.KBPopIRI(t.ID, n.Outer.ID), transform.PropOutputStream, subj)
		}
		if n.Inner != nil {
			add(subj, transform.PropInnerInput, transform.KBPopIRI(t.ID, n.Inner.ID))
			add(transform.KBPopIRI(t.ID, n.Inner.ID), transform.PropOutputStream, subj)
		}
	})
	return batch
}

// subjectPatterns matches every triple of a published template: those of
// its IRI and of each of its operators'.
func subjectPatterns(t *Template) []rdf.Pattern {
	tmplIRI := transform.TemplateIRI(t.ID)
	patterns := []rdf.Pattern{{S: &tmplIRI}}
	t.Problem.Walk(func(n *qgm.Node) {
		subj := transform.KBPopIRI(t.ID, n.ID)
		patterns = append(patterns, rdf.Pattern{S: &subj})
	})
	return patterns
}

func defaultBounds(card float64) Range {
	const slack = 4.0
	lo := card / slack
	if lo < 1 {
		lo = 0
	}
	return Range{Lo: lo, Hi: card * slack}
}

// NTriples serializes the knowledge base graph. The output is shard-
// agnostic — lines from all shards are merged into one lexicographically
// sorted document, so a dump taken from a 4-shard KB loads into a KB with
// any shard count (routing is recomputed at load time).
func (kb *KB) NTriples() string {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return rdf.MergeNTriples(kb.stores)
}

// LoadNTriples merges the templates serialized in text into the knowledge
// base, reconstructing them (the "KB to QEP mapper" of the paper's
// architecture) and routing each to its owning shard. Like the Fuseki-style
// /data load it is additive and goes through AddAll: templates whose problem
// signature is already known widen the existing template, a template whose ID
// is taken is renamed, and the load is at most one epoch per shard, so the
// shards never pass through an emptied state a concurrently pinned probe
// could observe. Triples that are not part of any template are kept too (in
// shard 0), so a raw-triple load through the HTTP endpoint round-trips.
// Serialized dumps carry no shard layout, so a KB saved under one shard
// count loads under any other. The text is parsed once and read by subject;
// a triple is a template's when the rendering of its subject's template holds
// it (reconstruct → render is a faithful round trip).
func (kb *KB) LoadNTriples(text string) error {
	ts, err := rdf.ParseNTriples(text)
	if err != nil {
		return err
	}
	g := newGraph(ts)
	templates, err := reconstructTemplates(g)
	if err != nil {
		return err
	}
	cache := make(map[*Template][]rdf.Triple, len(templates))
	covered := make([]bool, len(ts))
	for _, t := range templates {
		cache[t] = kb.templateTriples(t)
		for _, r := range cache[t] {
			for _, at := range g.of[r.S] {
				if ts[at] == r {
					covered[at] = true
				}
			}
		}
	}
	var strays []rdf.Triple
	for i, tr := range ts {
		if !covered[i] {
			strays = append(strays, tr)
		}
	}
	kb.mu.Lock()
	defer kb.mu.Unlock()
	kb.publish(templates, cache, strays)
	return nil
}

// Merge copies every template of other into this knowledge base (the paper's
// unified knowledge base accumulated over multiple workloads) in one AddAll.
func (kb *KB) Merge(other *KB) error {
	var copies []*Template
	for _, t := range other.Templates() {
		cp := *t
		cp.Problem = t.Problem.Clone()
		cp.Bounds = maps.Clone(t.Bounds)
		cp.ID = "" // re-identified to avoid collisions
		copies = append(copies, &cp)
	}
	_, err := kb.AddAll(copies)
	return err
}
