package kb

import (
	"fmt"
	"hash/fnv"
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

// Contains reports whether v lies within the range.
func (r Range) Contains(v float64) bool { return v >= r.Lo && v <= r.Hi }

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
	return &KB{stores: stores, bySignature: map[string]*Template{}}
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

// Epochs returns the per-shard epoch vector. Every template addition, merge
// or rewrite publishes exactly one new epoch (one atomic snapshot swap) on
// the owning shard and leaves every other shard's epoch untouched.
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

// Add inserts a template. If a template with the same problem signature
// already exists, the existing template is updated instead: its bounds are
// widened to cover the new observation and its improvement/guideline are
// replaced when the new observation is better. It returns true when a new
// template was created.
func (kb *KB) Add(t *Template) (bool, error) {
	if t == nil || t.Problem == nil {
		return false, fmt.Errorf("kb: template needs a problem fragment")
	}
	if t.GuidelineXML == "" {
		return false, fmt.Errorf("kb: template needs a guideline")
	}
	kb.mu.Lock()
	defer kb.mu.Unlock()
	sig := t.Problem.Signature()
	if existing, ok := kb.bySignature[sig]; ok {
		kb.mergeInto(existing, t)
		return false, nil
	}
	if t.ID == "" {
		t.ID = kb.newID(sig)
	}
	if t.Bounds == nil {
		t.Bounds = map[int]Range{}
	}
	if t.Joins == 0 {
		t.Joins = t.Problem.CountJoins()
	}
	kb.templates = append(kb.templates, t)
	kb.bySignature[sig] = t
	kb.writeTemplate(t)
	return true, nil
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
	kb.rewriteTemplate(existing)
}

// --- RDF encoding ------------------------------------------------------------

func (kb *KB) writeTemplate(t *Template) {
	// Triples are collected and inserted in one batch, so the template
	// becomes visible to readers as one atomic epoch publication on the
	// owning shard — a concurrent probe sees either none or all of the
	// template's triples, and no other shard's epoch moves.
	kb.stores[kb.ShardOf(t)].AddAll(kb.templateTriples(t))
}

// templateTriples renders a template's full RDF encoding.
func (kb *KB) templateTriples(t *Template) []rdf.Triple {
	tmplIRI := transform.TemplateIRI(t.ID)
	var batch []rdf.Triple
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

// rewriteTemplate replaces the template's triples (bounds or guideline may
// have changed) as ONE atomic epoch publication on the owning shard:
// removal patterns and the re-rendered triples go through a single
// store.Apply, so a concurrent reader pins either the old template or the
// new one, never a half-removed in-between. The shard cannot have changed —
// merging requires an identical problem signature, and the routing key is a
// function of the problem's shape.
func (kb *KB) rewriteTemplate(t *Template) {
	tmplIRI := transform.TemplateIRI(t.ID)
	removals := []rdf.Pattern{{S: &tmplIRI}}
	t.Problem.Walk(func(n *qgm.Node) {
		subj := transform.KBPopIRI(t.ID, n.ID)
		removals = append(removals, rdf.Pattern{S: &subj})
	})
	kb.stores[kb.ShardOf(t)].Apply(removals, kb.templateTriples(t))
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
// /data load it is additive: templates whose problem signature is already
// known widen the existing template, new templates are published in ONE
// batch per owning shard (at most one epoch per shard per load), and the
// shards never pass through an emptied state a concurrently pinned probe
// could observe. Triples that are not part of any template are kept too
// (in shard 0), so a raw-triple load through the HTTP endpoint round-trips.
// Serialized dumps carry no shard layout, so a KB saved under one shard
// count loads under any other.
func (kb *KB) LoadNTriples(text string) error {
	scratch := rdf.NewStore()
	if err := scratch.LoadNTriples(text); err != nil {
		return err
	}
	templates, err := reconstructTemplates(scratch)
	if err != nil {
		return err
	}
	kb.mu.Lock()
	defer kb.mu.Unlock()
	taken := make(map[string]bool, len(kb.templates))
	for _, t := range kb.templates {
		taken[t.ID] = true
	}
	// Every triple belonging to a reconstructed template is accounted for
	// by re-rendering it (reconstruct → render is a faithful round trip);
	// whatever remains in the text is a non-template triple to preserve.
	// The rendering is also what a new template publishes, unless the
	// template has to be re-identified.
	covered := make(map[rdf.Triple]struct{}, scratch.Len())
	batches := make([][]rdf.Triple, len(kb.stores))
	for _, t := range templates {
		triples := kb.templateTriples(t)
		for _, tr := range triples {
			covered[tr] = struct{}{}
		}
		sig := t.Signature()
		if existing, ok := kb.bySignature[sig]; ok {
			kb.mergeInto(existing, t)
			continue
		}
		kb.seq++
		if t.ID == "" || taken[t.ID] {
			t.ID = kb.newID(sig)
			triples = kb.templateTriples(t)
		}
		taken[t.ID] = true
		kb.templates = append(kb.templates, t)
		kb.bySignature[sig] = t
		shard := kb.ShardOf(t)
		batches[shard] = append(batches[shard], triples...)
	}
	for _, tr := range scratch.Match(nil, nil, nil) {
		if _, ok := covered[tr]; !ok {
			batches[0] = append(batches[0], tr)
		}
	}
	for i, batch := range batches {
		if len(batch) > 0 {
			kb.stores[i].AddAll(batch)
		}
	}
	return nil
}

// Merge copies every template of other into this knowledge base (the paper's
// unified knowledge base accumulated over multiple workloads).
func (kb *KB) Merge(other *KB) error {
	for _, t := range other.Templates() {
		cp := *t
		cp.Problem = t.Problem.Clone()
		cp.Bounds = map[int]Range{}
		for k, v := range t.Bounds {
			cp.Bounds[k] = v
		}
		cp.ID = "" // re-identified to avoid collisions
		if _, err := kb.Add(&cp); err != nil {
			return err
		}
	}
	return nil
}
