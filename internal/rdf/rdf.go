package rdf

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// TermKind distinguishes IRIs from literals.
type TermKind uint8

// Term kinds.
const (
	IRI TermKind = iota
	Literal
)

// Term is one RDF term: an IRI resource or a literal value.
type Term struct {
	Kind  TermKind
	Value string
}

// NewIRI returns an IRI term.
func NewIRI(v string) Term { return Term{Kind: IRI, Value: v} }

// NewLiteral returns a string literal term.
func NewLiteral(v string) Term { return Term{Kind: Literal, Value: v} }

// NewNumericLiteral returns a literal holding the decimal rendering of v.
func NewNumericLiteral(v float64) Term {
	return Term{Kind: Literal, Value: strconv.FormatFloat(v, 'f', -1, 64)}
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// Float parses the literal as a float64; ok is false for IRIs and
// non-numeric literals.
func (t Term) Float() (float64, bool) { return numericLiteral(t) }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	if t.Kind == IRI {
		return "<" + t.Value + ">"
	}
	return strconv.Quote(t.Value)
}

// CompareTerms orders terms by (Kind, Value) without rendering them to
// N-Triples syntax (IRIs sort before literals).
func CompareTerms(a, b Term) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	return strings.Compare(a.Value, b.Value)
}

// Triple is one RDF statement.
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples syntax.
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
}

// Pattern is a triple pattern for batch removal; nil components are
// wildcards.
type Pattern struct {
	S, P, O *Term
}

// Store is an in-memory triple store with subject/predicate/object indexes
// keyed on dictionary-encoded term IDs, plus a numeric secondary index per
// predicate. It is safe for concurrent use: writers serialize on a mutex and
// publish immutable epoch snapshots; readers load the current snapshot
// without locking.
type Store struct {
	mu   sync.Mutex // serializes writers; readers never take it
	snap atomic.Pointer[Snapshot]
	hook CommitHook
	// edits numbers the store's mutation batches (see table.go); under mu.
	edits uint64
}

// CommitHook observes every publishable mutation batch. It is invoked with
// the batch's effective changes — the triples actually removed and actually
// inserted, duplicates and absent removals already filtered out — and the
// version the new epoch will carry. The hook runs under the writer mutex
// BEFORE the snapshot pointer swap, which makes it a write-ahead seam: a
// hook that persists the batch has always logged a publication before any
// reader can observe it. Hooks must not call back into the store's mutation
// methods (the writer mutex is held) and must not block indefinitely; they
// cannot veto the publication — durability failures are the hook's own to
// absorb (see internal/wal's degraded mode).
type CommitHook func(removed, added []Triple, version uint64)

// SetCommitHook installs (or, with nil, removes) the store's commit hook.
// The swap synchronizes with writers: once SetCommitHook(nil) returns, no
// further invocations of the previous hook are in flight.
func (s *Store) SetCommitHook(h CommitHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	s.snap.Store(emptySnapshot())
	return s
}

// Snapshot pins the current epoch. The returned view is immutable and safe
// to read without coordination for as long as the caller holds it; later
// mutations publish new epochs without disturbing it.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Add inserts a triple (duplicates are ignored).
func (s *Store) Add(t Triple) { s.AddAll([]Triple{t}) }

// AddAll inserts several triples as one atomic batch: readers observe either
// none or all of them.
func (s *Store) AddAll(ts []Triple) { s.Apply(nil, ts) }

// Remove deletes matching triples and returns how many were removed; nil
// components are wildcards.
func (s *Store) Remove(subj, pred, obj *Term) int {
	return s.Apply([]Pattern{{S: subj, P: pred, O: obj}}, nil)
}

// Apply removes every triple matching one of the removal patterns and then
// inserts the additions, all as ONE atomic epoch publication — the primitive
// the knowledge base uses to replace a template's triples without readers
// ever seeing the template half-written. It returns the number of triples
// removed.
func (s *Store) Apply(removals []Pattern, additions []Triple) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	base := s.snap.Load()
	s.edits++
	m := newMutation(base, s.edits)
	var removed []Triple
	for _, p := range removals {
		for _, victim := range base.Match(p.S, p.P, p.O) {
			if m.remove(victim) {
				removed = append(removed, victim)
			}
		}
	}
	var added []Triple // the hook's to read; nobody else asks
	for _, t := range additions {
		if m.add(t) && s.hook != nil {
			added = append(added, t)
		}
	}
	if next := m.publishable(base); next != nil {
		if s.hook != nil {
			s.hook(removed, added, next.version)
		}
		s.snap.Store(next)
	}
	return len(removed)
}

// RestoreStore builds a store whose initial snapshot holds exactly ts at the
// given version — the boot-time inverse of serializing a pinned snapshot
// together with its epoch. Restored stores continue the original version
// lineage, so version-keyed caches built before a restart stay honest after
// it (an epoch number never refers to two different triple sets).
func RestoreStore(ts []Triple, version uint64) *Store {
	s := NewStore()
	base := s.snap.Load()
	s.edits++
	m := newMutation(base, s.edits)
	for _, t := range ts {
		m.add(t)
	}
	next := m.publishable(base)
	if next == nil {
		next = emptySnapshot()
	}
	next.version = version
	s.snap.Store(next)
	return s
}

// --- Store read methods (delegate to the current snapshot) -------------------

// Len returns the number of distinct triples stored.
func (s *Store) Len() int { return s.Snapshot().Len() }

// Version returns a counter that increases with every successful mutation
// batch. Two calls returning the same value bracket a window in which the
// store's contents did not change, which makes it a safe cache-invalidation
// key; the knowledge base surfaces it as the KB epoch.
func (s *Store) Version() uint64 { return s.Snapshot().Version() }

// Match returns the triples matching the pattern in the current epoch; nil
// components are wildcards.
func (s *Store) Match(subj, pred, obj *Term) []Triple { return s.Snapshot().Match(subj, pred, obj) }

// NTriples serializes the whole store in N-Triples format with a
// deterministic, lexicographically sorted line order (stable across
// serialize/parse roundtrips regardless of internal dictionary IDs).
func (s *Store) NTriples() string { return s.Snapshot().NTriples() }

// MergeNTriples renders several stores (e.g. knowledge base shards) as one
// lexicographically sorted N-Triples document, preserving the stable-dump
// contract of a single store: the output depends only on the union of the
// triples, not on how they are partitioned.
func MergeNTriples(stores []*Store) string {
	var w NTriplesWriter
	for _, st := range stores {
		w.AddSnapshot(st.Snapshot())
	}
	return w.String()
}

// NTriplesWriter renders triples as one N-Triples document, its lines in
// lexicographic order. Lines are appended to 64 KB chunks, a new one begun
// where a line may not fit, and only the lines' slices are sorted. The zero
// value is ready to use.
type NTriplesWriter struct {
	buf   []byte   // the chunk being filled
	lines [][]byte // every line, without its newline
	size  int
}

// Add appends the line of one triple.
func (w *NTriplesWriter) Add(t Triple) {
	if need := len(t.S.Value) + len(t.P.Value) + len(t.O.Value) + 8; cap(w.buf)-len(w.buf) < need {
		w.buf = make([]byte, 0, max(64<<10, 2*need))
	}
	start := len(w.buf)
	w.buf = append(appendTerm(w.buf, t.S), ' ')
	w.buf = append(appendTerm(w.buf, t.P), ' ')
	w.buf = append(appendTerm(w.buf, t.O), " ."...)
	w.lines = append(w.lines, w.buf[start:len(w.buf):len(w.buf)])
	w.size += len(w.buf) - start + 1
}

// AddSnapshot appends the line of every triple in g.
func (w *NTriplesWriter) AddSnapshot(g *Snapshot) {
	w.lines = slices.Grow(w.lines, g.n)
	for _, t := range g.Match(nil, nil, nil) {
		w.Add(t)
	}
}

// String returns the document: the lines sorted, each ended by a newline.
func (w *NTriplesWriter) String() string {
	slices.SortFunc(w.lines, bytes.Compare)
	var b strings.Builder
	b.Grow(w.size)
	for _, line := range w.lines {
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// appendTerm appends t in N-Triples syntax, as Term.String renders it.
func appendTerm(b []byte, t Term) []byte {
	if t.Kind == IRI {
		return append(append(append(b, '<'), t.Value...), '>')
	}
	return strconv.AppendQuote(b, t.Value)
}

// --- N-Triples parsing -------------------------------------------------------

// ParseNTriples parses N-Triples text (as produced by NTriples) into triples.
// The lines are walked in place, and the terms of the triples are substrings
// of text (the store copies the ones it interns).
func ParseNTriples(text string) ([]Triple, error) {
	out := make([]Triple, 0, strings.Count(text, "\n")+1)
	for lineNo := 1; text != ""; lineNo++ {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		t, err := parseNTripleLine(line)
		if err != nil {
			return nil, fmt.Errorf("rdf: line %d: %w", lineNo, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// parseNTripleLine parses one trimmed, non-comment line: three terms and the
// final dot.
func parseNTripleLine(line string) (Triple, error) {
	line = strings.TrimSpace(strings.TrimSuffix(line, "."))
	var terms [3]Term
	n := 0
	for i := 0; i < len(line); {
		var t Term
		switch c := line[i]; c {
		case ' ', '\t':
			i++
			continue
		case '<':
			end := strings.IndexByte(line[i:], '>')
			if end < 0 {
				return Triple{}, fmt.Errorf("unterminated IRI in %q", line)
			}
			t = NewIRI(line[i+1 : i+end])
			i += end + 1
		case '"':
			val, err := strconv.QuotedPrefix(line[i:])
			if err != nil {
				return Triple{}, fmt.Errorf("bad literal in %q: %w", line, err)
			}
			unq, err := strconv.Unquote(val)
			if err != nil {
				return Triple{}, err
			}
			t = NewLiteral(unq)
			i += len(val)
		default:
			return Triple{}, fmt.Errorf("unexpected character %q in %q", c, line)
		}
		if n < len(terms) {
			terms[n] = t
		}
		n++
	}
	if n != len(terms) {
		return Triple{}, fmt.Errorf("expected 3 terms, got %d in %q", n, line)
	}
	return Triple{terms[0], terms[1], terms[2]}, nil
}

// LoadNTriples parses and adds the triples to the store as one atomic batch.
func (s *Store) LoadNTriples(text string) error {
	ts, err := ParseNTriples(text)
	if err != nil {
		return err
	}
	s.AddAll(ts)
	return nil
}
