package rdf

import "maps"

// dictionary interns RDF terms as dense uint32 IDs. All index structures in
// the store are keyed on these IDs instead of full Term structs, so that the
// hot matching path hashes and compares machine words rather than strings.
// IDs are assigned in first-seen order and are stable for the lifetime of the
// store (terms are never un-interned, even when every triple mentioning them
// is removed — the memory cost is bounded by the vocabulary, not the triple
// count).
//
// A dictionary is immutable. The term → ID direction is leveled: levels[0]
// holds the bulk of the vocabulary and every later level is newer and smaller
// by foldRatio or more, so a batch's new terms become one more small level
// (push) without copying what is already known, levels fold into their
// neighbour as they grow, and a lookup of anything but a recent term is one
// probe.
type dictionary struct {
	// terms is shared between epochs by slice header: a batch appends beyond
	// the length every earlier epoch holds, which none of them reads.
	terms  []Term
	levels []map[Term]uint32
}

// foldRatio is how many times larger than everything after it a level must
// be to be left alone by push: a fold copies at most foldRatio+1 entries per
// entry that caused it, and levels[0] keeps at least foldRatio/(foldRatio+1)
// of the vocabulary.
const foldRatio = 8

// lookup returns the ID of t and whether it has been interned.
func (d *dictionary) lookup(t Term) (uint32, bool) {
	for _, level := range d.levels {
		if id, ok := level[t]; ok {
			return id, true
		}
	}
	return 0, false
}

// term is the reverse lookup; id must have been returned by a lookup.
func (d *dictionary) term(id uint32) Term { return d.terms[id] }

// push returns the dictionary of the next epoch: terms is this one's extended
// by a batch's new terms and fresh maps exactly those to their IDs. fresh
// becomes the newest level, folded together with as many of the levels before
// it as have not stayed foldRatio times larger than what follows them.
func (d *dictionary) push(terms []Term, fresh map[Term]uint32) *dictionary {
	k, tail := len(d.levels), len(fresh)
	for k > 0 && tail*foldRatio >= len(d.levels[k-1]) {
		k--
		tail += len(d.levels[k])
	}
	levels := append(make([]map[Term]uint32, 0, k+1), d.levels[:k]...)
	if k < len(d.levels) {
		folded := make(map[Term]uint32, tail)
		for _, level := range d.levels[k:] {
			maps.Copy(folded, level)
		}
		maps.Copy(folded, fresh)
		fresh = folded
	}
	return &dictionary{terms: terms, levels: append(levels, fresh)}
}
