package rdf

// dictionary interns RDF terms as dense uint32 IDs. All index structures in
// the store are keyed on these IDs instead of full Term structs, so that the
// hot matching path hashes and compares machine words rather than strings.
// IDs are assigned in first-seen order and are stable for the lifetime of the
// store (terms are never un-interned, even when every triple mentioning them
// is removed — the memory cost is bounded by the vocabulary, not the triple
// count).
type dictionary struct {
	terms []Term
	ids   map[Term]uint32
}

func newDictionary() *dictionary {
	return &dictionary{ids: map[Term]uint32{}}
}

// intern returns the ID of t, assigning the next dense ID on first sight.
func (d *dictionary) intern(t Term) uint32 {
	if id, ok := d.ids[t]; ok {
		return id
	}
	id := uint32(len(d.terms))
	d.terms = append(d.terms, t)
	d.ids[t] = id
	return id
}

// lookup returns the ID of t and whether it has been interned.
func (d *dictionary) lookup(t Term) (uint32, bool) {
	id, ok := d.ids[t]
	return id, ok
}

// term is the reverse lookup; id must have been returned by intern.
func (d *dictionary) term(id uint32) Term { return d.terms[id] }

// clone returns a copy whose ID map is private; the terms slice is shared by
// header (appends only ever write beyond this clone's length, which holders
// of the original never read).
func (d *dictionary) clone() *dictionary {
	ids := make(map[Term]uint32, len(d.ids)+8)
	for k, v := range d.ids {
		ids[k] = v
	}
	return &dictionary{terms: d.terms, ids: ids}
}

// size returns the number of interned terms.
func (d *dictionary) size() int { return len(d.terms) }

// searchID returns the insertion point of v in the ascending list.
func searchID(list []uint32, v uint32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
