package catalog

import (
	"slices"
	"strings"
)

// SortScratch is the sort kernel's reusable working memory: the (key,
// position) pairs of the last sort, kept by capacity. A zero SortScratch is
// ready; one must not be used by two sorts at once.
type SortScratch struct {
	words, spare []orderPair[uint64]
	strs         []orderPair[string]
}

// orderPair is one element of a sort: its leading key, reduced to a word or a
// string, and its position in the input.
type orderPair[K uint64 | string] struct {
	key K
	pos int
}

// stableInsertion is the length up to which slices.SortStableFunc is a single
// insertion sort, which no pair sort beats.
const stableInsertion = 20

// SortStable permutes xs into exactly the order slices.SortStableFunc(xs, cmp)
// leaves them in. cmp must order elements by their ncols key columns in turn,
// each under Compare, as storage's index keys and the executor's SORT rows are
// ordered; col(x, c) returns column c of x's key.
//
// The kernel sorts (leading key, position) pairs and then permutes xs. A
// numeric leading column keys by its order word (orderWord) and its pairs are
// radix-sorted; a string one keys by the string, its NULLs set first, and its
// pairs go to slices.SortFunc. Equal keys fall to the later columns under cmp
// and then to the position, so the order is total and the unstable sort
// returns the stable sort's permutation. A column Compare does not order
// totally — one holding a NaN, which ties with everything, or strings beside
// numbers, which compare by their text — falls back to slices.SortStableFunc.
// s is reused scratch; nil allocates.
func SortStable[T any](xs []T, ncols int, col func(x *T, c int) *Value, cmp func(a, b T) int, s *SortScratch) {
	if len(xs) <= stableInsertion || ncols == 0 {
		slices.SortStableFunc(xs, cmp)
		return
	}
	strs, nulls, ok := false, 0, true
	for c := 0; c < ncols && ok; c++ {
		isStr, n, total := columnOrder(xs, c, col)
		if c == 0 {
			strs, nulls = isStr, n
		}
		ok = total
	}
	if !ok {
		slices.SortStableFunc(xs, cmp)
		return
	}
	if s == nil {
		s = new(SortScratch)
	}
	var tie func(i, j int) int
	if ncols > 1 {
		tie = func(i, j int) int { return cmp(xs[i], xs[j]) }
	}
	if !strs {
		p := grow(&s.words, len(xs))
		for i := range xs {
			w, _ := col(&xs[i], 0).KeyWord()
			p[i] = orderPair[uint64]{orderWord(w), i}
		}
		radixSort(p, grow(&s.spare, len(p)))
		if tie != nil {
			for i := 0; i < len(p); {
				j := i + 1
				for j < len(p) && p[j].key == p[i].key {
					j++
				}
				if j-i > 1 {
					slices.SortFunc(p[i:j], func(a, b orderPair[uint64]) int { return breakTie(a.pos, b.pos, tie) })
				}
				i = j
			}
		}
		permute(xs, p)
		return
	}
	p := grow(&s.strs, len(xs))
	nulled, named := 0, nulls
	for i := range xs {
		if v := col(&xs[i], 0); v.K == KindNull {
			p[nulled] = orderPair[string]{pos: i}
			nulled++
		} else {
			p[named] = orderPair[string]{v.S, i}
			named++
		}
	}
	byString := func(a, b orderPair[string]) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		return breakTie(a.pos, b.pos, tie)
	}
	if tie != nil {
		slices.SortFunc(p[:nulls], byString) // NULLs are already in position order
	}
	slices.SortFunc(p[nulls:], byString)
	permute(xs, p)
	clear(p) // the scratch outlives the sort; the strings need not
}

// columnOrder reads key column c of every element: whether it holds a string,
// how many NULLs it holds, and whether Compare orders it totally — no NaN, and
// not strings beside numbers.
func columnOrder[T any](xs []T, c int, col func(x *T, c int) *Value) (strs bool, nulls int, total bool) {
	nums := false
	for i := range xs {
		switch v := col(&xs[i], c); v.K {
		case KindNull:
			nulls++
		case KindString:
			strs = true
		default:
			if keyBits(*v) == keyBitsNaN {
				return false, 0, false
			}
			nums = true
		}
	}
	return strs, nulls, !(strs && nums)
}

// orderWord maps a key word (Value.KeyWord) of a value that is not NaN to a
// word whose unsigned order is Compare's: KeyWordNull to 0, below everything,
// and a number's float bits to a word that orders as the float does. Key words
// fold −0 into +0 and read every numeric kind as its float, as Compare does,
// so two values get one word exactly when Compare ties them.
func orderWord(w uint64) uint64 {
	switch {
	case w == KeyWordNull:
		return 0
	case w>>63 != 0:
		return ^w // negative: the larger the magnitude, the smaller the word
	default:
		return w | 1<<63
	}
}

// radixSort orders word pairs by word, least significant byte first, skipping
// the bytes every word shares. Each pass is stable, so pairs of one word stay
// in input order: the result is the (word, position) order slices.SortFunc
// reaches by comparing pairs, at about a tenth of its cost on a column of
// integer keys. tmp is as long as p.
func radixSort(p, tmp []orderPair[uint64]) {
	var differ uint64
	for i := range p {
		differ |= p[i].key ^ p[0].key
	}
	src, dst := p, tmp
	passes := 0
	for shift := uint(0); shift < 64; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var start [256]int
		for i := range src {
			start[src[i].key>>shift&0xff]++
		}
		sum := 0
		for d, n := range start {
			start[d] = sum
			sum += n
		}
		for i := range src {
			d := src[i].key >> shift & 0xff
			dst[start[d]] = src[i]
			start[d]++
		}
		src, dst = dst, src
		passes++
	}
	if passes%2 == 1 {
		copy(p, src)
	}
}

// breakTie orders two elements whose leading keys are equal: by the later key
// columns when there are any, then by input position.
func breakTie(i, j int, tie func(i, j int) int) int {
	if tie != nil {
		if c := tie(i, j); c != 0 {
			return c
		}
	}
	return i - j
}

// permute rearranges xs so that xs[i] becomes the element that stood at
// p[i].pos, in place, cycle by cycle; it overwrites the positions as it goes.
func permute[T any, K uint64 | string](xs []T, p []orderPair[K]) {
	for i := range p {
		if p[i].pos == i {
			continue
		}
		first := xs[i]
		j := i
		for {
			k := p[j].pos
			p[j].pos = j
			if k == i {
				xs[j] = first
				break
			}
			xs[j] = xs[k]
			j = k
		}
	}
}

// grow returns (*buf)[:n], reallocating when its capacity is short.
func grow[E any](buf *[]E, n int) []E {
	if cap(*buf) < n {
		*buf = make([]E, n)
	}
	return (*buf)[:n]
}
