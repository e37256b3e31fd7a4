package catalog

// Bucket is one bucket of an equi-depth histogram. Buckets cover contiguous,
// non-overlapping value ranges; a bucket spans (previous bucket's Hi, Hi],
// except the first, which spans [Histogram.Min, Hi]. Count is the number of
// rows in the bucket and NDV the number of distinct values among them.
type Bucket struct {
	Hi    Value
	Count int64
	NDV   int64
}

// Histogram is an equi-depth (equal-height) histogram over one column's
// non-null values, as collected by the storage layer's ANALYZE pass. It is
// immutable after construction and may therefore be shared between catalog
// clones.
//
// This is the statistics structure DB2's RUNSTATS quantile statistics play in
// the paper: it replaces the System-R constant reduction factors for range
// and equality predicates. Like any statistic it describes the data *as of
// collection time* — a histogram collected before the latest load is exactly
// the Figure 8 hazard.
type Histogram struct {
	// Min is the smallest value covered (the lower bound of the first bucket).
	Min Value
	// Buckets are ordered by Hi ascending.
	Buckets []Bucket
	// Rows is the total non-null row count the histogram describes.
	Rows int64
}

// numeric reports whether the histogram's domain supports interpolation.
func (h *Histogram) numeric() bool {
	switch h.Min.K {
	case KindInt, KindFloat, KindDate:
		return true
	}
	return false
}

// Max returns the largest value covered.
func (h *Histogram) Max() Value {
	if h == nil || len(h.Buckets) == 0 {
		return Null()
	}
	return h.Buckets[len(h.Buckets)-1].Hi
}

// RangeFraction estimates the fraction of rows with lo <= v <= hi; a nil
// bound is unbounded on that side. Whole buckets inside the range contribute
// their full count; the partially covered boundary buckets are interpolated
// linearly. It returns -1 when the histogram cannot answer (empty, or a
// non-numeric domain where interpolation is meaningless).
func (h *Histogram) RangeFraction(lo, hi *Value) float64 {
	if h == nil || len(h.Buckets) == 0 || h.Rows <= 0 || !h.numeric() {
		return -1
	}
	loV := h.Min.AsFloat()
	hiV := h.Max().AsFloat()
	if lo != nil && !lo.IsNull() {
		loV = lo.AsFloat()
	}
	if hi != nil && !hi.IsNull() {
		hiV = hi.AsFloat()
	}
	if hiV < loV {
		return 0
	}
	covered := 0.0
	bLo := h.Min.AsFloat()
	for _, b := range h.Buckets {
		bHi := b.Hi.AsFloat()
		covered += float64(b.Count) * overlapFraction(bLo, bHi, loV, hiV)
		bLo = bHi
	}
	frac := covered / float64(h.Rows)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// overlapFraction returns which fraction of the bucket [bLo, bHi] the query
// range [qLo, qHi] covers, treating values as uniformly spread inside the
// bucket. Zero-width buckets (a single distinct value) count fully when the
// range contains that value.
func overlapFraction(bLo, bHi, qLo, qHi float64) float64 {
	if bHi <= bLo {
		if qLo <= bHi && bHi <= qHi {
			return 1
		}
		return 0
	}
	lo := bLo
	if qLo > lo {
		lo = qLo
	}
	hi := bHi
	if qHi < hi {
		hi = qHi
	}
	if hi <= lo {
		return 0
	}
	return (hi - lo) / (bHi - bLo)
}

// EqFraction estimates the fraction of rows equal to v: the containing
// bucket's count spread uniformly over its distinct values. Returns -1 when
// the histogram cannot answer.
func (h *Histogram) EqFraction(v Value) float64 {
	if h == nil || len(h.Buckets) == 0 || h.Rows <= 0 || v.IsNull() {
		return -1
	}
	if Compare(v, h.Min) < 0 || Compare(v, h.Max()) > 0 {
		return 0
	}
	for _, b := range h.Buckets {
		if Compare(v, b.Hi) <= 0 {
			ndv := b.NDV
			if ndv < 1 {
				ndv = 1
			}
			return float64(b.Count) / float64(ndv) / float64(h.Rows)
		}
	}
	return 0
}
