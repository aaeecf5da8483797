package store

import (
	"sort"

	"rdfcube/internal/dict"
)

// Wild is the wildcard ID in a pattern: it matches any term. It equals
// dict.NoID, so an unbound pattern position is simply the zero value.
const Wild = dict.NoID

// Pattern is a triple pattern over IDs; Wild positions are unconstrained.
type Pattern struct {
	S, P, O dict.ID
}

// ForEach calls fn for every triple matching pat, stopping early if fn
// returns false. Triples arrive in the sorted order of the permutation
// the pattern resolves to: every shape is one contiguous range of a
// sorted permutation of the base (see index.go) plus, when writes have
// accumulated, the matching range of the sorted delta overlay
// (delta.go), merge-iterated in the same order.
func (st *Store) ForEach(pat Pattern, fn func(t IDTriple) bool) {
	if st.dlt.len() == 0 {
		st.frz.forEach(pat, fn)
	} else {
		st.forEachMerged(pat, fn)
	}
}

// PatternColumns exposes the triples matching pat as three parallel
// column slices in (S, P, O) orientation — direct, zero-copy views into
// the frozen permutation the pattern resolves to, in that permutation's
// sorted order (the same order ForEach visits). It reports ok = false
// when a delta overlay is pending (the merged view is not contiguous), or the base is mmap-backed (there are no
// materialized arrays to alias — use PatternColumnRange, which fills
// caller buffers block-wise, instead); callers then fall back to
// ForEach. The batch engine's seed scans bulk-copy from these slices.
func (st *Store) PatternColumns(pat Pattern) (s, p, o []dict.ID, ok bool) {
	if st.dlt.len() > 0 {
		return nil, nil, nil, false
	}
	px, lo, hi := st.frz.patternRange(pat)
	a1, a2, a3 := px.c1.arr, px.c2.arr, px.c3.arr
	if a1 == nil && px.len() > 0 {
		return nil, nil, nil, false
	}
	c1, c2, c3 := a1[lo:hi], a2[lo:hi], a3[lo:hi]
	switch px.kind {
	case permPOS:
		return c3, c1, c2, true
	case permOSP:
		return c2, c3, c1, true
	case permPSO:
		return c2, c1, c3, true
	default:
		return c1, c2, c3, true
	}
}

// ColumnRange is a window onto the triples matching one pattern on a
// store with no pending delta — the copying counterpart of
// PatternColumns for bases whose columns are not materialized in heap
// (the mmap-backed read path). Fill decodes into caller buffers
// block-at-a-time, so the batch engine's seed scans stay bulk
// operations on either backing.
type ColumnRange struct {
	px     *permIndex
	lo, hi int
}

// Len reports the number of matching triples.
func (cr *ColumnRange) Len() int { return cr.hi - cr.lo }

// Fill copies up to len(s) triples starting at row off of the range
// into s, p, o (parallel, equal-length buffers) in (S, P, O)
// orientation and returns the count copied. The c1 component is
// reconstructed from the run directory; c2/c3 are bulk block copies.
func (cr *ColumnRange) Fill(off int, s, p, o []dict.ID) int {
	lo := cr.lo + off
	hi := min(cr.hi, lo+len(s))
	if lo >= hi {
		return 0
	}
	px := cr.px
	var d1, d2, d3 []dict.ID
	switch px.kind {
	case permPOS:
		d1, d2, d3 = p, o, s
	case permOSP:
		d1, d2, d3 = o, s, p
	case permPSO:
		d1, d2, d3 = p, s, o
	default:
		d1, d2, d3 = s, p, o
	}
	n := hi - lo
	px.c2.copyRange(d2[:n], lo, hi)
	px.c3.copyRange(d3[:n], lo, hi)
	// c1 via the run directory: each directory run is one constant value.
	ki := sort.Search(len(px.keys), func(j int) bool { return px.off[j+1] > lo })
	for i := lo; i < hi; {
		end := min(hi, px.off[ki+1])
		v := px.keys[ki]
		for ; i < end; i++ {
			d1[i-lo] = v
		}
		ki++
	}
	return n
}

// PatternColumnRange resolves pat to a fillable column range. Like
// PatternColumns it reports ok = false when a delta overlay is pending;
// unlike it, it works over mapped bases.
func (st *Store) PatternColumnRange(pat Pattern) (ColumnRange, bool) {
	if st.dlt.len() > 0 {
		return ColumnRange{}, false
	}
	px, lo, hi := st.frz.patternRange(pat)
	return ColumnRange{px: px, lo: lo, hi: hi}, true
}

// Match returns all triples matching pat, in ForEach order. Prefer
// ForEach when the caller can consume triples incrementally. The result
// is preallocated to its exact size.
func (st *Store) Match(pat Pattern) []IDTriple {
	if st.dlt.len() == 0 {
		return st.frz.match(pat)
	}
	px, blo, bhi, ds := st.mergedRange(pat)
	n := (bhi - blo) + ds.count()
	if n == 0 {
		return nil
	}
	out := make([]IDTriple, 0, n)
	mergeRanges(px, blo, bhi, ds, func(t IDTriple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Count returns the number of triples matching pat without materializing
// them. Every shape is O(log n) via the offset directories — plus an
// O(log d) delta-range count when writes are pending (base and overlay
// are disjoint, so the counts add).
func (st *Store) Count(pat Pattern) int {
	n := st.frz.count(pat)
	if st.dlt.len() > 0 {
		n += st.dlt.count(pat)
	}
	return n
}

// Subjects returns the distinct subject IDs of triples with predicate p
// and object o (either may be Wild), ascending: a sorted-run walk with
// no intermediate map.
func (st *Store) Subjects(p, o dict.ID) []dict.ID {
	base := st.frz.subjects(p, o)
	if st.dlt.len() == 0 {
		return base
	}
	ds := st.dlt.spans(Pattern{P: p, O: o})
	for i := ds.rlo; i < ds.rhi; i++ {
		base = append(base, ds.run[i].S)
	}
	for i := ds.mlo; i < ds.mhi; i++ {
		base = append(base, ds.mem[i].S)
	}
	return sortDedup(base)
}

// Objects returns the distinct object IDs of triples with subject s and
// predicate p (either may be Wild), ascending.
func (st *Store) Objects(s, p dict.ID) []dict.ID {
	base := st.frz.objects(s, p)
	if st.dlt.len() == 0 {
		return base
	}
	ds := st.dlt.spans(Pattern{S: s, P: p})
	for i := ds.rlo; i < ds.rhi; i++ {
		base = append(base, ds.run[i].O)
	}
	for i := ds.mlo; i < ds.mhi; i++ {
		base = append(base, ds.mem[i].O)
	}
	return sortDedup(base)
}
