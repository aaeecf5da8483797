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

// ColumnRange is a window onto the triples matching one pattern on a
// store with no pending delta. Fill decodes into caller buffers
// block-at-a-time, so the batch engine's seed scans stay bulk
// operations on either backing (heap arrays or the mmap-backed blocks).
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

// PatternColumnRange resolves pat to a fillable column range. It
// reports ok = false when a delta overlay is pending (the merged view is
// not contiguous); callers then fall back to ForEach.
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
