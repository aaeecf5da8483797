package store

// The sorted base: read-optimized triple indexes in the RDF-3X/HDT-style
// layout, the only representation a store's triples have besides the
// delta overlay.
//
// The base holds four sorted permutations of the triple set — SPO, POS,
// OSP and PSO — stored column-wise (three parallel []dict.ID slices per
// permutation) with a first-level offset directory over the leading
// component. Every triple-pattern shape then resolves to one contiguous
// range:
//
//	first component bound        -> directory binary search, O(log k)
//	first two components bound   -> + binary search inside the run
//	all three bound              -> + binary search on the third column
//
// so prefix counts are O(log n), range scans are linear walks over
// contiguous memory, and the Subjects/Objects dedup becomes a sorted-run
// walk with no maps. Every rebuild also precomputes per-predicate
// distinct subject/object counts (one O(n) pass over SPO and POS),
// which feed the BGP optimizer's bound-aware cardinality estimates.
//
// A base is only ever built by mergePerm: the previous base merged with
// sorted runs of new triples. Incremental writes accumulate in the
// sorted delta overlay of delta.go, and reads merge the base range with
// the delta range of the same permutation. Freeze on a store with a
// pending delta compacts — folds the overlay into a rebuilt base and
// advances the base epoch — as does crossing the compaction threshold;
// AddBatch folds a sorted batch in the same way.

import (
	"slices"
	"sort"

	"rdfcube/internal/dict"
)

// permKind names a permutation's component order.
type permKind uint8

const (
	permSPO permKind = iota // c1=S c2=P c3=O
	permPOS                 // c1=P c2=O c3=S
	permOSP                 // c1=O c2=S c3=P
	permPSO                 // c1=P c2=S c3=O
)

// permIndex is one sorted permutation in columnar layout. The triple set
// is sorted lexicographically by (c1, c2, c3); keys/off form the
// first-level offset directory: keys holds the distinct c1 values in
// ascending order and off[i:i+2] bounds keys[i]'s run.
type permIndex struct {
	kind       permKind
	c1, c2, c3 column
	keys       []dict.ID
	off        []int
}

// frozen is the read-optimized view of a store.
type frozen struct {
	spo, pos, osp permIndex

	// pso is the fourth permutation (c1=P c2=S c3=O): predicate runs
	// whose rows are subject-sorted. The classic pattern shapes never
	// need it (patternRange covers them with three permutations); it
	// exists for subject-keyed cursors over P-bound patterns with a free
	// object — the batch engine's streamed chain steps (NewCursorPSO).
	pso permIndex

	// Per-predicate distinct-subject/object counts, computed at freeze
	// time in one pass over SPO (distinct (s,p) pairs per p) and POS
	// (distinct (p,o) pairs per p).
	predDistinctS map[dict.ID]int
	predDistinctO map[dict.ID]int
}

// perms returns the four permutations in permKind order.
func (f *frozen) perms() [4]*permIndex { return [4]*permIndex{&f.spo, &f.pos, &f.osp, &f.pso} }

// emptyFrozen is the base of a new store: four empty heap permutations.
func emptyFrozen() *frozen {
	f := &frozen{}
	for k, px := range f.perms() {
		*px = mergePerm(&permIndex{kind: permKind(k)})
	}
	f.computeStats(0)
	return f
}

// Freeze compacts a pending delta overlay now: it folds the overlay
// into a rebuilt base, clears it and advances the base epoch, so
// materializations pinned to the old feed know to recompute. On a store
// with no pending delta it is a no-op.
func (st *Store) Freeze() {
	if st.dlt.len() > 0 {
		st.compact()
	}
}

// compact folds the delta overlay into a rebuilt frozen base. Base and
// overlay are sorted runs of the same permutation order, so the rebuild
// is a linear merge per permutation — no re-sort.
func (st *Store) compact() {
	st.frz = st.mergedFrozen(nil)
	st.dlt.reset()
	st.bumpBase()
}

// mergedFrozen merges the frozen base with the current delta overlay
// and batch — new triples in (S, P, O) order, disjoint from both — into
// a fresh base: the shared read-only heart of AddBatch, inline
// compaction and PrepareCompaction. The batch is re-sorted once per
// other permutation through one scratch slice.
func (st *Store) mergedFrozen(batch []IDTriple) *frozen {
	f := &frozen{}
	old := st.frz.perms()
	var scratch []IDTriple
	for k, px := range f.perms() {
		kind := permKind(k)
		sorted := batch
		if kind != permSPO && len(batch) > 0 {
			scratch = append(scratch[:0], batch...)
			slices.SortFunc(scratch, permCmp(kind))
			sorted = scratch
		}
		*px = mergePerm(old[k], st.dlt.runPerm(kind), st.dlt.memPerm(kind), sorted)
	}
	f.computeStats(len(st.predCount))
	return f
}

// PreparedCompaction is a frozen base rebuilt off the write path: the
// result of merging a snapshot of the base with the delta overlay as of
// PrepareCompaction. InstallCompaction swaps it in.
type PreparedCompaction struct {
	f        *frozen
	against  *frozen // the base the merge consumed
	base     uint64  // its epoch
	consumed int     // delta-feed prefix folded into f
}

// Pending reports how many delta triples the prepared base folded in.
func (pc *PreparedCompaction) Pending() int { return pc.consumed }

// PrepareCompaction merges the frozen base with the current delta
// overlay into a fresh base without touching the store — the expensive
// half of a compaction, safe to run concurrently with readers (it only
// reads the base and the overlay; the caller must hold whatever lock
// serializes it against writes, e.g. the server's read lock). Returns
// nil when there is nothing to compact. Hand the result to
// InstallCompaction under the write lock to swap it in.
func (st *Store) PrepareCompaction() *PreparedCompaction {
	if st.dlt.len() == 0 {
		return nil
	}
	return &PreparedCompaction{
		f:        st.mergedFrozen(nil),
		against:  st.frz,
		base:     st.Version().Base,
		consumed: st.dlt.len(),
	}
}

// InstallCompaction swaps a prepared base in under the caller's write
// serialization: the folded delta prefix leaves the overlay, the base
// epoch advances (materializations pinned to the old feed recompute,
// as with any compaction), and writes accepted after the prepare are
// re-queued as the head of the new overlay, preserving arrival order.
// It reports false — discarding the prepared work — when the store's
// base moved since the prepare (an inline compaction, AddBatch or
// explicit Freeze won the race).
func (st *Store) InstallCompaction(pc *PreparedCompaction) bool {
	if pc == nil || st.frz != pc.against || st.Version().Base != pc.base {
		return false
	}
	tail := append([]IDTriple(nil), st.dlt.log[pc.consumed:]...)
	st.frz = pc.f
	st.dlt.reset()
	st.bumpBase()
	for _, t := range tail {
		st.dlt.add(t)
		st.ver.Add(1)
	}
	return true
}

// mergePerm merges a frozen permutation with sorted runs of the same
// permutation — the delta's spilled run, its in-memory tail, a bulk
// batch — into a fresh heap-backed columnar index. All sides are
// pairwise disjoint by construction, so the merge never deduplicates.
// The runs are pre-merged first; they are small relative to the base
// or, for a bulk load into an empty base, the only side.
func mergePerm(px *permIndex, runs ...[]IDTriple) permIndex {
	var ts []IDTriple
	for _, r := range runs {
		switch {
		case len(r) == 0:
		case len(ts) == 0:
			ts = r
		default:
			ts = mergeTripleRuns(px.kind, ts, r)
		}
	}
	n := px.len() + len(ts)
	out := permIndex{kind: px.kind}
	cols := make([]dict.ID, 3*n)
	o1, o2, o3 := cols[:n:n], cols[n:2*n:2*n], cols[2*n:]
	w := 0
	j := 0
	if b1, b2, b3 := px.c1.arr, px.c2.arr, px.c3.arr; b1 != nil {
		i := 0
		for i < len(b1) && j < len(ts) {
			da, db, dc := permuteTriple(px.kind, ts[j])
			if colsLess(da, db, dc, b1[i], b2[i], b3[i]) {
				o1[w], o2[w], o3[w] = da, db, dc
				j++
			} else {
				o1[w], o2[w], o3[w] = b1[i], b2[i], b3[i]
				i++
			}
			w++
		}
		for ; i < len(b1); i++ {
			o1[w], o2[w], o3[w] = b1[i], b2[i], b3[i]
			w++
		}
	} else {
		// Generic backing (a mapped base being folded to heap): iterate
		// triples through the column layer.
		i, bn := 0, px.len()
		for i < bn && j < len(ts) {
			da, db, dc := permuteTriple(px.kind, ts[j])
			ba, bb, bc := permuteTriple(px.kind, px.triple(i))
			if colsLess(da, db, dc, ba, bb, bc) {
				o1[w], o2[w], o3[w] = da, db, dc
				j++
			} else {
				o1[w], o2[w], o3[w] = ba, bb, bc
				i++
			}
			w++
		}
		for ; i < bn; i++ {
			o1[w], o2[w], o3[w] = permuteTriple(px.kind, px.triple(i))
			w++
		}
	}
	for ; j < len(ts); j++ {
		o1[w], o2[w], o3[w] = permuteTriple(px.kind, ts[j])
		w++
	}
	out.c1, out.c2, out.c3 = heapCol(o1), heapCol(o2), heapCol(o3)
	out.buildDirectory()
	return out
}

// mergeTripleRuns merges two triple runs sorted by the permuted key.
func mergeTripleRuns(kind permKind, a, b []IDTriple) []IDTriple {
	out := make([]IDTriple, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if permLess(kind, b[j], a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// colsLess orders two permuted component triples lexicographically.
func colsLess(a1, b1, c1, a2, b2, c2 dict.ID) bool {
	if a1 != a2 {
		return a1 < a2
	}
	if b1 != b2 {
		return b1 < b2
	}
	return c1 < c2
}

// computeStats derives the per-predicate distinct counts from the sorted
// permutations: distinct subjects per predicate are the distinct
// (c1,c2)=(s,p) pairs in SPO grouped by p, distinct objects the distinct
// (c1,c2)=(p,o) pairs in POS grouped by p.
func (f *frozen) computeStats(sizeHint int) {
	f.predDistinctS = make(map[dict.ID]int, sizeHint)
	f.predDistinctO = make(map[dict.ID]int, sizeHint)
	spo := &f.spo
	if c1, c2 := spo.c1.arr, spo.c2.arr; c1 != nil {
		for i := range c1 {
			if i == 0 || c1[i] != c1[i-1] || c2[i] != c2[i-1] {
				f.predDistinctS[c2[i]]++
			}
		}
	} else {
		// c1 changes exactly at directory boundaries, so each run is one
		// subject and the distinct (s, p) pairs are the distinct c2
		// values per run.
		var scratch []dict.ID
		for j := 0; j+1 < len(spo.off); j++ {
			scratch = spo.c2.distinctTo(scratch[:0], spo.off[j], spo.off[j+1])
			for _, p := range scratch {
				f.predDistinctS[p]++
			}
		}
	}
	pos := &f.pos
	if c1, c2 := pos.c1.arr, pos.c2.arr; c1 != nil {
		for i := range c1 {
			if i == 0 || c1[i] != c1[i-1] || c2[i] != c2[i-1] {
				f.predDistinctO[c1[i]]++
			}
		}
	} else {
		var scratch []dict.ID
		for j := 0; j+1 < len(pos.off); j++ {
			scratch = pos.c2.distinctTo(scratch[:0], pos.off[j], pos.off[j+1])
			f.predDistinctO[pos.keys[j]] += len(scratch)
		}
	}
}

// rebuildPSO derives the PSO permutation from the SPO columns — the
// load-time fallback for v2 snapshots written before PSO existed.
func (f *frozen) rebuildPSO() {
	ts := f.spo.appendRange(make([]IDTriple, 0, f.spo.len()), 0, f.spo.len())
	slices.SortFunc(ts, permCmp(permPSO))
	f.pso = mergePerm(&permIndex{kind: permPSO}, ts)
}

// buildDirectory derives the first-level offset directory from the
// sorted c1 column.
func (px *permIndex) buildDirectory() {
	c1 := px.c1.arr // directories are built only over heap columns
	n := len(c1)
	px.keys, px.off = px.keys[:0], px.off[:0]
	for i := 0; i < n; i++ {
		if i == 0 || c1[i] != c1[i-1] {
			px.keys = append(px.keys, c1[i])
			px.off = append(px.off, i)
		}
	}
	px.off = append(px.off, n)
}

// len reports the triple count.
func (px *permIndex) len() int { return px.c1.length() }

// keyRange returns the [lo, hi) run of first-component value v, or an
// empty range when v is absent.
func (px *permIndex) keyRange(v dict.ID) (int, int) {
	i := sort.Search(len(px.keys), func(i int) bool { return px.keys[i] >= v })
	if i == len(px.keys) || px.keys[i] != v {
		return 0, 0
	}
	return px.off[i], px.off[i+1]
}

// pairRange narrows a first-component run [lo, hi) to the subrange where
// the second component equals v.
func (px *permIndex) pairRange(lo, hi int, v dict.ID) (int, int) {
	l := px.c2.search(lo, hi, v)
	r := px.c2.searchAbove(l, hi, v)
	return l, r
}

// contains reports whether the permuted triple (a, b, c) is present.
func (px *permIndex) contains(a, b, c dict.ID) bool {
	lo, hi := px.keyRange(a)
	lo, hi = px.pairRange(lo, hi, b)
	i := px.c3.search(lo, hi, c)
	return i < hi && px.c3.at(i) == c
}

// triple reconstructs the i-th triple in (S, P, O) orientation.
func (px *permIndex) triple(i int) IDTriple {
	v1, v2, v3 := px.c1.at(i), px.c2.at(i), px.c3.at(i)
	switch px.kind {
	case permPOS:
		return IDTriple{S: v3, P: v1, O: v2}
	case permOSP:
		return IDTriple{S: v2, P: v3, O: v1}
	case permPSO:
		return IDTriple{S: v2, P: v1, O: v3}
	default:
		return IDTriple{S: v1, P: v2, O: v3}
	}
}

// forEachRange calls fn for triples [lo, hi), reporting false on early
// stop. The per-kind loops keep triple reconstruction branch-free inside
// the hot loop.
func (px *permIndex) forEachRange(lo, hi int, fn func(IDTriple) bool) bool {
	if c1 := px.c1.arr; c1 != nil {
		c2, c3 := px.c2.arr, px.c3.arr
		switch px.kind {
		case permPOS:
			for i := lo; i < hi; i++ {
				if !fn(IDTriple{S: c3[i], P: c1[i], O: c2[i]}) {
					return false
				}
			}
		case permOSP:
			for i := lo; i < hi; i++ {
				if !fn(IDTriple{S: c2[i], P: c3[i], O: c1[i]}) {
					return false
				}
			}
		case permPSO:
			for i := lo; i < hi; i++ {
				if !fn(IDTriple{S: c2[i], P: c1[i], O: c3[i]}) {
					return false
				}
			}
		default:
			for i := lo; i < hi; i++ {
				if !fn(IDTriple{S: c1[i], P: c2[i], O: c3[i]}) {
					return false
				}
			}
		}
		return true
	}
	// Mapped backing: iterate block-sized slabs of c2/c3 and ride the
	// run directory for c1, so the scan decodes each block exactly once
	// instead of paying a cache probe per row.
	if lo >= hi {
		return true
	}
	ki := sort.Search(len(px.keys), func(j int) bool { return px.off[j+1] > lo })
	i := lo
	for i < hi {
		v2, b2 := px.c2.block(i)
		v3, b3 := px.c3.block(i)
		end := min(hi, min(b2+len(v2), b3+len(v3)))
		for ; i < end; i++ {
			for px.off[ki+1] <= i {
				ki++
			}
			k, x2, x3 := px.keys[ki], v2[i-b2], v3[i-b3]
			var t IDTriple
			switch px.kind {
			case permPOS:
				t = IDTriple{S: x3, P: k, O: x2}
			case permOSP:
				t = IDTriple{S: x2, P: x3, O: k}
			case permPSO:
				t = IDTriple{S: x2, P: k, O: x3}
			default:
				t = IDTriple{S: k, P: x2, O: x3}
			}
			if !fn(t) {
				return false
			}
		}
	}
	return true
}

// appendRange appends the triples [lo, hi) to out.
func (px *permIndex) appendRange(out []IDTriple, lo, hi int) []IDTriple {
	px.forEachRange(lo, hi, func(t IDTriple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// patternRange resolves pat to a contiguous range of one permutation.
// In this three-permutation set every shape is contiguous (S+O lands on
// OSP, where the two bounds are adjacent):
//
//	S P O -> spo   S P - -> spo   S - - -> spo
//	- P O -> pos   - P - -> pos
//	S - O -> osp   - - O -> osp   - - - -> spo (full)
func (f *frozen) patternRange(pat Pattern) (px *permIndex, lo, hi int) {
	sB, pB, oB := pat.S != Wild, pat.P != Wild, pat.O != Wild
	switch {
	case sB && pB: // S P O and S P -
		px = &f.spo
		lo, hi = px.keyRange(pat.S)
		lo, hi = px.pairRange(lo, hi, pat.P)
		if oB {
			l := px.c3.search(lo, hi, pat.O)
			if l < hi && px.c3.at(l) == pat.O {
				return px, l, l + 1
			}
			return px, 0, 0
		}
		return px, lo, hi
	case pB: // - P O and - P -
		px = &f.pos
		lo, hi = px.keyRange(pat.P)
		if oB {
			lo, hi = px.pairRange(lo, hi, pat.O)
		}
		return px, lo, hi
	case oB: // S - O and - - O
		px = &f.osp
		lo, hi = px.keyRange(pat.O)
		if sB {
			lo, hi = px.pairRange(lo, hi, pat.S)
		}
		return px, lo, hi
	case sB: // S - -
		px = &f.spo
		lo, hi = px.keyRange(pat.S)
		return px, lo, hi
	default: // - - -
		px = &f.spo
		return px, 0, px.len()
	}
}

// forEach is the frozen implementation of Store.ForEach.
func (f *frozen) forEach(pat Pattern, fn func(IDTriple) bool) {
	px, lo, hi := f.patternRange(pat)
	px.forEachRange(lo, hi, fn)
}

// count is the frozen implementation of Store.Count: every shape is a
// range length, O(log n).
func (f *frozen) count(pat Pattern) int {
	_, lo, hi := f.patternRange(pat)
	return hi - lo
}

// match materializes the matching triples with exact preallocation.
func (f *frozen) match(pat Pattern) []IDTriple {
	px, lo, hi := f.patternRange(pat)
	if hi <= lo {
		return nil
	}
	return px.appendRange(make([]IDTriple, 0, hi-lo), lo, hi)
}

// distinctRuns appends the distinct values of col[lo:hi] — which must be
// sorted ascending — to out via a run walk.
func distinctRuns(out []dict.ID, col []dict.ID, lo, hi int) []dict.ID {
	for i := lo; i < hi; i++ {
		if i == lo || col[i] != col[i-1] {
			out = append(out, col[i])
		}
	}
	return out
}
