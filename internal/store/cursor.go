package store

// Ordered cursors over the frozen permutations — the access-path layer
// the bgp package's merge-join and leapfrog-triejoin operators run on.
//
// A Cursor iterates the triples matching one pattern in the permuted
// sorted order of the permutation frozen.patternRange resolves the
// pattern to, interleaving the frozen base range with the delta
// overlay's range of the same permutation: every operator sees ONE
// sorted stream, exactly the merged view Store.ForEach serves at the
// store's current (baseEpoch, deltaSeq) version. The cursor captures
// the base and overlay at construction, so it stays coherent for its
// lifetime as long as the caller serializes writes against reads (the
// store's usual contract; the server's RWMutex provides it).
//
// The cursor's key is the pattern's leading free component — the first
// column of the permutation not pinned by a bound position. A pattern
// with two bound positions therefore yields strictly increasing keys
// (the run's third column), which is what the join operators intersect:
//
//	(S, P) bound -> SPO run, key = O
//	(P, O) bound -> POS run, key = S
//	(S, O) bound -> OSP run, key = P
//
// Seek(v) advances to the first triple whose key is >= v without
// visiting the skipped triples: a galloping (exponential, then binary)
// search over the base column and the overlay — O(log gap), which is
// what makes leapfrog skip, not scan. Seeks only move forward.

import (
	"sort"

	"rdfcube/internal/dict"
)

// Cursor is an ordered, seekable iterator over the triples matching one
// pattern. Obtain one with Store.NewCursor; the zero Cursor is not
// meaningful.
type Cursor struct {
	// Base side: a [bpos, bhi) range of one frozen permutation; bcol is
	// the key column of that permutation (c1/c2/c3 per keyCol).
	px   *permIndex
	bcol column
	bpos int
	bhi  int

	// Spilled-run side: the matching [rpos, rhi) range of the delta's
	// on-disk run of the same permutation (empty when nothing spilled).
	rts  []IDTriple
	rpos int
	rhi  int

	// In-memory delta side: the matching [dpos, dhi) range of the
	// overlay's sorted tail of the same permutation.
	ts   []IDTriple
	dpos int
	dhi  int

	kind   permKind
	keyCol int
	total  int

	// Current position: the minimum of the three sides in permuted order.
	cur       IDTriple
	key       dict.ID
	src       int8 // cursorBase / cursorRun / cursorMem
	exhausted bool

	// Seeks and Nexts count the cursor's galloping seeks and single-step
	// advances since construction — the per-operator access-path counts
	// EXPLAIN ANALYZE reports. Plain ints: a cursor is single-goroutine
	// by contract, and the increments cost nothing measurable.
	Seeks int
	Nexts int
}

// The side the cursor is currently positioned on.
const (
	cursorBase int8 = iota
	cursorRun
	cursorMem
)

// Counts returns the cursor's accumulated access-path counters — the
// galloping seeks and single-step advances since construction — for
// per-query cost accounting.
func (c *Cursor) Counts() (seeks, nexts int64) {
	if c == nil {
		return 0, 0
	}
	return int64(c.Seeks), int64(c.Nexts)
}

// NewCursor returns a cursor over the triples matching pat, in the
// permuted sorted order of the permutation the pattern resolves to,
// merging the base with the delta overlay.
func (st *Store) NewCursor(pat Pattern) Cursor {
	var c Cursor
	// mergedRange resolves all sides with the shared shape-to-
	// permutation mapping, so base, spilled run and in-memory tail
	// interleave in one order.
	var ds dspan
	c.px, c.bpos, c.bhi, ds = st.mergedRange(pat)
	c.rts, c.rpos, c.rhi = ds.run, ds.rlo, ds.rhi
	c.ts, c.dpos, c.dhi = ds.mem, ds.mlo, ds.mhi
	c.kind = c.px.kind
	sB, pB, oB := pat.S != Wild, pat.P != Wild, pat.O != Wild
	c.keyCol = 0
	for _, b := range [3]bool{sB, pB, oB} {
		if b {
			c.keyCol++
		}
	}
	switch c.keyCol {
	case 0:
		c.bcol = c.px.c1
	case 1:
		c.bcol = c.px.c2
	default: // two or three bound; c3 is the last (possibly pinned) column
		c.bcol = c.px.c3
	}
	c.total = (c.bhi - c.bpos) + (c.rhi - c.rpos) + (c.dhi - c.dpos)
	c.settle()
	return c
}

// NewCursorPSO returns a cursor over every triple with predicate p in
// (S, O) order — the PSO permutation, which the three classic
// permutations cannot provide — keyed on the subject. Keys are
// non-decreasing but NOT strictly increasing: a subject with several
// p-objects contributes one position per object, so this cursor is not
// an intersection operand. It exists for the batch engine's streamed
// chain steps, which Seek to each already-bound subject and enumerate
// the object run via Triple(). A delta overlay is merged.
func (st *Store) NewCursorPSO(p dict.ID) Cursor {
	var c Cursor
	c.px = &st.frz.pso
	c.bpos, c.bhi = c.px.keyRange(p)
	c.ts = st.dlt.pso
	c.dpos, c.dhi = searchPrefix(permPSO, st.dlt.pso, 1, p, 0, 0)
	if run := st.dlt.runPerm(permPSO); len(run) > 0 {
		c.rts = run
		c.rpos, c.rhi = searchPrefix(permPSO, run, 1, p, 0, 0)
	}
	c.kind = permPSO
	c.keyCol = 1
	c.bcol = c.px.c2
	c.total = (c.bhi - c.bpos) + (c.rhi - c.rpos) + (c.dhi - c.dpos)
	c.settle()
	return c
}

// Len reports how many triples the cursor ranged over at construction
// (base plus overlay), before any Next/Seek consumed them.
func (c *Cursor) Len() int { return c.total }

// Valid reports whether the cursor is positioned on a triple.
func (c *Cursor) Valid() bool { return !c.exhausted }

// Triple returns the current triple in (S, P, O) orientation.
func (c *Cursor) Triple() IDTriple { return c.cur }

// Key returns the current triple's leading free component — the value
// the join operators intersect. Strictly increasing for patterns with
// two bound positions; non-decreasing otherwise.
func (c *Cursor) Key() dict.ID { return c.key }

// Next advances to the next triple in merged permuted order.
func (c *Cursor) Next() {
	if c.exhausted {
		return
	}
	c.Nexts++
	switch c.src {
	case cursorBase:
		c.bpos++
	case cursorRun:
		c.rpos++
	default:
		c.dpos++
	}
	c.settle()
}

// Seek advances to the first triple whose key is >= v (a no-op when the
// current key already is). Seeks only move forward; the skipped triples
// are never visited — a galloping search over the base column and the
// overlay range.
func (c *Cursor) Seek(v dict.ID) {
	if c.exhausted || c.key >= v {
		return
	}
	c.Seeks++
	c.bpos = c.bcol.gallop(c.bpos, c.bhi, v)
	if c.rpos < c.rhi {
		c.rpos = gallopTriples(c.kind, c.keyCol, c.rts, c.rpos, c.rhi, v)
	}
	c.dpos = gallopTriples(c.kind, c.keyCol, c.ts, c.dpos, c.dhi, v)
	c.settle()
}

// settle positions the cursor on the smallest of the three sides (full
// permuted-key comparison, so the merged stream is totally ordered) and
// caches the key component.
func (c *Cursor) settle() {
	src := int8(-1)
	var best IDTriple
	if c.bpos < c.bhi {
		best, src = c.px.triple(c.bpos), cursorBase
	}
	if c.rpos < c.rhi {
		if t := c.rts[c.rpos]; src < 0 || permLess(c.kind, t, best) {
			best, src = t, cursorRun
		}
	}
	if c.dpos < c.dhi {
		if t := c.ts[c.dpos]; src < 0 || permLess(c.kind, t, best) {
			best, src = t, cursorMem
		}
	}
	if src < 0 {
		c.exhausted = true
		return
	}
	c.cur, c.src = best, src
	a, b, c3 := permuteTriple(c.kind, c.cur)
	switch c.keyCol {
	case 0:
		c.key = a
	case 1:
		c.key = b
	default:
		c.key = c3
	}
}

// permKeyAt extracts one key component of a triple under a permutation.
func permKeyAt(kind permKind, keyCol int, t IDTriple) dict.ID {
	a, b, c := permuteTriple(kind, t)
	switch keyCol {
	case 0:
		return a
	case 1:
		return b
	default:
		return c
	}
}

// gallopTriples finds the first position in [lo, hi) of the sorted
// triple run ts whose key component is >= v — the overlay-side
// counterpart of column.gallop.
func gallopTriples(kind permKind, keyCol int, ts []IDTriple, lo, hi int, v dict.ID) int {
	if lo >= hi || permKeyAt(kind, keyCol, ts[lo]) >= v {
		return lo
	}
	step := 1
	for lo+step < hi && permKeyAt(kind, keyCol, ts[lo+step]) < v {
		lo += step
		step <<= 1
	}
	lo++ // the key at the old lo was < v
	if bound := lo + step; bound < hi {
		hi = bound
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return permKeyAt(kind, keyCol, ts[lo+i]) >= v })
}

// gallopIDs finds the first index in [lo, hi) of the sorted column col
// with col[i] >= v: exponential probing from lo (seeks in a merge are
// usually short) capped by a binary search.
func gallopIDs(col []dict.ID, lo, hi int, v dict.ID) int {
	if lo >= hi || col[lo] >= v {
		return lo
	}
	step := 1
	for lo+step < hi && col[lo+step] < v {
		lo += step
		step <<= 1
	}
	lo++ // col[old lo] < v
	if bound := lo + step; bound < hi {
		hi = bound
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return col[lo+i] >= v })
}
