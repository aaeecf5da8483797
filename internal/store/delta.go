package store

// Delta layer: a small sorted in-memory overlay that absorbs
// incremental writes on top of the sorted base, so an insert is not a
// base rebuild.
//
// AddID appends each new triple to
//
//   - log: the arrival-ordered delta feed. Consumers that maintain
//     materializations (internal/incr, internal/viewreg) read it through
//     DeltaSince(seq) and apply exactly the triples they have not seen.
//   - spo/pos/osp/pso: four permutations of the delta kept sorted by
//     their permuted (c1, c2, c3) key via binary-search insertion,
//     mirroring the frozen permIndex layout. Every read path then
//     resolves a pattern to one base range plus one delta range of the
//     same permutation and merge-iterates the two sorted runs.
//
// The delta is disjoint from the base by construction (AddID only
// reaches it for triples absent from both base and overlay), so merged
// counts are sums and merged scans never deduplicate.
//
// When the delta reaches the store's compaction threshold — or on an
// explicit Freeze() or the next AddBatch — it is folded into a rebuilt
// frozen base and the base epoch advances: the feed is gone, and
// materializations pinned to the old epoch must recompute. Because a
// bulk load inserts by binary search here, bulk loads use AddBatch.

import (
	"cmp"
	"sort"

	"rdfcube/internal/dict"
)

// DefaultCompactThreshold is the delta size at which a write triggers
// compaction into a new frozen base. SetCompactThreshold overrides it
// per store.
const DefaultCompactThreshold = 8192

// delta is the mutable overlay on a frozen base. Its sorted side is
// two-tier: the four in-memory permutations hold the tail accepted
// since the last spill, and run (when delta spill is enabled and the
// tail outgrew the spill threshold) holds the older prefix as one
// sorted on-disk run per permutation, mmap'd back in. The feed (log)
// always stays fully in memory — it is the maintenance contract of
// DeltaSince and is bounded by the compaction threshold.
type delta struct {
	log                []IDTriple // arrival order: the maintenance feed
	spo, pos, osp, pso []IDTriple // sorted by the respective permuted key
	run                *spillRun  // spilled sorted prefix, nil when none
}

func (d *delta) len() int { return len(d.log) }

// memLen reports the size of the in-memory sorted tail (the spill
// trigger; len() counts spilled triples too).
func (d *delta) memLen() int { return len(d.spo) }

func (d *delta) reset() {
	d.log, d.spo, d.pos, d.osp, d.pso = nil, nil, nil, nil, nil
	if d.run != nil {
		d.run.discard()
		d.run = nil
	}
}

// memPerm returns the in-memory sorted tail of one permutation.
func (d *delta) memPerm(kind permKind) []IDTriple {
	switch kind {
	case permPOS:
		return d.pos
	case permOSP:
		return d.osp
	case permPSO:
		return d.pso
	default:
		return d.spo
	}
}

// runPerm returns the spilled sorted prefix of one permutation (nil
// when nothing is spilled).
func (d *delta) runPerm(kind permKind) []IDTriple {
	if d.run == nil {
		return nil
	}
	return d.run.perm(kind)
}

// add appends t to the feed and sorted-inserts it into the four
// permutations: O(len) per permutation, bounded by the compaction
// threshold.
func (d *delta) add(t IDTriple) {
	d.log = append(d.log, t)
	d.spo = insertSorted(permSPO, d.spo, t)
	d.pos = insertSorted(permPOS, d.pos, t)
	d.osp = insertSorted(permOSP, d.osp, t)
	d.pso = insertSorted(permPSO, d.pso, t)
}

// contains reports whether t is in the overlay (either tier).
func (d *delta) contains(t IDTriple) bool {
	if d.len() == 0 {
		return false
	}
	if lo, hi := searchPrefix(permSPO, d.spo, 3, t.S, t.P, t.O); lo < hi {
		return true
	}
	if run := d.runPerm(permSPO); len(run) > 0 {
		lo, hi := searchPrefix(permSPO, run, 3, t.S, t.P, t.O)
		return lo < hi
	}
	return false
}

// permuteTriple projects t onto a permutation's (c1, c2, c3) key.
func permuteTriple(kind permKind, t IDTriple) (a, b, c dict.ID) {
	switch kind {
	case permPOS:
		return t.P, t.O, t.S
	case permOSP:
		return t.O, t.S, t.P
	case permPSO:
		return t.P, t.S, t.O
	default:
		return t.S, t.P, t.O
	}
}

// permLess orders two triples by their permuted key.
func permLess(kind permKind, x, y IDTriple) bool {
	ax, bx, cx := permuteTriple(kind, x)
	ay, by, cy := permuteTriple(kind, y)
	if ax != ay {
		return ax < ay
	}
	if bx != by {
		return bx < by
	}
	return cx < cy
}

// permCmp returns the three-way comparison of two triples by a
// permutation's key — the sort order of a bulk batch.
func permCmp(kind permKind) func(x, y IDTriple) int {
	return func(x, y IDTriple) int {
		ax, bx, cx := permuteTriple(kind, x)
		ay, by, cy := permuteTriple(kind, y)
		switch {
		case ax != ay:
			return cmp.Compare(ax, ay)
		case bx != by:
			return cmp.Compare(bx, by)
		default:
			return cmp.Compare(cx, cy)
		}
	}
}

// insertSorted inserts t into ts, keeping ts sorted by the permuted key.
func insertSorted(kind permKind, ts []IDTriple, t IDTriple) []IDTriple {
	i := sort.Search(len(ts), func(i int) bool { return !permLess(kind, ts[i], t) })
	ts = append(ts, IDTriple{})
	copy(ts[i+1:], ts[i:])
	ts[i] = t
	return ts
}

// searchPrefix returns the [lo, hi) run of ts whose permuted key starts
// with the n bound components (a, b, c).
func searchPrefix(kind permKind, ts []IDTriple, n int, a, b, c dict.ID) (lo, hi int) {
	cmp := func(t IDTriple) int {
		x, y, z := permuteTriple(kind, t)
		got := [3]dict.ID{x, y, z}
		want := [3]dict.ID{a, b, c}
		for i := 0; i < n; i++ {
			if got[i] < want[i] {
				return -1
			}
			if got[i] > want[i] {
				return 1
			}
		}
		return 0
	}
	lo = sort.Search(len(ts), func(i int) bool { return cmp(ts[i]) >= 0 })
	hi = lo + sort.Search(len(ts)-lo, func(i int) bool { return cmp(ts[lo+i]) > 0 })
	return lo, hi
}

// shapeSpec maps a pattern to the permutation it resolves on and the
// bound-prefix (n, a, b, c) within that permutation — the single
// shape-to-permutation mapping shared by frozen.patternRange, the delta
// tiers and the cursors, so all sides merge in one order.
func shapeSpec(pat Pattern) (kind permKind, n int, a, b, c dict.ID) {
	sB, pB, oB := pat.S != Wild, pat.P != Wild, pat.O != Wild
	switch {
	case sB && pB && oB:
		return permSPO, 3, pat.S, pat.P, pat.O
	case sB && pB:
		return permSPO, 2, pat.S, pat.P, 0
	case pB:
		if oB {
			return permPOS, 2, pat.P, pat.O, 0
		}
		return permPOS, 1, pat.P, 0, 0
	case oB:
		if sB {
			return permOSP, 2, pat.O, pat.S, 0
		}
		return permOSP, 1, pat.O, 0, 0
	case sB:
		return permSPO, 1, pat.S, 0, 0
	default:
		return permSPO, 0, 0, 0, 0
	}
}

// dspan is the delta side of a pattern resolution: the matching ranges
// of the spilled run and the in-memory tail of one permutation. Either
// range may be empty; the two are disjoint.
type dspan struct {
	kind     permKind
	run      []IDTriple
	rlo, rhi int
	mem      []IDTriple
	mlo, mhi int
}

func (ds *dspan) count() int { return (ds.rhi - ds.rlo) + (ds.mhi - ds.mlo) }

// spans resolves pat to its delta-side ranges.
func (d *delta) spans(pat Pattern) dspan {
	kind, n, a, b, c := shapeSpec(pat)
	ds := dspan{kind: kind, mem: d.memPerm(kind)}
	ds.mlo, ds.mhi = searchPrefix(kind, ds.mem, n, a, b, c)
	if d.run != nil {
		ds.run = d.run.perm(kind)
		ds.rlo, ds.rhi = searchPrefix(kind, ds.run, n, a, b, c)
	}
	return ds
}

// count returns the number of delta triples matching pat.
func (d *delta) count(pat Pattern) int {
	ds := d.spans(pat)
	return ds.count()
}

// mergedRange resolves pat to its base and delta ranges in one pass —
// the same permutation on all sides — so callers that need the total
// size and the iteration share one resolution.
func (st *Store) mergedRange(pat Pattern) (px *permIndex, blo, bhi int, ds dspan) {
	px, blo, bhi = st.frz.patternRange(pat)
	ds = st.dlt.spans(pat)
	return
}

// mergeRanges iterates a base range and the delta-side ranges of the
// same permutation in merged sorted order — a three-way merge of base,
// spilled run and in-memory tail, all pairwise disjoint. fn's
// early-stop contract matches Store.ForEach.
func mergeRanges(px *permIndex, blo, bhi int, ds dspan, fn func(IDTriple) bool) {
	i, r, m := blo, ds.rlo, ds.mlo
	for r < ds.rhi || m < ds.mhi {
		// The smaller delta-side candidate...
		var dt IDTriple
		fromRun := false
		switch {
		case r < ds.rhi && m < ds.mhi:
			if permLess(ds.kind, ds.run[r], ds.mem[m]) {
				dt, fromRun = ds.run[r], true
			} else {
				dt = ds.mem[m]
			}
		case r < ds.rhi:
			dt, fromRun = ds.run[r], true
		default:
			dt = ds.mem[m]
		}
		// ...drains the base up to its position.
		for i < bhi {
			bt := px.triple(i)
			if permLess(px.kind, dt, bt) {
				break
			}
			if !fn(bt) {
				return
			}
			i++
		}
		if !fn(dt) {
			return
		}
		if fromRun {
			r++
		} else {
			m++
		}
	}
	px.forEachRange(i, bhi, fn)
}

// forEachMerged iterates the triples matching pat in permuted order,
// merging the frozen base range with the delta-side ranges.
func (st *Store) forEachMerged(pat Pattern, fn func(IDTriple) bool) {
	px, blo, bhi, ds := st.mergedRange(pat)
	mergeRanges(px, blo, bhi, ds, fn)
}
