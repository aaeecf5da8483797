package bgp

// Head projection over evaluation results. Small results run the
// classic single-pass loop; wide results partition across workers with
// the same per-worker arena pattern evalBody uses, so the projection
// and the distinct filter stop being the serial tail of a parallel
// evaluation.
//
// The parallel distinct path stays deterministic and byte-identical to
// the sequential one: rows are projected and hashed in index order
// (chunked), then deduplicated by partitioning the HASH space across
// workers — identical rows hash identically, so every duplicate pair
// meets inside one partition, and each partition keeps the
// first-occurring index. Survivors are emitted in input order, which is
// exactly the sequential first-occurrence order.
//
// When the input carries a sort property (batch.go), the
// distinct filter downgrades to something cheaper: if the result is
// strict over its sorted variables and the projection keeps them all,
// no deduplication is needed at all; if the projected variables are
// exactly a sorted prefix, duplicates are adjacent and a run detector
// replaces the hash table. Both fast paths keep first-occurrence order
// (it coincides with the sorted order), so output stays byte-identical
// to the hash path.

import (
	"fmt"
	"runtime"
	"sync"

	"rdfcube/internal/dict"
)

// parallelProjectMinRows is the input size below which projection stays
// sequential (fan-out overhead dominates under it).
const parallelProjectMinRows = 16384

// Project returns a new result with only the named columns, in order.
// Under distinct, duplicate projected rows are collapsed (set
// semantics) keeping the first occurrence, and the dedup set stores
// 64-bit hashes (verified against the emitted rows on collision)
// instead of string keys.
func (r *Result) Project(vars []string, distinct bool) (*Result, error) {
	cols := make([]int, len(vars))
	for i, v := range vars {
		c := r.Column(v)
		if c < 0 {
			return nil, fmt.Errorf("bgp: projection variable %q not in result", v)
		}
		cols[i] = c
	}
	out := &Result{Vars: append([]string(nil), vars...)}

	// Ordering-aware dedup downgrade; see the package comment.
	skipDedup, runDedup := false, 0
	if distinct {
		if r.sortedCovers(vars) {
			skipDedup = true
		} else if k := r.sortedRunPrefix(vars); k > 0 {
			runDedup = k
		}
	}
	hashDedup := distinct && !skipDedup && runDedup == 0

	nw := projectWorkers(len(r.Rows))
	if nw > 1 {
		out.Rows = r.projectParallel(cols, hashDedup, nw)
	} else {
		out.Rows = make([][]dict.ID, 0, len(r.Rows))
		ar := newRowArena(len(cols))
		buf := make([]dict.ID, len(cols))
		var buckets map[uint64][]int
		if hashDedup {
			buckets = make(map[uint64][]int, len(r.Rows))
		}
		for _, row := range r.Rows {
			for i, c := range cols {
				buf[i] = row[c]
			}
			if hashDedup {
				h := hashIDs(buf)
				dup := false
				for _, idx := range buckets[h] {
					if idRowsEqual(out.Rows[idx], buf) {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				buckets[h] = append(buckets[h], len(out.Rows))
			}
			nr := ar.newRow()
			copy(nr, buf)
			out.Rows = append(out.Rows, nr)
		}
	}
	if runDedup > 0 {
		out.Rows = dedupAdjacentRows(out.Rows)
	}

	// Propagate the sort property through the projection.
	switch {
	case skipDedup:
		out.Sorted = append([]string(nil), r.Sorted...)
		out.Strict = true
	case runDedup > 0:
		out.Sorted = append([]string(nil), r.Sorted[:runDedup]...)
		out.Strict = true
	case !distinct:
		// Bag: the longest sorted prefix fully kept by the projection
		// still orders the output; strictness survives only when the
		// whole prefix does.
		k := 0
		for k < len(r.Sorted) && containsStr(vars, r.Sorted[k]) {
			k++
		}
		out.Sorted = append([]string(nil), r.Sorted[:k]...)
		out.Strict = r.Strict && k == len(r.Sorted)
	}
	return out, nil
}

// sortedCovers reports whether dropping deduplication is safe: the
// result is strict over its sorted variables and vars retains every one
// of them, so projected rows are already distinct.
func (r *Result) sortedCovers(vars []string) bool {
	if !r.Strict || len(r.Sorted) == 0 {
		return false
	}
	for _, s := range r.Sorted {
		if !containsStr(vars, s) {
			return false
		}
	}
	return true
}

// sortedRunPrefix returns k > 0 when set(vars) equals set(Sorted[:k]):
// the projected rows are then ordered by exactly the projected
// variables, so duplicate projections are adjacent.
func (r *Result) sortedRunPrefix(vars []string) int {
	k := len(vars)
	if k == 0 || k > len(r.Sorted) {
		return 0
	}
	prefix := r.Sorted[:k]
	for _, s := range prefix {
		if !containsStr(vars, s) {
			return 0
		}
	}
	for _, v := range vars {
		if !containsStr(prefix, v) {
			return 0
		}
	}
	return k
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// dedupAdjacentRows collapses runs of equal rows in place, keeping the
// first of each run — the full distinct semantics when equal rows are
// known to be adjacent.
func dedupAdjacentRows(rows [][]dict.ID) [][]dict.ID {
	w := 0
	for i, row := range rows {
		if i > 0 && idRowsEqual(row, rows[w-1]) {
			continue
		}
		rows[w] = row
		w++
	}
	return rows[:w]
}

// projectWorkers sizes the projection fan-out: the Workers override, or
// GOMAXPROCS capped so every worker gets a meaningful chunk.
func projectWorkers(rows int) int {
	nw := Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
		if max := rows / parallelProjectMinRows; nw > max {
			nw = max
		}
	}
	if nw > rows {
		nw = rows
	}
	return nw
}

// projectParallel is the fan-out path: project (and hash) in index
// order across contiguous chunks — each chunk worker also bucketing its
// row indexes by hash partition — then, under distinct, dedup one
// partition per worker and compact survivors in input order.
func (r *Result) projectParallel(cols []int, distinct bool, nw int) [][]dict.ID {
	n := len(r.Rows)
	proj := make([][]dict.ID, n)
	var hashes []uint64
	// chunkParts[c][p] lists chunk c's row indexes hashing to partition
	// p, ascending; concatenated across chunks (in order) they stay
	// ascending, so each partition owner sees its rows in input order
	// without rescanning the whole hash array.
	var chunkParts [][][]int
	if distinct {
		hashes = make([]uint64, n)
		chunkParts = make([][][]int, nw)
	}
	var wg sync.WaitGroup
	chunk := (n + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			ar := newRowArena(len(cols))
			var parts [][]int
			if distinct {
				parts = make([][]int, nw)
			}
			for i := lo; i < hi; i++ {
				row := r.Rows[i]
				nr := ar.newRow()
				for j, c := range cols {
					nr[j] = row[c]
				}
				proj[i] = nr
				if distinct {
					h := hashIDs(nr)
					hashes[i] = h
					p := int(h % uint64(nw))
					parts[p] = append(parts[p], i)
				}
			}
			if distinct {
				chunkParts[w] = parts
			}
		}(w, lo, hi)
	}
	wg.Wait()
	if !distinct {
		return proj
	}

	// Dedup: worker p owns its hash partition; indexes arrive ascending,
	// so the kept row of every duplicate class is the first occurrence.
	keep := make([]bool, n)
	for p := 0; p < nw; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buckets := make(map[uint64][]int, n/nw+1)
			for _, parts := range chunkParts {
				if parts == nil {
					continue
				}
				for _, i := range parts[p] {
					h := hashes[i]
					dup := false
					for _, idx := range buckets[h] {
						if idRowsEqual(proj[idx], proj[i]) {
							dup = true
							break
						}
					}
					if !dup {
						buckets[h] = append(buckets[h], i)
						keep[i] = true
					}
				}
			}
		}(p)
	}
	wg.Wait()
	kept := 0
	for _, k := range keep {
		if k {
			kept++
		}
	}
	// Re-copy survivors into a fresh arena: the projection arenas hold
	// every duplicate too, and returning slices into them would pin
	// memory proportional to the input (the sequential path only ever
	// commits survivors). One extra pass over the kept rows.
	out := make([][]dict.ID, 0, kept)
	ar := newRowArena(len(cols))
	for i, k := range keep {
		if k {
			nr := ar.newRow()
			copy(nr, proj[i])
			out = append(out, nr)
		}
	}
	return out
}
