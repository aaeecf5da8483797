package algebra

// The grouping pass of γ and δ, and the join's probe fan-out. Both stay
// byte-identical to their sequential form:
//
//   - grouping partitions the HASH space of the group key across workers,
//     one Cube each. All rows of one cell share a hash, so exactly one
//     worker owns each cell — accumulators never race, every cell is fed
//     in input-row order (bit-identical floats to the sequential path),
//     and the merge orders cells by their first input row, which is the
//     sequential first-seen order. δ is the same pass on every column.
//   - ⋈ builds its hash table once, then probes contiguous chunks of the
//     left side concurrently; per-chunk outputs concatenate in chunk
//     order and bucket lists hold right rows in insertion (ascending)
//     order, so the emitted rows match the sequential nested order.
//
// Both honor the GroupWorkers override.

import (
	"runtime"
	"sync"

	"rdfcube/internal/agg"
)

// parallelGroupMinRows is the input size below which grouping stays
// sequential.
const parallelGroupMinRows = 16384

// GroupWorkers overrides the grouping parallelism; 0 (the default) uses
// runtime.GOMAXPROCS. Exposed for tests and tuning.
var GroupWorkers int

// groupWorkers sizes the fan-out; <= 1 means stay sequential.
func groupWorkers(rows int) int {
	nw := GroupWorkers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
		if max := rows / parallelGroupMinRows; nw > max {
			nw = max
		}
	}
	if nw > rows {
		nw = rows
	}
	return nw
}

// group feeds every row of r to a Cube grouping on gIdx (see NewCube) and
// returns its cells in first-seen order. Wide inputs fan out across one
// Cube per hash partition.
func (r *Relation) group(gIdx []int, vIdx int, f agg.Func, resolve NumericResolver) []cell {
	n := len(r.Rows)
	nw := groupWorkers(n)
	if nw <= 1 {
		cb := r.passCube(gIdx, vIdx, f, resolve, n)
		for i, row := range r.Rows {
			cb.addAt(i, hashCols(row, gIdx))
		}
		return cb.cells
	}

	// Pass 1: hash the group key of every row in parallel chunks, each
	// chunk worker bucketing its row indexes by hash partition so pass 2
	// never rescans the whole array.
	hashes := make([]uint64, n)
	chunkParts := make([][][]int, nw)
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
			parts := make([][]int, nw)
			for i := lo; i < hi; i++ {
				h := hashCols(r.Rows[i], gIdx)
				hashes[i] = h
				p := int(h % uint64(nw))
				parts[p] = append(parts[p], i)
			}
			chunkParts[w] = parts
		}(w, lo, hi)
	}
	wg.Wait()

	// Pass 2: worker p feeds the rows of hash partition p to its own Cube.
	// Chunk index lists concatenate in ascending row order, so every cell
	// is fed in input order — as sequentially.
	cubes := make([]*Cube, nw)
	for p := 0; p < nw; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			m := 0
			for _, parts := range chunkParts {
				if parts != nil {
					m += len(parts[p])
				}
			}
			cb := r.passCube(gIdx, vIdx, f, resolve, m)
			for _, parts := range chunkParts {
				if parts == nil {
					continue
				}
				for _, i := range parts[p] {
					cb.addAt(i, hashes[i])
				}
			}
			cubes[p] = cb
		}(p)
	}
	wg.Wait()

	// Merge: every partition lists its cells in first-seen order, so
	// repeatedly taking the head with the lowest first row restores the
	// sequential first-seen order.
	total := 0
	for _, cb := range cubes {
		total += len(cb.cells)
	}
	cells := make([]cell, 0, total)
	next := make([]int, nw)
	for len(cells) < total {
		best := -1
		for p, cb := range cubes {
			if next[p] < len(cb.cells) && (best < 0 || cb.cells[next[p]].first < cubes[best].cells[next[best]].first) {
				best = p
			}
		}
		cells = append(cells, cubes[best].cells[next[best]])
		next[best]++
	}
	return cells
}

// passCube returns the cube of a grouping pass that feeds it m of r's
// rows. δ opens a cell for most rows, so its table is sized for all m up
// front; γ's grows with its cells, which are typically far fewer.
func (r *Relation) passCube(gIdx []int, vIdx int, f agg.Func, resolve NumericResolver, m int) *Cube {
	cb := NewCube(gIdx, vIdx, f, resolve)
	cb.rows = r.Rows
	if f == nil {
		cb.cells = make([]cell, 0, m)
		cb.size(m)
	}
	return cb
}

// parallelJoinMinRows is the probe-side size below which the join stays
// sequential.
const parallelJoinMinRows = 16384

// joinWorkers sizes the probe fan-out; <= 1 means stay sequential.
func joinWorkers(rows int) int {
	nw := GroupWorkers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
		if max := rows / parallelJoinMinRows; nw > max {
			nw = max
		}
	}
	if nw > rows {
		nw = rows
	}
	return nw
}

// probeParallel probes contiguous chunks of the left rows against the
// build table concurrently and concatenates the per-chunk outputs in
// chunk order. It returns nil when the probe side is too small.
func probeParallel(left []Row, lIdx, rIdx []int, build map[uint64][]Row, keepRight []int, width int) []Row {
	n := len(left)
	nw := joinWorkers(n)
	if nw <= 1 {
		return nil
	}
	parts := make([][]Row, nw)
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
			parts[w] = probe(left[lo:hi], lIdx, rIdx, build, keepRight, width)
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]Row, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
