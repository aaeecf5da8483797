package algebra

// The grouping pass of γ, δ and the fused ⋈+γ, and the join's probe
// fan-out. Both stay byte-identical to their sequential form:
//
//   - grouping feeds matches to Cubes: every input row of γ and δ, or
//     every (left row, right row) pair of JoinAggregate, in joined order.
//     Wide inputs fan out in two passes. Pass 1 probes contiguous chunks
//     of the left rows and hashes each match's group key into one of the
//     workers' HASH partitions; pass 2 feeds partition p, chunk by chunk,
//     to its own Cube. All matches of one cell share a hash, so exactly
//     one worker owns each cell — accumulators never race, every cell is
//     fed in joined order (bit-identical floats to the sequential path),
//     and the merge orders cells by the (left, right) rows of the match
//     that opened them, which is the sequential first-seen order. δ is
//     the same pass without accumulators.
//   - ⋈ builds its table once (join.go), then probes contiguous chunks
//     of the left side concurrently; per-chunk outputs concatenate in
//     chunk order and chains hold right rows in ascending order, so the
//     emitted rows match the sequential nested order.
//
// Both honor the GroupWorkers override. JoinAggregateIDs (idjoin.go)
// is sequential and does not read it.

import (
	"runtime"
	"sync"

	"rdfcube/internal/agg"
	"rdfcube/internal/hash64"
)

// parallelGroupMinRows is the input size below which grouping and the
// join's probe stay sequential.
const parallelGroupMinRows = 16384

// GroupWorkers overrides the grouping parallelism; 0 (the default) uses
// runtime.GOMAXPROCS. Exposed for tests and tuning.
var GroupWorkers int

// groupWorkers sizes the fan-out over rows input rows; <= 1 means stay
// sequential.
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

// colRef names a column of a match: column i of its left row, or of its
// right row when right is set.
type colRef struct {
	i     int
	right bool
}

func (c colRef) of(l, r Row) Value {
	if c.right {
		return r[c.i]
	}
	return l[c.i]
}

// leftCols names the columns idx of a left row.
func leftCols(idx []int) []colRef {
	cols := make([]colRef, len(idx))
	for k, i := range idx {
		cols[k] = colRef{i: i}
	}
	return cols
}

// hashKey hashes the key columns cols of the match of l and r, as
// hashCols hashes the same cells of one row.
func hashKey(cols []colRef, l, r Row) uint64 {
	h := uint64(hash64.Offset)
	for _, c := range cols {
		h = mixValue(h, c.of(l, r))
	}
	return h
}

// aggPass is one grouping pass: it feeds every match to a Cube keyed on
// the key columns, aggregating val with f. Without a build table each
// left row is a match on its own; with one, each left row joined with
// every right row of equal join key is.
type aggPass struct {
	left    []Row
	lOn     []int      // left join columns
	build   *joinTable // right side; nil: no join
	key     []colRef
	val     colRef // val.i < 0: no accumulator (δ)
	f       agg.Func
	resolve NumericResolver
}

// plainPass is the pass of γ or δ over r: group on gIdx, aggregate vIdx.
func (r *Relation) plainPass(gIdx []int, vIdx int, f agg.Func, resolve NumericResolver) *aggPass {
	return &aggPass{left: r.Rows, key: leftCols(gIdx), val: colRef{i: vIdx}, f: f, resolve: resolve}
}

// matches calls fn for every match of the left rows lo..hi-1, in joined
// order.
func (p *aggPass) matches(lo, hi int, fn func(l, r int32, lrow, rrow Row)) {
	if p.build != nil {
		p.build.probe(p.left, p.lOn, lo, hi, fn)
		return
	}
	for i := lo; i < hi; i++ {
		fn(int32(i), -1, p.left[i], nil)
	}
}

// add feeds the match (l, r) of lrow and rrow, whose key hashes to h, to
// cb.
func (p *aggPass) add(cb *Cube, lrow, rrow Row, h uint64, l, r int32) {
	j := cb.add(lrow, rrow, h, l, r)
	if p.val.i >= 0 {
		cb.feed(j, p.val.of(lrow, rrow))
	}
}

// cube returns the cube of a pass that feeds it m matches. γ's cube packs
// its keys and grows with its cells, which are typically far fewer than
// the matches. δ opens a cell for most rows and returns each cell's
// first row, so its cube is sized for all m up front and finds keys in
// the rows themselves instead of copying them.
func (p *aggPass) cube(m int) *Cube {
	if p.f != nil {
		return newCube(p.key, p.f, p.resolve, 0)
	}
	cb := newCube(p.key, nil, nil, m)
	cb.rows = p.left
	return cb
}

// match is one pass-1 match: its left and right rows and its key hash.
type match struct {
	h    uint64
	l, r int32
}

// run feeds every match and returns the cubes that hold the cells: one,
// or one per hash partition, each listing its cells in first-seen order.
func (p *aggPass) run() []*Cube {
	n := len(p.left)
	nw := groupWorkers(n)
	if nw <= 1 {
		cb := p.cube(n)
		p.matches(0, n, func(l, r int32, lrow, rrow Row) {
			p.add(cb, lrow, rrow, hashKey(p.key, lrow, rrow), l, r)
		})
		return []*Cube{cb}
	}

	// Pass 1: probe contiguous chunks of the left rows in parallel, each
	// chunk worker bucketing its matches by the hash partition of their
	// group key, so pass 2 never rescans the whole input.
	chunkParts := make([][][]match, nw)
	inChunks(n, nw, func(w, lo, hi int) {
		// Partitions are sized for an even spread of one match per left
		// row, with an eighth to spare.
		parts := make([][]match, nw)
		for q := range parts {
			parts[q] = make([]match, 0, (hi-lo)/nw+(hi-lo)/(8*nw)+8)
		}
		p.matches(lo, hi, func(l, r int32, lrow, rrow Row) {
			h := hashKey(p.key, lrow, rrow)
			q := int(h % uint64(nw))
			parts[q] = append(parts[q], match{h: h, l: l, r: r})
		})
		chunkParts[w] = parts
	})

	// Pass 2: worker q feeds the matches of hash partition q to its own
	// Cube. Chunk lists concatenate in joined order, so every cell is fed
	// in joined order — as sequentially.
	cubes := make([]*Cube, nw)
	inChunks(nw, nw, func(q, _, _ int) {
		m := 0
		for _, parts := range chunkParts {
			if parts != nil {
				m += len(parts[q])
			}
		}
		cb := p.cube(m)
		for _, parts := range chunkParts {
			if parts == nil {
				continue
			}
			for _, mt := range parts[q] {
				lrow := p.left[mt.l]
				var rrow Row
				if mt.r >= 0 {
					rrow = p.build.rows[mt.r]
				}
				p.add(cb, lrow, rrow, mt.h, mt.l, mt.r)
			}
		}
		cubes[q] = cb
	})
	return cubes
}

// inChunks runs fn(w, lo, hi) concurrently on each non-empty chunk w of
// nw contiguous chunks of 0..n-1 and waits for all of them.
func inChunks(n, nw int, fn func(w, lo, hi int)) {
	var wg sync.WaitGroup
	chunk := (n + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, lo, hi)
		}()
	}
	wg.Wait()
}

// eachCell calls fn for every cell of the cubes of one pass in
// first-seen order. Every partition lists its cells in first-seen order,
// so repeatedly taking the head opened by the earliest match restores
// the sequential order.
func eachCell(cubes []*Cube, fn func(cb *Cube, j int)) {
	next := make([]int, len(cubes))
	for {
		best := -1
		for q, cb := range cubes {
			if next[q] < len(cb.cells) && (best < 0 || cb.cells[next[q]].before(&cubes[best].cells[next[best]])) {
				best = q
			}
		}
		if best < 0 {
			return
		}
		fn(cubes[best], next[best])
		next[best]++
	}
}

// aggRows returns the γ output rows of a pass's cubes in first-seen
// order, carved from one cell block; cells without an aggregate are
// dropped.
func aggRows(cubes []*Cube) []Row {
	total := 0
	for _, cb := range cubes {
		total += cb.Len()
	}
	w := cubes[0].width + 1
	block := make([]Value, w*total)
	rows := make([]Row, 0, total)
	eachCell(cubes, func(cb *Cube, j int) {
		if nr := block[:w:w]; cb.fill(j, nr) {
			rows = append(rows, nr)
			block = block[w:]
		}
	})
	return rows
}

// probeParallel probes contiguous chunks of the left rows against the
// build table concurrently and concatenates the per-chunk outputs in
// chunk order. It returns nil when the probe side is too small.
func probeParallel(left []Row, lIdx []int, build *joinTable, keepRight []int, width int) []Row {
	n := len(left)
	nw := groupWorkers(n)
	if nw <= 1 {
		return nil
	}
	parts := make([][]Row, nw)
	inChunks(n, nw, func(w, lo, hi int) {
		parts[w] = joinRows(left[lo:hi], lIdx, build, keepRight, width)
	})
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
