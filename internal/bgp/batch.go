package bgp

// Batch-at-a-time execution: the one BGP engine, on every store.
//
// Operators exchange fixed-capacity column-major chunks (batch) instead
// of single rows. The seed stage bulk-copies straight out of the sorted
// permutation columns when it can (store.PatternColumnRange) and falls
// back to the store's iterator — the merged base+delta ranges — when a
// delta overlay is pending. Join steps
// consume and emit batches; the stream operator (plan.go) replaces
// per-row nested probes with one shared cursor per batch — the batch's
// key values are visited in sorted order, the cursor gallops between
// them, and each key's tail run is enumerated once and fanned back out
// in input order.
//
// The pipeline preserves input order everywhere and appends each step's
// bindings in sorted order, so the output obeys the plan-time sort
// property (planSorted): rows are strictly lexicographically ordered by
// the binding order of the variables. DISTINCT projection exploits that
// (project.go) by replacing hash deduplication with run detection or
// skipping it entirely.
//
// Worker fan-out: seed batches are partitioned into contiguous runs,
// each worker executes the remaining steps over its run, and the
// per-worker outputs are concatenated in order — deterministic, and
// order-preserving so the sort property survives.

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"rdfcube/internal/dict"
	"rdfcube/internal/obs"
	"rdfcube/internal/store"
)

// batchRows is the row capacity of one pipeline batch.
const batchRows = 1024

// batch is a column-major chunk of binding rows: cols[j][i] is row i's
// value for variable j. Only the first n rows are live; columns of
// variables not yet bound hold zeroes in seed batches and stale values
// afterwards (never read — a variable is only read once bound).
type batch struct {
	cols [][]dict.ID
	n    int
}

// newBatch allocates a batch with one backing array for all columns.
func newBatch(nv int) *batch {
	backing := make([]dict.ID, nv*batchRows)
	cols := make([][]dict.ID, nv)
	for j := range cols {
		cols[j] = backing[j*batchRows : (j+1)*batchRows : (j+1)*batchRows]
	}
	return &batch{cols: cols}
}

// batchWriter appends rows to a growing batch list.
type batchWriter struct {
	nv  int
	out []*batch
	cur *batch
}

// slot returns the batch and row index the next row lands in.
func (w *batchWriter) slot() (*batch, int) {
	if w.cur == nil || w.cur.n == batchRows {
		w.cur = newBatch(w.nv)
		w.out = append(w.out, w.cur)
	}
	w.cur.n++
	return w.cur, w.cur.n - 1
}

// appendRow copies a full scratch row into the list.
func (w *batchWriter) appendRow(row []dict.ID) {
	b, i := w.slot()
	for j, v := range row {
		b.cols[j][i] = v
	}
}

// rowCount sums the live rows of a batch list.
func rowCount(bs []*batch) int {
	total := 0
	for _, b := range bs {
		total += b.n
	}
	return total
}

// batchesToRows materializes a batch list as arena rows — the Result
// representation the projection and algebra layers consume.
func batchesToRows(bs []*batch, nv int) [][]dict.ID {
	rows := make([][]dict.ID, 0, rowCount(bs))
	ar := newRowArena(nv)
	for _, b := range bs {
		for i := 0; i < b.n; i++ {
			r := ar.newRow()
			for j := 0; j < nv; j++ {
				r[j] = b.cols[j][i]
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// evalBatch runs the batch pipeline: seed stage, worker fan-out over
// contiguous seed-batch runs, ordered concatenation. The result carries
// the plan's sort property.
func evalBatch(ctx context.Context, st *store.Store, compiled []compiledPattern, vars []string, steps []planStep, stats []stepStat, span *obs.Span) (*Result, error) {
	nv := len(vars)
	order, strict := planSorted(compiled, steps, nv)
	sortedNames := make([]string, len(order))
	for i, v := range order {
		sortedNames[i] = vars[v]
	}
	if span != nil {
		span.Attr("sorted", sortedLabel(order, strict, vars))
	}
	mk := func(bs []*batch) *Result {
		return &Result{Vars: vars, Rows: batchesToRows(bs, nv), Sorted: sortedNames, Strict: strict}
	}

	zeroRow := make([]dict.ID, nv)
	bound0 := make([]bool, nv)
	first := steps[0]
	var seedStart time.Time
	if stats != nil {
		seedStart = time.Now()
	}
	seedScanned := 0
	var seeds []*batch
	if first.kind == opNested {
		fp := &compiled[first.pats[0]]
		pat0, checks0 := fp.instantiate(zeroRow, bound0)
		if cr, ok := st.PatternColumnRange(pat0); ok && !checks0[1] && !checks0[2] {
			// Bulk fill: the matching range is contiguous in the sorted
			// permutation, so each free position is one block-wise copy per
			// batch — straight out of heap arrays or decoded from mapped
			// delta blocks, whichever backs the store.
			n := cr.Len()
			seedScanned = n
			var sink []dict.ID // one throwaway buffer for positions with no variable
			dst := func(v int) []dict.ID {
				if v >= 0 {
					return nil // filled from the batch's own column below
				}
				if sink == nil {
					sink = make([]dict.ID, batchRows)
				}
				return sink
			}
			sSink, pSink, oSink := dst(fp.varS), dst(fp.varP), dst(fp.varO)
			for lo := 0; lo < n; lo += batchRows {
				hi := lo + batchRows
				if hi > n {
					hi = n
				}
				if ctx.Err() != nil {
					break
				}
				b := newBatch(nv)
				b.n = hi - lo
				sCol, pCol, oCol := sSink, pSink, oSink
				if fp.varS >= 0 {
					sCol = b.cols[fp.varS]
				}
				if fp.varP >= 0 {
					pCol = b.cols[fp.varP]
				}
				if fp.varO >= 0 {
					oCol = b.cols[fp.varO]
				}
				cr.Fill(lo, sCol[:b.n], pCol[:b.n], oCol[:b.n])
				seeds = append(seeds, b)
			}
		} else {
			w := batchWriter{nv: nv}
			scratch := make([]dict.ID, nv)
			st.ForEach(pat0, func(t store.IDTriple) bool {
				seedScanned++
				if seedScanned&(cancelCheckRows-1) == 0 && ctx.Err() != nil {
					return false
				}
				if !fp.accepts(t, zeroRow, bound0, checks0) {
					return true
				}
				fp.bind(t, scratch)
				w.appendRow(scratch)
				return true
			})
			seeds = w.out
		}
	} else {
		cursors := make([]store.Cursor, len(first.pats))
		if openGroupCursors(st, compiled, first, zeroRow, bound0, cursors) {
			w := batchWriter{nv: nv}
			emit := func(key dict.ID) {
				b, i := w.slot()
				b.cols[first.joinVar][i] = key
			}
			if first.kind == opMerge {
				mergeJoin(&cursors[0], &cursors[1], emit)
			} else {
				leapfrogJoin(cursors, emit)
			}
			seeds = w.out
			if stats != nil {
				stats[0].addCursorCounts(cursors)
			}
		}
	}
	if stats != nil {
		stats[0].busyNs.Add(time.Since(seedStart).Nanoseconds())
		stats[0].rows.Add(int64(rowCount(seeds)))
		stats[0].scanned.Add(int64(seedScanned))
		stats[0].batches.Add(int64(len(seeds)))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rest := steps[1:]
	if len(rest) == 0 || len(seeds) == 0 {
		return mk(seeds), nil
	}

	boundStages := make([][]bool, len(rest))
	cur := make([]bool, nv)
	markStepBound(compiled, first, cur)
	for k, stp := range rest {
		boundStages[k] = append([]bool(nil), cur...)
		markStepBound(compiled, stp, cur)
	}

	totalSeed := rowCount(seeds)
	nw := Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
		if max := totalSeed / seedsPerWorker; nw > max {
			nw = max
		}
	}
	if nw > len(seeds) {
		nw = len(seeds)
	}
	if nw <= 1 {
		out := batchChunk(ctx, st, compiled, nv, rest, boundStages, seeds, stats)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return mk(out), nil
	}

	parts := make([][]*batch, nw)
	var wg sync.WaitGroup
	chunk := (len(seeds) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(seeds) {
			hi = len(seeds)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = batchChunk(ctx, st, compiled, nv, rest, boundStages, seeds[lo:hi], stats)
		}(w, lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []*batch
	for _, p := range parts {
		out = append(out, p...)
	}
	return mk(out), nil
}

// batchChunk runs the remaining pipeline steps over one contiguous run
// of seed batches. New rows go to a fresh batch list per step; the input
// batches are never mutated. Cancellation is polled once per
// cancelCheckRows scanned rows; a cancelled chunk returns its partial
// output and the caller discards it after checking ctx.
//
// stats, when non-nil, receives per-step execution counts (indexed
// stats[k+1] — slot 0 is the seed step). Accounting accumulates in
// plain locals and flushes into the shared atomics once per step, so
// tracing adds nothing to the per-row path beyond the local bumps; a
// cancelled chunk flushes what it has before bailing.
func batchChunk(ctx context.Context, st *store.Store, compiled []compiledPattern, nv int, rest []planStep, boundStages [][]bool, current []*batch, stats []stepStat) []*batch {
	scratch := make([]dict.ID, nv)
	var cursors []store.Cursor
	scanned := 0
	cancelled := func() bool {
		scanned++
		return scanned&(cancelCheckRows-1) == 0 && ctx.Err() != nil
	}
	// Stream-step scratch, reused across batches and steps.
	var order []int
	var mlo, mhi []int32
	var tails []dict.ID
	for k, stp := range rest {
		bound := boundStages[k]
		w := &batchWriter{nv: nv}
		var stepStart time.Time
		scannedBefore := scanned
		var stepSeeks, stepNexts int64
		if stats != nil {
			stepStart = time.Now()
		}
		flush := func() {
			if stats == nil {
				return
			}
			ss := &stats[k+1]
			ss.busyNs.Add(time.Since(stepStart).Nanoseconds())
			ss.rows.Add(int64(rowCount(w.out)))
			ss.scanned.Add(int64(scanned - scannedBefore))
			ss.seeks.Add(stepSeeks)
			ss.nexts.Add(stepNexts)
			ss.batches.Add(int64(len(w.out)))
		}
		switch stp.kind {
		case opNested:
			cp := &compiled[stp.pats[0]]
			for _, b := range current {
				for i := 0; i < b.n; i++ {
					for j := 0; j < nv; j++ {
						scratch[j] = b.cols[j][i]
					}
					pat, checks := cp.instantiate(scratch, bound)
					abort := false
					st.ForEach(pat, func(t store.IDTriple) bool {
						if cancelled() {
							abort = true
							return false
						}
						if !cp.accepts(t, scratch, bound, checks) {
							return true
						}
						cp.bind(t, scratch)
						w.appendRow(scratch)
						return true
					})
					if abort {
						flush()
						return w.out
					}
				}
			}
		case opStream:
			cp := &compiled[stp.pats[0]]
			v := stp.joinVar
			tailPos := -1
			if stp.tail >= 0 {
				switch stp.tail {
				case cp.varS:
					tailPos = 0
				case cp.varP:
					tailPos = 1
				default:
					tailPos = 2
				}
			}
			for _, b := range current {
				n := b.n
				keys := b.cols[v][:n]
				// Visit the batch's keys in sorted order through one
				// shared cursor (Seek only moves forward); a batch that
				// arrives sorted — the common case when v heads the sort
				// prefix — skips the argsort.
				presorted := true
				for i := 1; i < n; i++ {
					if keys[i-1] > keys[i] {
						presorted = false
						break
					}
				}
				order = order[:0]
				for i := 0; i < n; i++ {
					order = append(order, i)
				}
				if !presorted {
					sort.Slice(order, func(a, c int) bool { return keys[order[a]] < keys[order[c]] })
				}
				cur := openStreamCursor(st, cp, stp)
				tails = tails[:0]
				if cap(mlo) < n {
					mlo = make([]int32, batchRows)
					mhi = make([]int32, batchRows)
				}
				havePrev := false
				var prevKey dict.ID
				var lo, hi int32
				abort := false
				for _, idx := range order {
					k := keys[idx]
					if !havePrev || k != prevKey {
						lo = int32(len(tails))
						cur.Seek(k)
						for cur.Valid() && cur.Key() == k {
							if cancelled() {
								abort = true
								break
							}
							switch tailPos {
							case 0:
								tails = append(tails, cur.Triple().S)
							case 1:
								tails = append(tails, cur.Triple().P)
							default:
								// tailPos 2 (O) and the tail-less
								// existence probe, whose strict keys
								// yield at most one entry.
								tails = append(tails, cur.Triple().O)
							}
							cur.Next()
						}
						hi = int32(len(tails))
						prevKey, havePrev = k, true
					}
					if abort {
						break
					}
					mlo[idx], mhi[idx] = lo, hi
				}
				if abort {
					cs, cn := cur.Counts()
					stepSeeks += cs
					stepNexts += cn
					flush()
					return w.out
				}
				// Fan the matches back out in input order, so the step
				// preserves the batch's ordering and appends its tail in
				// ascending order per input row.
				for i := 0; i < n; i++ {
					if mlo[i] == mhi[i] {
						continue
					}
					for j := 0; j < nv; j++ {
						scratch[j] = b.cols[j][i]
					}
					for m := mlo[i]; m < mhi[i]; m++ {
						if stp.tail >= 0 {
							scratch[stp.tail] = tails[m]
						}
						w.appendRow(scratch)
					}
				}
				cs, cn := cur.Counts()
				stepSeeks += cs
				stepNexts += cn
			}
		default: // opMerge, opLeapfrog: cursor intersections
			if cap(cursors) < len(stp.pats) {
				cursors = make([]store.Cursor, len(stp.pats))
			}
			cs := cursors[:len(stp.pats)]
			countCursors := func() {
				if stats == nil {
					return
				}
				for j := range cs {
					s, n := cs[j].Counts()
					stepSeeks += s
					stepNexts += n
				}
			}
			kv := groupKeyVar(compiled, stp, bound)
			if kv >= -1 {
				// Batch-native intersection: the group's cursors depend on
				// at most one bound variable, so the join keys for a given
				// value of it are the same for every row carrying that
				// value. Visit the batch's key column in sorted order
				// (argsort, skipped when it arrives presorted), intersect
				// once per DISTINCT value, and fan the shared key run back
				// out in input order — each row still appends its joins in
				// ascending order, so the sort property is untouched. With
				// no bound variable at all (a deferred cross-product group)
				// one intersection serves the entire chunk.
				var shared []dict.ID
				sharedDone := false
				runGroup := func(row []dict.ID) {
					if openGroupCursors(st, compiled, stp, row, bound, cs) {
						emit := func(key dict.ID) { tails = append(tails, key) }
						if stp.kind == opMerge {
							mergeJoin(&cs[0], &cs[1], emit)
						} else {
							leapfrogJoin(cs, emit)
						}
						countCursors()
					}
				}
				for _, b := range current {
					n := b.n
					if kv < 0 {
						// Row-independent group: one shared key run.
						if !sharedDone {
							tails = tails[:0]
							runGroup(scratch)
							shared = append(shared[:0], tails...)
							sharedDone = true
						}
						for i := 0; i < n; i++ {
							if cancelled() {
								flush()
								return w.out
							}
							for j := 0; j < nv; j++ {
								scratch[j] = b.cols[j][i]
							}
							for _, key := range shared {
								scratch[stp.joinVar] = key
								w.appendRow(scratch)
							}
						}
						continue
					}
					keys := b.cols[kv][:n]
					presorted := true
					for i := 1; i < n; i++ {
						if keys[i-1] > keys[i] {
							presorted = false
							break
						}
					}
					order = order[:0]
					for i := 0; i < n; i++ {
						order = append(order, i)
					}
					if !presorted {
						sort.Slice(order, func(a, c int) bool { return keys[order[a]] < keys[order[c]] })
					}
					if cap(mlo) < n {
						mlo = make([]int32, batchRows)
						mhi = make([]int32, batchRows)
					}
					tails = tails[:0]
					havePrev := false
					var prevKey dict.ID
					var lo, hi int32
					for _, idx := range order {
						k := keys[idx]
						if !havePrev || k != prevKey {
							if cancelled() {
								flush()
								return w.out
							}
							lo = int32(len(tails))
							scratch[kv] = k
							runGroup(scratch)
							hi = int32(len(tails))
							prevKey, havePrev = k, true
						}
						mlo[idx], mhi[idx] = lo, hi
					}
					for i := 0; i < n; i++ {
						if mlo[i] == mhi[i] {
							continue
						}
						for j := 0; j < nv; j++ {
							scratch[j] = b.cols[j][i]
						}
						for m := mlo[i]; m < mhi[i]; m++ {
							scratch[stp.joinVar] = tails[m]
							w.appendRow(scratch)
						}
					}
				}
				break
			}
			// Two or more distinct bound variables parameterize the group:
			// no sharing across rows, intersect per row.
			for _, b := range current {
				for i := 0; i < b.n; i++ {
					if cancelled() {
						flush()
						return w.out
					}
					for j := 0; j < nv; j++ {
						scratch[j] = b.cols[j][i]
					}
					if !openGroupCursors(st, compiled, stp, scratch, bound, cs) {
						continue
					}
					emit := func(key dict.ID) {
						scratch[stp.joinVar] = key
						w.appendRow(scratch)
					}
					if stp.kind == opMerge {
						mergeJoin(&cs[0], &cs[1], emit)
					} else {
						leapfrogJoin(cs, emit)
					}
					countCursors()
				}
			}
		}
		flush()
		current = w.out
		if len(current) == 0 {
			break
		}
	}
	return current
}

// groupKeyVar classifies how a merge/leapfrog step's cursors depend on
// the input row: every non-join position of a group pattern is a
// constant or a bound variable (cursorEligible), so the set of bound
// variables the group references is what parameterizes its
// intersection. Returns the single referenced variable when there is
// exactly one (the batch-native path intersects once per distinct
// value), -1 when the group references none (one intersection serves
// every row), and -2 when two or more distinct bound variables are
// referenced (no sharing — per-row fallback).
func groupKeyVar(compiled []compiledPattern, stp planStep, bound []bool) int {
	kv := -1
	for _, pi := range stp.pats {
		cp := &compiled[pi]
		for _, pv := range [3]int{cp.varS, cp.varP, cp.varO} {
			if pv < 0 || pv == stp.joinVar || !bound[pv] {
				continue
			}
			if kv >= 0 && kv != pv {
				return -2
			}
			kv = pv
		}
	}
	return kv
}

// openStreamCursor opens the shared per-batch cursor of a stream step:
// the PSO cursor for the (P const, key S, tail O) shape, the generic
// pattern cursor — whose key column is the leading free component —
// for every other eligible shape.
func openStreamCursor(st *store.Store, cp *compiledPattern, stp planStep) store.Cursor {
	if stp.pso {
		return st.NewCursorPSO(cp.constP)
	}
	var pat store.Pattern
	if cp.varS < 0 {
		pat.S = cp.constS
	}
	if cp.varP < 0 {
		pat.P = cp.constP
	}
	if cp.varO < 0 {
		pat.O = cp.constO
	}
	return st.NewCursor(pat)
}
