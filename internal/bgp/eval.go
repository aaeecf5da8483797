// Package bgp evaluates basic graph pattern queries against a triple
// store through a pipeline of physical join operators — index-nested-
// loop probes, sort-merge joins and leapfrog triejoins over the frozen
// store's ordered cursors — chosen per step by a greedy, statistics-
// driven planner (plan.go).
//
// Evaluation is parallel and allocation-lean: the first step's output
// (a pattern's matching range, or a cursor intersection) seeds the
// pipeline, the seeds are partitioned across workers (one per CPU by
// default), and each worker runs the remaining steps over its slice
// with rows carved out of a per-worker chunked arena; worker buffers
// are concatenated at the end. Join ordering uses bound-aware
// cardinality estimates fed by the store's offset directories (exact
// range counts on a frozen store). Wide projections and distinct
// filtering fan out the same way (project.go).
//
// Results are tables of dictionary IDs. Evaluation computes every
// embedding of the body; projection onto the head happens afterwards,
// under either set semantics (distinct rows — the default for classifier
// queries) or bag semantics (all embeddings — required for measure
// queries, Section 2 of the paper).
package bgp

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"rdfcube/internal/dict"
	"rdfcube/internal/hash64"
	"rdfcube/internal/obs"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// Workers overrides the evaluation and projection parallelism; 0 (the
// default) uses runtime.GOMAXPROCS. Exposed for tests and tuning.
var Workers int

// seedsPerWorker is the minimum first-pattern matches per worker before
// evaluation fans out; below it goroutine overhead dominates.
const seedsPerWorker = 512

// cancelCheckRows spaces the cooperative ctx.Err() polls: one check per
// this many rows scanned keeps the poll off the per-row hot path while
// bounding cancellation latency to microseconds of extra work.
const cancelCheckRows = 4096

// Result is a table of variable bindings.
type Result struct {
	// Vars names the columns.
	Vars []string
	// Rows holds one dict.ID per column per row.
	Rows [][]dict.ID
	// Sorted names the variables the rows are lexicographically ordered
	// by, in significance order. Nil when the engine makes no ordering
	// claim (row pipeline, unfrozen stores). Set by the batch engine and
	// propagated through projection, so DISTINCT can run-detect or skip
	// deduplication instead of hashing.
	Sorted []string
	// Strict reports that no two rows agree on all Sorted variables —
	// the rows are distinct tuples over them.
	Strict bool
}

// Len reports the number of rows.
func (r *Result) Len() int { return len(r.Rows) }

// Column returns the index of variable name, or -1.
func (r *Result) Column(name string) int {
	for i, v := range r.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// rowArena hands out fixed-width rows carved from chunked backing
// slices, amortizing one allocation over arenaChunkRows rows. Rows stay
// valid forever (chunks are never reused), so results can reference them
// directly.
type rowArena struct {
	width int
	buf   []dict.ID
}

const arenaChunkRows = 1024

func newRowArena(width int) *rowArena { return &rowArena{width: width} }

func (a *rowArena) newRow() []dict.ID {
	w := a.width
	if w == 0 {
		return nil
	}
	if len(a.buf) < w {
		a.buf = make([]dict.ID, arenaChunkRows*w)
	}
	r := a.buf[:w:w]
	a.buf = a.buf[w:]
	return r
}

// hashIDs hashes a row of IDs (word-wise FNV-1a; collisions are
// verified by callers with idRowsEqual).
func hashIDs(row []dict.ID) uint64 {
	h := uint64(hash64.Offset)
	for _, id := range row {
		h = hash64.Mix(h, uint64(id))
	}
	return h
}

func idRowsEqual(a, b []dict.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Options controls evaluation.
type Options struct {
	// Distinct selects set semantics for the head projection. When false,
	// every embedding contributes a row (bag semantics).
	Distinct bool
	// KeepAllVars retains every body variable instead of projecting onto
	// the head. Used to materialize m̄ (Definition 3) and intermediary
	// results.
	KeepAllVars bool
	// ForceNestedLoop pins every join step to the index-nested-loop
	// operator, bypassing the cursor-based merge and leapfrog joins.
	// The reference path for differential tests and benchmarks of the
	// join engine.
	ForceNestedLoop bool
	// RowPipeline pins the row-at-a-time pipeline (the pre-batch
	// engine) while keeping the cursor-based operators. Baseline for
	// batch-engine benchmarks and a secondary differential reference.
	RowPipeline bool
}

// Eval evaluates q against st under opts.
func Eval(st *store.Store, q *sparql.Query, opts Options) (*Result, error) {
	return EvalCtx(context.Background(), st, q, opts)
}

// EvalCtx evaluates q against st under opts, honoring ctx: cancellation
// and deadlines propagate cooperatively into the seed scan and every
// join worker, which poll ctx.Err() once per cancelCheckRows rows and
// abandon their chunk. A cancelled evaluation returns ctx's error.
func EvalCtx(ctx context.Context, st *store.Store, q *sparql.Query, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	full, err := evalBody(ctx, st, q.Patterns, opts)
	if err != nil {
		return nil, err
	}
	var out *Result
	switch {
	case opts.KeepAllVars && !opts.Distinct:
		out = full
	case opts.KeepAllVars:
		out, err = full.Project(full.Vars, true)
	default:
		out, err = full.Project(q.Head, opts.Distinct)
	}
	if err != nil {
		return nil, err
	}
	// Rows produced is the query's final row count — after projection
	// and DISTINCT — so it is invariant across engines (the cost
	// differential tests pin this). Bytes is the materialized footprint
	// of those rows at 8 bytes per dictionary ID.
	if cost := obs.CostFromContext(ctx); cost != nil {
		cost.AddRowsProduced(int64(out.Len()))
		cost.AddBytes(int64(out.Len()) * int64(len(out.Vars)) * 8)
	}
	return out, nil
}

// EvalSet evaluates q with set semantics projected on the head — the
// default semantics of the paper's BGPs.
func EvalSet(st *store.Store, q *sparql.Query) (*Result, error) {
	return Eval(st, q, Options{Distinct: true})
}

// EvalSetCtx is EvalSet with cooperative ctx cancellation.
func EvalSetCtx(ctx context.Context, st *store.Store, q *sparql.Query) (*Result, error) {
	return EvalCtx(ctx, st, q, Options{Distinct: true})
}

// EvalBag evaluates q with bag semantics projected on the head — the
// semantics of measure queries.
func EvalBag(st *store.Store, q *sparql.Query) (*Result, error) {
	return Eval(st, q, Options{})
}

// EvalBagCtx is EvalBag with cooperative ctx cancellation.
func EvalBagCtx(ctx context.Context, st *store.Store, q *sparql.Query) (*Result, error) {
	return EvalCtx(ctx, st, q, Options{})
}

// evalBody computes all embeddings of the body patterns. The returned
// result has one column per body variable. On a frozen store the batch
// engine (batch.go) runs by default; ForceNestedLoop and RowPipeline
// pin the row-at-a-time pipeline below (ForceNestedLoop additionally
// downgrades every step to a nested probe, including stream steps).
func evalBody(ctx context.Context, st *store.Store, patterns []sparql.TriplePattern, opts Options) (res *Result, err error) {
	if len(patterns) == 0 {
		return &Result{}, nil
	}
	ctx, span := obs.StartSpan(ctx, "bgp.eval")
	if span != nil {
		span.AttrInt("patterns", int64(len(patterns)))
		defer func() {
			if res != nil {
				span.AddRows(int64(len(res.Rows)))
			}
			span.End()
		}()
	}
	compiled, vars, err := compile(st, patterns)
	if err != nil {
		return nil, err
	}
	if compiled == nil {
		// A constant in the query is unknown to the dictionary: no triple
		// can match, so the result is empty.
		return &Result{Vars: vars, Rows: nil}, nil
	}
	nv := len(vars)
	steps := planPipeline(st, compiled, nv, opts.ForceNestedLoop)

	// Per-step execution stats exist only under an active trace or cost
	// accumulator; nil stats short-circuit every accounting site below.
	// Both engines account into the same stats, so one deferred flush
	// covers the batch engine's early return path too (res is named).
	cost := obs.CostFromContext(ctx)
	var stats []stepStat
	if span != nil || cost != nil {
		stats = make([]stepStat, len(steps))
		if span != nil {
			defer func() { emitStepSpans(span, steps, vars, stats) }()
		}
		if cost != nil {
			defer func() { flushCost(cost, stats) }()
		}
	}

	if !opts.ForceNestedLoop && !opts.RowPipeline && st.IsFrozen() {
		if span != nil {
			span.Attr("engine", "batch")
		}
		return evalBatch(ctx, st, compiled, vars, steps, stats, span)
	}
	if span != nil {
		span.Attr("engine", "rows")
	}

	// Stage 0: materialize the first step's output as seed rows — the
	// first pattern's matching range, or the sorted intersection of a
	// cursor group (which seeds the pipeline already ordered by the
	// group's join variable).
	zeroRow := make([]dict.ID, nv)
	bound0 := make([]bool, nv)
	seedArena := newRowArena(nv)
	var seeds [][]dict.ID
	first := steps[0]
	var seedStart time.Time
	if stats != nil {
		seedStart = time.Now()
	}
	seedScanned := 0
	if first.kind == opNested {
		fp := &compiled[first.pats[0]]
		pat0, checks0 := fp.instantiate(zeroRow, bound0)
		if st.IsFrozen() {
			seeds = make([][]dict.ID, 0, st.Count(pat0)) // exact, O(log n)
		}
		st.ForEach(pat0, func(t store.IDTriple) bool {
			seedScanned++
			if seedScanned&(cancelCheckRows-1) == 0 && ctx.Err() != nil {
				return false
			}
			if !fp.accepts(t, zeroRow, bound0, checks0) {
				return true
			}
			nr := seedArena.newRow()
			fp.bind(t, nr)
			seeds = append(seeds, nr)
			return true
		})
	} else {
		cursors := make([]store.Cursor, len(first.pats))
		if openGroupCursors(st, compiled, first, zeroRow, bound0, cursors) {
			emit := func(key dict.ID) {
				nr := seedArena.newRow() // arena rows start zeroed
				nr[first.joinVar] = key
				seeds = append(seeds, nr)
			}
			if first.kind == opMerge {
				mergeJoin(&cursors[0], &cursors[1], emit)
			} else {
				leapfrogJoin(cursors, emit)
			}
			if stats != nil {
				stats[0].addCursorCounts(cursors)
			}
		}
	}
	if stats != nil {
		stats[0].busyNs.Add(time.Since(seedStart).Nanoseconds())
		stats[0].rows.Add(int64(len(seeds)))
		stats[0].scanned.Add(int64(seedScanned))
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rest := steps[1:]
	if len(rest) == 0 || len(seeds) == 0 {
		return &Result{Vars: vars, Rows: seeds}, nil
	}

	// The bound-variable state entering each join step depends only on
	// the plan, so the per-step states are computed once and shared
	// read-only by every worker.
	boundStages := make([][]bool, len(rest))
	cur := make([]bool, nv)
	markStepBound(compiled, first, cur)
	for k, stp := range rest {
		boundStages[k] = append([]bool(nil), cur...)
		markStepBound(compiled, stp, cur)
	}

	// An explicit Workers setting is honored as-is (tests, tuning); the
	// default caps fan-out so each worker gets a meaningful seed slice.
	nw := Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
		if max := len(seeds) / seedsPerWorker; nw > max {
			nw = max
		}
	}
	if nw > len(seeds) {
		nw = len(seeds)
	}
	if nw <= 1 {
		rows := joinChunk(ctx, st, compiled, rest, boundStages, seeds, seedArena, stats)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &Result{Vars: vars, Rows: rows}, nil
	}

	// Partition the seeds into contiguous chunks, one worker each, with
	// per-worker arenas and result buffers; concatenation preserves seed
	// order, keeping output deterministic for a given plan.
	parts := make([][][]dict.ID, nw)
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
			parts[w] = joinChunk(ctx, st, compiled, rest, boundStages, seeds[lo:hi], newRowArena(nv), stats)
		}(w, lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	rows := make([][]dict.ID, 0, total)
	for _, p := range parts {
		rows = append(rows, p...)
	}
	return &Result{Vars: vars, Rows: rows}, nil
}

// markStepBound records the variables a step binds.
func markStepBound(compiled []compiledPattern, stp planStep, bound []bool) {
	for _, pi := range stp.pats {
		compiled[pi].markBound(bound)
	}
}

// joinChunk runs the remaining pipeline steps over one slice of seed
// rows: nested-loop probes per pattern, and per-row cursor
// intersections for merge/leapfrog groups. New rows come from the
// arena; the input rows are never mutated. Cancellation is polled once
// per cancelCheckRows scanned rows; a cancelled chunk returns its
// partial output and the caller discards it after checking ctx.
//
// stats, when non-nil, receives per-step execution counts (indexed
// stats[k+1] — slot 0 is the seed step). Accounting accumulates in
// plain locals and flushes into the shared atomics once per step, so
// tracing adds nothing to the per-row path beyond the local bumps; a
// cancelled chunk flushes what it has before bailing.
func joinChunk(ctx context.Context, st *store.Store, compiled []compiledPattern, rest []planStep, boundStages [][]bool, current [][]dict.ID, ar *rowArena, stats []stepStat) [][]dict.ID {
	var cursors []store.Cursor // reused across rows and steps
	scanned := 0
	cancelled := func() bool {
		scanned++
		return scanned&(cancelCheckRows-1) == 0 && ctx.Err() != nil
	}
	for k, stp := range rest {
		bound := boundStages[k]
		next := make([][]dict.ID, 0, len(current))
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
			ss.rows.Add(int64(len(next)))
			ss.scanned.Add(int64(scanned - scannedBefore))
			ss.seeks.Add(stepSeeks)
			ss.nexts.Add(stepNexts)
		}
		if stp.kind == opNested || stp.kind == opStream {
			// Stream steps are a batch-engine specialization of the
			// nested probe; the row pipeline executes them as such.
			cp := &compiled[stp.pats[0]]
			for _, row := range current {
				pat, checks := cp.instantiate(row, bound)
				abort := false
				st.ForEach(pat, func(t store.IDTriple) bool {
					if cancelled() {
						abort = true
						return false
					}
					if !cp.accepts(t, row, bound, checks) {
						return true
					}
					nr := ar.newRow()
					copy(nr, row)
					cp.bind(t, nr)
					next = append(next, nr)
					return true
				})
				if abort {
					flush()
					return next
				}
			}
		} else {
			if cap(cursors) < len(stp.pats) {
				cursors = make([]store.Cursor, len(stp.pats))
			}
			cs := cursors[:len(stp.pats)]
			for _, row := range current {
				if cancelled() {
					flush()
					return next
				}
				if !openGroupCursors(st, compiled, stp, row, bound, cs) {
					continue
				}
				emit := func(key dict.ID) {
					nr := ar.newRow()
					copy(nr, row)
					nr[stp.joinVar] = key
					next = append(next, nr)
				}
				if stp.kind == opMerge {
					mergeJoin(&cs[0], &cs[1], emit)
				} else {
					leapfrogJoin(cs, emit)
				}
				if stats != nil {
					for i := range cs {
						s, n := cs[i].Counts()
						stepSeeks += s
						stepNexts += n
					}
				}
			}
		}
		flush()
		current = next
		if len(current) == 0 {
			break
		}
	}
	return current
}

// compiledPattern is a triple pattern with constants resolved to IDs and
// variables resolved to column indexes (-1 means constant position).
type compiledPattern struct {
	constS, constP, constO dict.ID // valid when the var index is -1
	varS, varP, varO       int
}

// compile resolves patterns; it returns (nil, vars, nil) when a constant
// term is absent from the dictionary (empty result).
func compile(st *store.Store, patterns []sparql.TriplePattern) ([]compiledPattern, []string, error) {
	varIndex := map[string]int{}
	var vars []string
	idx := func(name string) int {
		if i, ok := varIndex[name]; ok {
			return i
		}
		i := len(vars)
		varIndex[name] = i
		vars = append(vars, name)
		return i
	}
	d := st.Dict()
	unknown := false
	resolve := func(n sparql.Node) (dict.ID, int) {
		if n.IsVar() {
			return store.Wild, idx(n.Var)
		}
		id, ok := d.Lookup(n.Term)
		if !ok {
			unknown = true
		}
		return id, -1
	}
	out := make([]compiledPattern, len(patterns))
	for i, tp := range patterns {
		var cp compiledPattern
		cp.constS, cp.varS = resolve(tp.S)
		cp.constP, cp.varP = resolve(tp.P)
		cp.constO, cp.varO = resolve(tp.O)
		out[i] = cp
	}
	if unknown {
		return nil, vars, nil
	}
	return out, vars, nil
}

// instantiate builds the store pattern for the current row: constant
// positions use their IDs, bound variables use the row value, unbound
// variables stay Wild. checks flags positions where the same unbound
// variable repeats within the pattern (e.g. x p x) and must be verified
// after matching.
func (cp *compiledPattern) instantiate(row []dict.ID, bound []bool) (store.Pattern, [3]bool) {
	var pat store.Pattern
	var checks [3]bool
	get := func(constID dict.ID, v int) dict.ID {
		if v < 0 {
			return constID
		}
		if bound[v] {
			return row[v]
		}
		return store.Wild
	}
	pat.S = get(cp.constS, cp.varS)
	pat.P = get(cp.constP, cp.varP)
	pat.O = get(cp.constO, cp.varO)
	// Repeated unbound variables inside one pattern need post-checks.
	if cp.varS >= 0 && !bound[cp.varS] {
		if cp.varP == cp.varS {
			checks[1] = true
		}
		if cp.varO == cp.varS {
			checks[2] = true
		}
	}
	if cp.varP >= 0 && !bound[cp.varP] && cp.varO == cp.varP {
		checks[2] = true
	}
	return pat, checks
}

// accepts verifies repeated-variable constraints for a matched triple.
func (cp *compiledPattern) accepts(t store.IDTriple, row []dict.ID, bound []bool, checks [3]bool) bool {
	if checks[1] && t.P != t.S {
		return false
	}
	if checks[2] {
		if cp.varO == cp.varS && t.O != t.S {
			return false
		}
		if cp.varO == cp.varP && t.O != t.P {
			return false
		}
	}
	return true
}

// bind writes the matched triple's values into the row.
func (cp *compiledPattern) bind(t store.IDTriple, row []dict.ID) {
	if cp.varS >= 0 {
		row[cp.varS] = t.S
	}
	if cp.varP >= 0 {
		row[cp.varP] = t.P
	}
	if cp.varO >= 0 {
		row[cp.varO] = t.O
	}
}

// markBound records the pattern's variables as bound.
func (cp *compiledPattern) markBound(bound []bool) {
	if cp.varS >= 0 {
		bound[cp.varS] = true
	}
	if cp.varP >= 0 {
		bound[cp.varP] = true
	}
	if cp.varO >= 0 {
		bound[cp.varO] = true
	}
}

// connected reports whether any of the pattern's variables is bound.
func (cp *compiledPattern) connected(bound []bool) bool {
	return (cp.varS >= 0 && bound[cp.varS]) ||
		(cp.varP >= 0 && bound[cp.varP]) ||
		(cp.varO >= 0 && bound[cp.varO])
}

// boundEstimate estimates how many triples the pattern matches per input
// row, given which variables are already bound: start from the
// constants-only cardinality (exact ranges on a frozen store) and divide
// by the distinct-value count of every bound position — per-predicate
// distinct subjects/objects from the freeze-time stats when the
// predicate is constant, store-wide counts otherwise.
func (cp *compiledPattern) boundEstimate(st *store.Store, bound []bool) float64 {
	pat := store.Pattern{}
	if cp.varS < 0 {
		pat.S = cp.constS
	}
	if cp.varP < 0 {
		pat.P = cp.constP
	}
	if cp.varO < 0 {
		pat.O = cp.constO
	}
	est := st.EstimateCardinality(pat)
	if est == 0 {
		return 0
	}
	pConst := cp.varP < 0
	if cp.varS >= 0 && bound[cp.varS] {
		d := 0
		if pConst {
			d = st.DistinctSubjects(pat.P)
		}
		if d == 0 {
			d = st.DistinctSubjectsAll()
		}
		est /= float64(maxI(d, 1))
	}
	if cp.varO >= 0 && bound[cp.varO] {
		d := 0
		if pConst {
			d = st.DistinctObjects(pat.P)
		}
		if d == 0 {
			d = st.DistinctObjectsAll()
		}
		est /= float64(maxI(d, 1))
	}
	if cp.varP >= 0 && bound[cp.varP] {
		est /= float64(maxI(st.Stats().Predicates, 1))
	}
	return est
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// nBound counts the pattern's already-bound variables.
func (cp *compiledPattern) nBound(bound []bool) int {
	n := 0
	if cp.varS >= 0 && bound[cp.varS] {
		n++
	}
	if cp.varP >= 0 && bound[cp.varP] {
		n++
	}
	if cp.varO >= 0 && bound[cp.varO] {
		n++
	}
	return n
}

// SortRows orders rows lexicographically in place; useful for
// deterministic output and comparisons in tests.
func (r *Result) SortRows() {
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
