// Package bgp evaluates basic graph pattern queries against a triple
// store through a pipeline of physical join operators — index-nested-
// loop probes, sort-merge joins and leapfrog triejoins over the
// store's ordered cursors — chosen per step by a greedy, statistics-
// driven planner (plan.go).
//
// One batch-at-a-time pipeline (batch.go) evaluates every BGP on every
// store: the first step's output (a pattern's matching range, or a
// cursor intersection) seeds the pipeline as columnar batches, the seed
// batches are partitioned across workers (one per CPU by default), and
// each worker runs the remaining steps over its run; worker outputs are
// concatenated in order. Join ordering uses bound-aware
// cardinality estimates fed by the store's offset directories (exact
// range counts). Wide projections and distinct
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
	"sort"

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
	// by, in significance order. Nil when a result makes no ordering
	// claim. Set by the batch pipeline and propagated through
	// projection, so DISTINCT can run-detect or skip deduplication
	// instead of hashing.
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
	// operator, bypassing the cursor-based merge, leapfrog and stream
	// operators. The reference plan for differential tests and
	// benchmarks of the join operators.
	ForceNestedLoop bool
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
	// and DISTINCT — so it is invariant across plans and stores (the cost
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
// result has one column per body variable. The batch pipeline
// (batch.go) runs it; ForceNestedLoop downgrades every step to a nested
// probe.
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
	// accumulator; nil stats short-circuit every accounting site in the
	// pipeline.
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

	return evalBatch(ctx, st, compiled, vars, steps, stats, span)
}

// markStepBound records the variables a step binds.
func markStepBound(compiled []compiledPattern, stp planStep, bound []bool) {
	for _, pi := range stp.pats {
		compiled[pi].markBound(bound)
	}
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
// constants-only cardinality (exact ranges) and divide
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
