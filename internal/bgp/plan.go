package bgp

// Physical planning: evalBody executes a pipeline of join steps, and
// this file decides what each step is. Three operators exist:
//
//	nested    index-nested-loop probe of one pattern per input row —
//	          the always-applicable baseline;
//	merge     sort-merge intersection of two pattern cursors sharing a
//	          join variable;
//	leapfrog  leapfrog-triejoin intersection of k >= 3 cursors sharing
//	          one variable — the star-pattern operator.
//
// The cursor operators apply when the ordering works out: a pattern can
// feed a sorted cursor keyed on variable v exactly when v occupies one
// position and every other position is a constant or an already-bound
// variable — the pattern then instantiates (per input row) to a
// two-bound range of one sorted permutation whose third column is v's
// run, sorted and duplicate-free (see store.Cursor). That is the
// sortedness propagation rule: binding variables upstream turns more
// patterns cursor-eligible downstream, so a star query whose center is
// bound by step 1 can still merge-join its rays in step 2.
//
// Operator choice per step is bound-aware and greedy: a cursor group of
// k eligible patterns replaces k nested-loop steps whenever one exists
// (the intersection visits at most the smallest cursor and seeks over
// the rest, so it never does more work than probing the same patterns
// row by row, and it binds the join variable once instead of growing
// intermediate results); among competing groups the planner prefers
// more patterns, then the smaller bound-aware cardinality estimate.
// Groups disconnected from the bound variables are deferred exactly
// like nested cross products. Everything else keeps the greedy nested
// order: connected patterns first, cheapest bound-aware estimate first.

import (
	"strings"

	"rdfcube/internal/store"
)

// stepKind names a physical join operator.
type stepKind uint8

const (
	opNested stepKind = iota
	opMerge
	opLeapfrog
	// opStream is the streamed probe: a pattern whose key variable is
	// already bound and whose other positions are constants (plus at
	// most one free tail variable) is executed with ONE shared cursor
	// per input batch — the batch's key values are visited in sorted
	// order, the cursor gallops between them, and the tail run is
	// enumerated per key. It returns exactly the nested probe's rows, so
	// stream is a pure execution-strategy tag over the nested plan shape.
	opStream
)

func (k stepKind) String() string {
	switch k {
	case opMerge:
		return "merge"
	case opLeapfrog:
		return "leapfrog"
	case opStream:
		return "stream"
	default:
		return "nested"
	}
}

// planStep is one pipeline stage: a single pattern probed by nested
// loop, a cursor group intersected on joinVar, or a streamed probe
// keyed on joinVar.
type planStep struct {
	kind    stepKind
	pats    []int // indexes into compiled; len 1 for nested/stream
	joinVar int   // the variable a merge/leapfrog step binds; the bound key of a stream step
	tail    int   // stream only: the free tail variable bound per key run, or -1
	pso     bool  // stream only: the shared cursor needs the PSO permutation
}

// planPipeline orders the patterns into executable steps. forceNested
// pins every step to the nested-loop operator (differential testing).
func planPipeline(st *store.Store, compiled []compiledPattern, nVars int, forceNested bool) []planStep {
	n := len(compiled)
	used := make([]bool, n)
	bound := make([]bool, nVars)
	steps := make([]planStep, 0, n)
	remaining := n
	for remaining > 0 {
		// Greedy nested pick (the pre-cursor planOrder logic) — also the
		// cost yardstick a cursor group must beat.
		best := -1
		bestConn := false
		bestEst := 0.0
		for i := range compiled {
			if used[i] {
				continue
			}
			conn := compiled[i].connected(bound)
			est := compiled[i].boundEstimate(st, bound)
			if best < 0 || (conn && !bestConn) || (conn == bestConn && est < bestEst) {
				best, bestConn, bestEst = i, conn, est
			}
		}
		if !forceNested {
			// A group touching the bound variables is a candidate; a
			// disconnected one (a cross-product) is deferred like a
			// disconnected pattern, but once only disconnected work
			// remains the intersection still beats probing the same
			// patterns row by row. The group wins only if its smallest
			// member is at most as selective as the nested pick — its
			// output is bounded by that member, so on ties and better it
			// can't lose; a strictly cheaper outside pattern (say a
			// one-row lookup next to two huge rays) seeds first instead,
			// and the group is reconsidered with more variables bound.
			pats, v, est, ok := bestCursorGroup(st, compiled, used, bound, nVars, true)
			if !ok && !anyConnectedLeft(compiled, used, bound) {
				pats, v, est, ok = bestCursorGroup(st, compiled, used, bound, nVars, false)
			}
			if ok && est <= bestEst {
				kind := opMerge
				if len(pats) >= 3 {
					kind = opLeapfrog
				}
				steps = append(steps, planStep{kind: kind, pats: pats, joinVar: v, tail: -1})
				for _, pi := range pats {
					used[pi] = true
					compiled[pi].markBound(bound)
				}
				remaining -= len(pats)
				continue
			}
		}
		used[best] = true
		stp := planStep{kind: opNested, pats: []int{best}, tail: -1}
		if !forceNested {
			if v, tail, pso, ok := compiled[best].streamEligible(bound); ok {
				stp.kind, stp.joinVar, stp.tail, stp.pso = opStream, v, tail, pso
			}
		}
		steps = append(steps, stp)
		compiled[best].markBound(bound)
		remaining--
	}
	return steps
}

// streamEligible reports whether the pattern can be executed as a
// streamed probe under the current bound set: one bound "key" variable
// v, every other position a compile-time constant, and at most one free
// tail variable — provided a permutation exists whose column order is
// (constants..., v, tail). With two constants any permutation's
// pairRange works (the generic cursor keys on the strict third column);
// with one constant and a tail the feasible shapes are
//
//	P const, key O, tail S -> POS     P const, key S, tail O -> PSO
//	O const, key S, tail P -> OSP     S const, key P, tail O -> SPO
//
// (the PSO case is why the fourth permutation exists). Bound variables
// other than v disqualify — their values differ per row, so no single
// cursor range covers the batch.
func (cp *compiledPattern) streamEligible(bound []bool) (v, tail int, pso, ok bool) {
	v, tail = -1, -1
	nConst := 0
	var constPos, keyPos, tailPos int
	for pos, pv := range [3]int{cp.varS, cp.varP, cp.varO} {
		switch {
		case pv < 0:
			nConst++
			constPos = pos
		case bound[pv]:
			if v >= 0 { // a second bound variable (or v repeated)
				return -1, -1, false, false
			}
			v, keyPos = pv, pos
		default:
			if tail >= 0 { // two free positions (or one free var repeated)
				return -1, -1, false, false
			}
			tail, tailPos = pv, pos
		}
	}
	if v < 0 {
		return -1, -1, false, false
	}
	if tail < 0 {
		return v, -1, false, nConst == 2
	}
	if nConst != 1 || tail == v {
		return -1, -1, false, false
	}
	// One constant, one key, one tail: check shape feasibility.
	const pS, pP, pO = 0, 1, 2
	switch {
	case constPos == pP && keyPos == pO && tailPos == pS: // POS
		return v, tail, false, true
	case constPos == pP && keyPos == pS && tailPos == pO: // PSO
		return v, tail, true, true
	case constPos == pO && keyPos == pS && tailPos == pP: // OSP
		return v, tail, false, true
	case constPos == pS && keyPos == pP && tailPos == pO: // SPO
		return v, tail, false, true
	}
	return -1, -1, false, false
}

// cursorEligible reports whether the pattern can feed a sorted cursor
// keyed on variable v under the current bound set: v occupies exactly
// one position and every other position is a constant or bound.
func (cp *compiledPattern) cursorEligible(v int, bound []bool) bool {
	occ := 0
	for _, pv := range [3]int{cp.varS, cp.varP, cp.varO} {
		switch {
		case pv == v:
			occ++
		case pv >= 0 && !bound[pv]:
			return false
		}
	}
	return occ == 1
}

// anyConnectedLeft reports whether an unused pattern touches a bound
// variable.
func anyConnectedLeft(compiled []compiledPattern, used, bound []bool) bool {
	for i := range compiled {
		if !used[i] && compiled[i].connected(bound) {
			return true
		}
	}
	return false
}

// bestCursorGroup finds the cursor group to intersect next: for each
// unbound variable v, the unused patterns eligible for a v-keyed cursor
// form a candidate group; groups of at least two patterns compete on
// size (more patterns intersect tighter), then on the smallest member's
// bound-aware cardinality estimate, which is also returned (the group's
// output bound, compared against the nested alternative). With
// requireConn, groups touching none of the already-bound variables are
// skipped (the cross-product deferral); before anything is bound every
// group qualifies.
func bestCursorGroup(st *store.Store, compiled []compiledPattern, used, bound []bool, nVars int, requireConn bool) ([]int, int, float64, bool) {
	anyBound := false
	for _, b := range bound {
		if b {
			anyBound = true
			break
		}
	}
	var best []int
	bestVar := -1
	bestEst := 0.0
	for v := 0; v < nVars; v++ {
		if bound[v] {
			continue
		}
		var g []int
		conn := !anyBound
		minEst := -1.0
		for i := range compiled {
			if used[i] || !compiled[i].cursorEligible(v, bound) {
				continue
			}
			g = append(g, i)
			if compiled[i].connected(bound) {
				conn = true
			}
			if e := compiled[i].boundEstimate(st, bound); minEst < 0 || e < minEst {
				minEst = e
			}
		}
		if len(g) < 2 || (requireConn && !conn) {
			continue
		}
		if best == nil || len(g) > len(best) || (len(g) == len(best) && minEst < bestEst) {
			best, bestVar, bestEst = g, v, minEst
		}
	}
	return best, bestVar, bestEst, best != nil
}

// freeVarOrder returns the pattern's unbound variables in the column
// order of the permutation patternRange resolves the instantiated
// pattern to — the order a nested probe emits its bindings in, which is
// what makes the sort property below composable. Repeated variables are
// deduped keeping the first occurrence (rows sorted on (x, x) are
// sorted on x).
func (cp *compiledPattern) freeVarOrder(bound []bool) []int {
	isB := func(pv int) bool { return pv < 0 || bound[pv] }
	sB, pB, oB := isB(cp.varS), isB(cp.varP), isB(cp.varO)
	var posOrder []int // positions 0=S 1=P 2=O, in permutation column order
	switch {
	case sB && pB:
		if !oB {
			posOrder = []int{2} // SPO pair run: free O
		}
	case pB:
		if oB {
			posOrder = []int{0} // POS pair run: free S
		} else {
			posOrder = []int{2, 0} // POS key run: free (O, S)
		}
	case oB:
		if sB {
			posOrder = []int{1} // OSP pair run: free P
		} else {
			posOrder = []int{0, 1} // OSP key run: free (S, P)
		}
	case sB:
		posOrder = []int{1, 2} // SPO key run: free (P, O)
	default:
		posOrder = []int{0, 1, 2} // full SPO scan
	}
	vars := [3]int{cp.varS, cp.varP, cp.varO}
	var out []int
	for _, pos := range posOrder {
		pv := vars[pos]
		dup := false
		for _, x := range out {
			if x == pv {
				dup = true
			}
		}
		if !dup {
			out = append(out, pv)
		}
	}
	return out
}

// planSorted derives the sort property of the batch pipeline's output:
// the variable prefix its rows are lexicographically ordered by, and
// whether that ordering is strict (no two rows share the prefix). Every
// operator emits in input order and appends its own bindings in sorted
// order — a group step its strictly-increasing join keys, a stream step
// its ascending tail run, a nested probe its free variables in the
// probe permutation's column order — so the plan's full binding order
// IS a strict lexicographic order of the result. Ordering-aware
// DISTINCT and GROUP BY (project.go, algebra) run off this property.
func planSorted(compiled []compiledPattern, steps []planStep, nv int) (order []int, strict bool) {
	bound := make([]bool, nv)
	for _, stp := range steps {
		switch stp.kind {
		case opMerge, opLeapfrog:
			order = append(order, stp.joinVar)
		case opStream:
			if stp.tail >= 0 {
				order = append(order, stp.tail)
			}
		default:
			order = append(order, compiled[stp.pats[0]].freeVarOrder(bound)...)
		}
		markStepBound(compiled, stp, bound)
	}
	return order, true
}

// sortedLabel renders a sort property for trace spans:
// "sorted!(x,y)" when strict, "sorted(x,y)" otherwise.
func sortedLabel(order []int, strict bool, vars []string) string {
	names := make([]string, len(order))
	for i, v := range order {
		names[i] = vars[v]
	}
	bang := ""
	if strict {
		bang = "!"
	}
	return "sorted" + bang + "(" + strings.Join(names, ",") + ")"
}
