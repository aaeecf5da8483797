package core

import (
	"fmt"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/dict"
)

// This file implements Section 3's rewriting algorithms: answering a
// transformed query Q_T from materialized results of the original Q
// instead of re-evaluating classifier and measure on the AnS instance.

// DiceRewrite answers a SLICE or DICE of q by the selection σ_dice over
// the materialized ans(Q) (Definition 5, Proposition 1). diced must have
// been produced by Slice or Dice applied to the query whose answer is
// ansQ; only Σ differs between the two queries, so filtering the cube's
// dimension columns by Σ' yields ans(Q_DICE) exactly.
func (e *Evaluator) DiceRewrite(diced *Query, ansQ *algebra.Relation) (*algebra.Relation, error) {
	dims := diced.Dims()
	if len(ansQ.Cols) != len(dims)+1 {
		return nil, fmt.Errorf("core: ans schema %v does not match dimensions %v", ansQ.Cols, dims)
	}
	for i, d := range dims {
		if ansQ.Cols[i] != d {
			return nil, fmt.Errorf("core: ans schema %v does not match dimensions %v", ansQ.Cols, dims)
		}
	}
	pred, err := e.SigmaFilter(ansQ, dims, diced.Sigma)
	if err != nil {
		return nil, err
	}
	return ansQ.Select(pred), nil
}

// DrillOutRewrite answers Q_DRILL-OUT from pres(Q) — Algorithm 1
// (Proposition 2):
//
//	T ← Π_{root, remaining dims, k, v}(pres(Q))   (bag projection)
//	T ← δ(T)                                      (deduplication)
//	T ← γ_{remaining dims, ⊕(v)}(T)               (group & aggregate)
//
// The δ step is essential: a fact multi-valued along a dropped dimension
// occurs once per dropped value after the projection, and without
// deduplication its measure tuples (identified by the key k) would be
// aggregated several times — the double-counting of Example 5. π and δ
// run as one δ on those columns of pres, which keeps each tuple's first
// pres row without copying it; γ reads only columns δ keyed on.
func (e *Evaluator) DrillOutRewrite(orig *Query, pres *algebra.Relation, drop ...string) (*algebra.Relation, error) {
	if err := checkPresSchema(orig, pres); err != nil {
		return nil, err
	}
	dropped := map[string]bool{}
	for _, d := range drop {
		if !orig.HasDim(d) {
			return nil, fmt.Errorf("core: DRILL-OUT rewrite on %q: not a dimension of %v", d, orig.Dims())
		}
		dropped[d] = true
	}
	var remaining []string
	for _, d := range orig.Dims() {
		if !dropped[d] {
			remaining = append(remaining, d)
		}
	}
	if len(remaining) == 0 {
		return nil, fmt.Errorf("core: DRILL-OUT rewrite cannot remove every dimension")
	}
	v := orig.MeasureVar()
	cols := append([]string{orig.Root()}, remaining...)
	cols = append(cols, KeyCol, v)
	return pres.Dedup(cols...).GroupAggregate(remaining, v, v, orig.Agg, e.ResolveNumeric), nil
}

// DrillInRewrite answers Q_DRILL-IN from pres(Q) plus the AnS instance —
// Algorithm 2 (Proposition 3):
//
//	build q_aux(dvars, d_{n+1})                           (Definition 6)
//	T ← γ_{d1..dn, d_{n+1}, ⊕(v)}(pres(Q) ⋈_{dvars} q_aux(I))
//
// Only the auxiliary query touches the instance; classifier and measure
// are not re-evaluated. The join and γ run as one pass
// (algebra.JoinAggregate): each pres row probes a build table on q_aux,
// in pres order, and every match feeds its cell directly, so the joined
// relation is never built.
func (e *Evaluator) DrillInRewrite(orig *Query, pres *algebra.Relation, newDim string) (*algebra.Relation, error) {
	if err := checkPresSchema(orig, pres); err != nil {
		return nil, err
	}
	aux, err := AuxQuery(orig.Classifier, newDim)
	if err != nil {
		return nil, err
	}
	auxRel, err := e.evalAux(aux)
	if err != nil {
		return nil, err
	}
	dvars := aux.Head[:len(aux.Head)-1] // head is (dvars..., newDim)
	groupCols := append(append([]string(nil), orig.Dims()...), newDim)
	return pres.JoinAggregate(auxRel, dvars, groupCols, orig.MeasureVar(), orig.Agg, e.ResolveNumeric)
}

// NaiveDrillOutFromAns is the incorrect baseline discussed in Section 3.2
// and Example 5: project the dropped dimensions out of ans(Q) and
// re-aggregate the already-aggregated measures with ⊕. For distributive
// functions this silently double-counts facts that are multi-valued along
// a dropped dimension; for non-distributive functions (avg) it is not
// even definable and returns an error. Kept as the foil of
// TestNaiveDrillOutDetectsMultiValued, which shows where it and
// Algorithm 1 disagree.
func NaiveDrillOutFromAns(orig *Query, ansQ *algebra.Relation, drop ...string) (*algebra.Relation, error) {
	if !orig.Agg.Distributive() {
		return nil, fmt.Errorf("core: naive drill-out undefined for non-distributive %s", orig.Agg.Name())
	}
	dropped := map[string]bool{}
	for _, d := range drop {
		dropped[d] = true
	}
	var remaining []string
	for _, d := range orig.Dims() {
		if !dropped[d] {
			remaining = append(remaining, d)
		}
	}
	v := orig.MeasureVar()
	proj := ansQ.Project(append(append([]string(nil), remaining...), v)...)
	// Re-aggregation of aggregates: counts and sums combine by summing;
	// min/max combine by min/max.
	var reagg agg.Func
	switch orig.Agg.Name() {
	case "count", "sum":
		reagg = agg.Sum
	default:
		reagg = orig.Agg
	}
	return proj.GroupAggregate(remaining, v, v, reagg, nil), nil
}

// CubeCell is one decoded row of a cube: dimension terms plus the
// aggregate value. Used by the public API and the printers.
type CubeCell struct {
	Dims  []string
	Value float64
}

// DecodeCube renders a cube relation (dims..., v) with IDs resolved
// through d into human-readable cells, in the relation's row order.
func DecodeCube(rel *algebra.Relation, d *dict.Dictionary) []CubeCell {
	cells := make([]CubeCell, 0, len(rel.Rows))
	for _, row := range rel.Rows {
		cell := CubeCell{}
		for _, val := range row[:len(row)-1] {
			if t, ok := d.Decode(val.ID); ok {
				cell.Dims = append(cell.Dims, t.Value())
			} else {
				cell.Dims = append(cell.Dims, val.String())
			}
		}
		cell.Value = row[len(row)-1].Num
		cells = append(cells, cell)
	}
	return cells
}
