package core

import (
	"context"
	"fmt"

	"rdfcube/internal/algebra"
	"rdfcube/internal/bgp"
	"rdfcube/internal/dict"
	"rdfcube/internal/obs"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// Evaluator answers analytical queries against a materialized AnS
// instance. It owns the direct-evaluation path (from the instance) and
// the materialization of pres(Q)/ans(Q); the rewriting algorithms in
// rewrite.go consume the materialized relations.
type Evaluator struct {
	inst *store.Store
	ctx  context.Context // nil = background; see WithContext
}

// NewEvaluator returns an evaluator over the given AnS instance.
func NewEvaluator(inst *store.Store) *Evaluator { return &Evaluator{inst: inst} }

// WithContext returns a copy of e whose BGP evaluations honor ctx —
// cancellation and deadlines abort in-flight pattern matching. The
// receiver is untouched, so a long-lived evaluator can be bound to a
// request context without poisoning later uses.
func (e *Evaluator) WithContext(ctx context.Context) *Evaluator {
	cp := *e
	cp.ctx = ctx
	return &cp
}

// context resolves the evaluation context.
func (e *Evaluator) context() context.Context {
	if e.ctx != nil {
		return e.ctx
	}
	return context.Background()
}

// Instance returns the underlying AnS instance store.
func (e *Evaluator) Instance() *store.Store { return e.inst }

// ResolveNumeric interprets a term ID as a number for sum/avg/min/max.
func (e *Evaluator) ResolveNumeric(id dict.ID) (float64, bool) {
	t, ok := e.inst.Dict().Decode(id)
	if !ok {
		return 0, false
	}
	return t.AsFloat()
}

// SigmaFilter compiles Σ into a row predicate over a relation whose
// dimension columns hold term IDs. Values absent from the dictionary can
// never match, so they are dropped at compile time.
func (e *Evaluator) SigmaFilter(rel *algebra.Relation, dims []string, sigma Sigma) (func(algebra.Row) bool, error) {
	if len(sigma) == 0 {
		return func(algebra.Row) bool { return true }, nil
	}
	d := e.inst.Dict()
	type colSet struct {
		col     int
		allowed map[dict.ID]struct{}
	}
	var sets []colSet
	for _, dim := range dims {
		vals, ok := sigma[dim]
		if !ok {
			continue
		}
		col := rel.Column(dim)
		if col < 0 {
			return nil, fmt.Errorf("core: Σ dimension %q not in relation %v", dim, rel.Cols)
		}
		allowed := make(map[dict.ID]struct{}, len(vals))
		for _, t := range vals {
			if id, ok := d.Lookup(t); ok {
				allowed[id] = struct{}{}
			}
		}
		sets = append(sets, colSet{col: col, allowed: allowed})
	}
	return func(row algebra.Row) bool {
		for _, s := range sets {
			if _, ok := s.allowed[row[s.col].ID]; !ok {
				return false
			}
		}
		return true
	}, nil
}

// EvalClassifier evaluates the (extended) classifier c_Σ with set
// semantics. Columns: root, d1..dn, holding term IDs.
func (e *Evaluator) EvalClassifier(q *Query) (*algebra.Relation, error) {
	res, err := bgp.EvalSetCtx(e.context(), e.inst, q.Classifier)
	if err != nil {
		return nil, err
	}
	rel := resultToRelation(res)
	pred, err := e.SigmaFilter(rel, q.Dims(), q.Sigma)
	if err != nil {
		return nil, err
	}
	return rel.Select(pred), nil
}

// EvalMeasureKeyed evaluates the measure m with bag semantics and attaches
// a fresh key to every tuple — the extended measure result m_k of
// Section 3. Columns: KeyCol, root, v.
func (e *Evaluator) EvalMeasureKeyed(q *Query) (*algebra.Relation, error) {
	res, err := bgp.EvalBagCtx(e.context(), e.inst, q.Measure)
	if err != nil {
		return nil, err
	}
	root, v := q.Measure.Head[0], q.Measure.Head[1]
	out := algebra.NewRelation(KeyCol, root, v)
	// newk(): successive integers, one per measure tuple. Rows are carved
	// from one flat cell block to keep the allocation count constant.
	out.Rows = make([]algebra.Row, len(res.Rows))
	cells := make([]algebra.Value, 3*len(res.Rows))
	for i, row := range res.Rows {
		r := cells[3*i : 3*i+3 : 3*i+3]
		r[0] = algebra.KeyV(uint64(i + 1))
		r[1] = algebra.TermV(row[0])
		r[2] = algebra.TermV(row[1])
		out.Rows[i] = r
	}
	return out, nil
}

// Pres materializes pres(Q) = c_Σ(I) ⋈_x m_k(I) (Definition 4).
// Columns: root, d1..dn, KeyCol, v.
func (e *Evaluator) Pres(q *Query) (*algebra.Relation, error) {
	c, err := e.EvalClassifier(q)
	if err != nil {
		return nil, err
	}
	mk, err := e.EvalMeasureKeyed(q)
	if err != nil {
		return nil, err
	}
	root := q.Root()
	joined, err := c.Join(mk, []string{root}, []string{root})
	if err != nil {
		return nil, err
	}
	// Order columns canonically: root, dims..., KeyCol, v.
	cols := append([]string{root}, q.Dims()...)
	cols = append(cols, KeyCol, q.MeasureVar())
	out := joined.Project(cols...)
	obs.CostFromContext(e.context()).AddBytes(out.EstimateBytes())
	return out, nil
}

// Answer computes ans(Q) directly from the instance, via Equation (3):
// ans(Q) = γ_{d1..dn,⊕(v)}(π_{x,d1..dn,v}(pres(Q))).
// Columns: d1..dn, v (the aggregate).
func (e *Evaluator) Answer(q *Query) (*algebra.Relation, error) {
	pres, err := e.Pres(q)
	if err != nil {
		return nil, err
	}
	return e.AnswerFromPres(q, pres)
}

// AnswerFromPres aggregates a materialized pres(Q) into ans(Q)
// (Equation 3). pres must have the canonical column layout produced by
// Pres for the same query.
func (e *Evaluator) AnswerFromPres(q *Query, pres *algebra.Relation) (*algebra.Relation, error) {
	if err := checkPresSchema(q, pres); err != nil {
		return nil, err
	}
	v := q.MeasureVar()
	// π_{x,d1..dn,v} has bag semantics: it keeps one row per pres row,
	// so γ runs on pres itself, reading only the dimension and v columns.
	cube := pres.GroupAggregate(q.Dims(), v, v, q.Agg, e.ResolveNumeric)
	obs.CostFromContext(e.context()).AddBytes(cube.EstimateBytes())
	return cube, nil
}

// checkPresSchema verifies that rel has the canonical pres(Q) layout.
func checkPresSchema(q *Query, rel *algebra.Relation) error {
	want := append([]string{q.Root()}, q.Dims()...)
	want = append(want, KeyCol, q.MeasureVar())
	if len(rel.Cols) != len(want) {
		return fmt.Errorf("core: pres schema %v does not match query (want %v)", rel.Cols, want)
	}
	for i := range want {
		if rel.Cols[i] != want[i] {
			return fmt.Errorf("core: pres schema %v does not match query (want %v)", rel.Cols, want)
		}
	}
	return nil
}

// resultToRelation converts a BGP result into a TermValue relation.
// Rows are carved from one flat cell block: two allocations total
// instead of one per row.
func resultToRelation(res *bgp.Result) *algebra.Relation {
	rel := algebra.NewRelation(res.Vars...)
	rel.Rows = make([]algebra.Row, len(res.Rows))
	w := len(res.Vars)
	cells := make([]algebra.Value, w*len(res.Rows))
	for i, row := range res.Rows {
		r := cells[w*i : w*i+w : w*i+w]
		for j, id := range row {
			r[j] = algebra.TermV(id)
		}
		rel.Rows[i] = r
	}
	return rel
}

// evalAux evaluates an auxiliary query (set semantics) into a relation.
func (e *Evaluator) evalAux(q *sparql.Query) (*algebra.Relation, error) {
	res, err := bgp.EvalSetCtx(e.context(), e.inst, q)
	if err != nil {
		return nil, err
	}
	return resultToRelation(res), nil
}
