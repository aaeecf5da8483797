// Package core implements the paper's contribution: analytical queries
// (AnQs) over analytical-schema instances, their extended form with
// dimension restrictions Σ, the four OLAP operations (SLICE, DICE,
// DRILL-OUT, DRILL-IN) as query transformations, and — most importantly —
// the view-based rewriting algorithms that answer a transformed query
// from the materialized results of the original one:
//
//   - σ_dice over ans(Q) for SLICE and DICE (Proposition 1),
//   - Algorithm 1 over pres(Q) for DRILL-OUT (Proposition 2),
//   - Algorithm 2 over pres(Q) plus an auxiliary instance query for
//     DRILL-IN (Proposition 3).
//
// Direct evaluation (Evaluator.Answer) runs Equation 3 on the
// dictionary-ID rows of the classifier and measure results and builds
// Values only for the cube it returns; pres(Q), the relation the
// rewrites read, is built only for views the registry keeps.
package core

import (
	"fmt"
	"strings"

	"rdfcube/internal/agg"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
)

// KeyCol is the reserved column name of the measure key k added by the
// extended measure result m_k (Section 3). Query variables must not use it.
const KeyCol = "_k"

// Sigma is the dimension-restriction function Σ of extended analytical
// queries (Definition 2): it maps a dimension variable to the set of
// values it may take. A missing entry means the dimension ranges over its
// full value set V_i. An empty entry is invalid (Σ maps to non-empty sets).
type Sigma map[string][]rdf.Term

// Clone deep-copies the restriction map.
func (s Sigma) Clone() Sigma {
	if s == nil {
		return nil
	}
	out := make(Sigma, len(s))
	for k, v := range s {
		out[k] = append([]rdf.Term(nil), v...)
	}
	return out
}

// Restricts reports whether dimension dim is restricted.
func (s Sigma) Restricts(dim string) bool {
	_, ok := s[dim]
	return ok
}

// Query is an (extended) analytical query
// Q :- ⟨c_Σ(x, d1..dn), m(x, v), ⊕⟩ (Definitions 1–2).
//
// The classifier has set semantics; the measure has bag semantics. Both
// must be rooted BGPs sharing the same root (fact) variable. A nil or
// empty Sigma yields a plain AnQ.
type Query struct {
	// Classifier produces facts and their dimension values; head is
	// (x, d1, ..., dn).
	Classifier *sparql.Query
	// Measure produces values to aggregate; head is (x, v).
	Measure *sparql.Query
	// Agg is the aggregation function ⊕.
	Agg agg.Func
	// Sigma restricts dimension values (extended AnQ). Dimensions
	// without an entry are unrestricted.
	Sigma Sigma
}

// New constructs and validates an analytical query.
func New(classifier, measure *sparql.Query, f agg.Func) (*Query, error) {
	q := &Query{Classifier: classifier, Measure: measure, Agg: f}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustNew is New that panics on error; for fixtures and examples.
func MustNew(classifier, measure *sparql.Query, f agg.Func) *Query {
	q, err := New(classifier, measure, f)
	if err != nil {
		panic(err)
	}
	return q
}

// Validate checks the structural requirements of Definitions 1–2.
func (q *Query) Validate() error {
	if q.Classifier == nil || q.Measure == nil {
		return fmt.Errorf("core: analytical query needs classifier and measure")
	}
	if q.Agg == nil {
		return fmt.Errorf("core: analytical query needs an aggregation function")
	}
	if err := q.Classifier.Validate(); err != nil {
		return fmt.Errorf("core: classifier: %w", err)
	}
	if err := q.Measure.Validate(); err != nil {
		return fmt.Errorf("core: measure: %w", err)
	}
	if len(q.Measure.Head) != 2 {
		return fmt.Errorf("core: measure head must be (x, v), got %d variables", len(q.Measure.Head))
	}
	if len(q.Classifier.Head) < 1 {
		return fmt.Errorf("core: classifier head must start with the fact variable")
	}
	if q.Classifier.Root() != q.Measure.Root() {
		return fmt.Errorf("core: classifier root %q and measure root %q differ; both queries must be rooted at the same node",
			q.Classifier.Root(), q.Measure.Root())
	}
	if !q.Classifier.IsRooted() {
		return fmt.Errorf("core: classifier is not a rooted BGP")
	}
	if !q.Measure.IsRooted() {
		return fmt.Errorf("core: measure is not a rooted BGP")
	}
	for _, v := range append(append([]string(nil), q.Classifier.Head...), q.Measure.Head...) {
		if v == KeyCol {
			return fmt.Errorf("core: variable name %q is reserved for the measure key", KeyCol)
		}
	}
	mv := q.MeasureVar()
	for _, d := range q.Dims() {
		if d == mv {
			return fmt.Errorf("core: dimension %q collides with the measure variable", d)
		}
	}
	for dim, vals := range q.Sigma {
		if !q.HasDim(dim) {
			return fmt.Errorf("core: Σ restricts %q which is not a dimension of the classifier", dim)
		}
		if len(vals) == 0 {
			return fmt.Errorf("core: Σ(%s) must be a non-empty value set", dim)
		}
	}
	return nil
}

// Root returns the fact variable x.
func (q *Query) Root() string { return q.Classifier.Root() }

// Dims returns the dimension variables d1..dn, in classifier head order.
func (q *Query) Dims() []string {
	if len(q.Classifier.Head) <= 1 {
		return nil
	}
	return q.Classifier.Head[1:]
}

// HasDim reports whether dim is a dimension of q.
func (q *Query) HasDim(dim string) bool {
	for _, d := range q.Dims() {
		if d == dim {
			return true
		}
	}
	return false
}

// MeasureVar returns the measure value variable v.
func (q *Query) MeasureVar() string { return q.Measure.Head[1] }

// Clone deep-copies the query.
func (q *Query) Clone() *Query {
	return &Query{
		Classifier: q.Classifier.Clone(),
		Measure:    q.Measure.Clone(),
		Agg:        q.Agg,
		Sigma:      q.Sigma.Clone(),
	}
}

// String renders the query in the paper's ⟨c, m, ⊕⟩ notation.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("⟨")
	b.WriteString(q.Classifier.String())
	b.WriteString(", ")
	b.WriteString(q.Measure.String())
	b.WriteString(", ")
	b.WriteString(q.Agg.Name())
	b.WriteString("⟩")
	if len(q.Sigma) > 0 {
		b.WriteString(" with Σ{")
		first := true
		for _, d := range q.Dims() {
			vals, ok := q.Sigma[d]
			if !ok {
				continue
			}
			if !first {
				b.WriteString("; ")
			}
			first = false
			fmt.Fprintf(&b, "%s∈%v", d, vals)
		}
		b.WriteString("}")
	}
	return b.String()
}
