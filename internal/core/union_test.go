package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/bgp"
	"rdfcube/internal/dict"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
)

// TestUnionEqualsFilterRandom: Definition 2's union construction and the
// production Σ-filter evaluation agree on random instances and random
// restrictions.
func TestUnionEqualsFilterRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 20; trial++ {
		nDims := 1 + rng.Intn(3)
		st := randomInstance(rng, 20+rng.Intn(40), nDims)
		q := randomQuery(t, nDims, agg.Count)
		restr := map[string][]rdf.Term{}
		for dIdx := 0; dIdx < nDims; dIdx++ {
			if rng.Intn(2) == 0 {
				continue
			}
			var vals []rdf.Term
			for v := 0; v < 7; v++ {
				if rng.Intn(3) == 0 {
					vals = append(vals, rdf.NewInt(int64(v)))
				}
			}
			if len(vals) == 0 {
				vals = []rdf.Term{rdf.NewInt(int64(rng.Intn(7)))}
			}
			restr[fmt.Sprintf("d%d", dIdx)] = vals
		}
		var diced *Query
		var err error
		if len(restr) == 0 {
			diced = q
		} else {
			diced, err = Dice(q, restr)
			if err != nil {
				t.Fatal(err)
			}
		}
		ev := NewEvaluator(st)
		filter, err := ev.EvalClassifier(diced)
		if err != nil {
			t.Fatal(err)
		}
		union, err := classifierUnion(ev, diced)
		if err != nil {
			t.Fatal(err)
		}
		filter.Sort()
		union.Sort()
		if !algebra.Equal(filter, union) {
			t.Fatalf("trial %d: union vs filter classifier mismatch\n filter: %v\n union: %v",
				trial, filter.Rows, union.Rows)
		}

		// End-to-end answers agree too.
		a1, err := ev.Answer(diced)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := answerUnion(ev, diced)
		if err != nil {
			t.Fatal(err)
		}
		if !algebra.Equal(a1, a2) {
			t.Fatalf("trial %d: answerUnion mismatch", trial)
		}
	}
}

// TestUnionUnknownValue: Σ values absent from the instance contribute
// no rows on either path.
func TestUnionUnknownValue(t *testing.T) {
	rng := rand.New(rand.NewSource(809))
	st := randomInstance(rng, 30, 2)
	q := randomQuery(t, 2, agg.Count)
	diced, err := Dice(q, map[string][]rdf.Term{
		"d0": {rdf.NewInt(999)}, // never generated
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(st)
	union, err := classifierUnion(ev, diced)
	if err != nil {
		t.Fatal(err)
	}
	filter, err := ev.EvalClassifier(diced)
	if err != nil {
		t.Fatal(err)
	}
	if union.Len() != 0 || filter.Len() != 0 {
		t.Fatalf("unknown Σ value matched rows: union=%d filter=%d", union.Len(), filter.Len())
	}
}

// TestUnionOverlapDedup: overlapping combinations must not duplicate
// classifier rows (set semantics across the union).
func TestUnionOverlapDedup(t *testing.T) {
	st := bloggerInstance()
	q := bloggerQuery(t)
	// Dice with duplicated value in the set.
	diced, err := Dice(q, map[string][]rdf.Term{
		"dage": {rdf.NewInt(35), rdf.NewInt(35)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(st)
	union, err := classifierUnion(ev, diced)
	if err != nil {
		t.Fatal(err)
	}
	// user3 and user4: exactly two rows despite the duplicate value.
	if union.Len() != 2 {
		t.Fatalf("union rows = %d, want 2", union.Len())
	}
}

// BenchmarkSigmaFilterVsUnion is the ablation: the filter evaluation is
// one BGP pass; the union path pays one BGP per value combination.
func BenchmarkSigmaFilterVsUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(810))
	st := randomInstance(rng, 2000, 2)
	c := MustNew(
		sparql.MustParseDatalog("c(x, d0, d1) :- x rdf:type :Fact, x :dim0 d0, x :dim1 d1", exPrefixes()),
		sparql.MustParseDatalog("m(x, v) :- x rdf:type :Fact, x :did e, e :score v", exPrefixes()),
		agg.Count)
	var vals0, vals1 []rdf.Term
	for v := 0; v < 4; v++ {
		vals0 = append(vals0, rdf.NewInt(int64(v)))
		vals1 = append(vals1, rdf.NewInt(int64(v)))
	}
	diced, err := Dice(c, map[string][]rdf.Term{"d0": vals0, "d1": vals1})
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(st)
	b.Run("filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ev.EvalClassifier(diced); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := classifierUnion(ev, diced); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// classifierUnion evaluates the extended classifier c_Σ by
// Definition 2's *literal* construction: the union, over every value
// combination (χ1, ..., χn) ∈ Σ(d1) × ... × Σ(dn), of the classifier
// with each restricted dimension substituted by its value.
//
// The production path (EvalClassifier) instead evaluates c once and
// filters rows by Σ — equivalent, and far cheaper when Σ value sets are
// large, since the union path evaluates one BGP per combination. The
// union path is the executable specification the tests below hold the
// production path to.
func classifierUnion(e *Evaluator, q *Query) (*algebra.Relation, error) {
	dims := q.Dims()
	cols := append([]string{q.Root()}, dims...)
	out := algebra.NewRelation(cols...)

	// Unrestricted: a single evaluation.
	if len(q.Sigma) == 0 {
		return e.EvalClassifier(q)
	}

	// Enumerate Σ(d1) × ... × Σ(dn) over the restricted dimensions.
	var restricted []string
	for _, d := range dims {
		if q.Sigma.Restricts(d) {
			restricted = append(restricted, d)
		}
	}
	combos := cartesian(q.Sigma, restricted)
	d := e.inst.Dict()
	seen := map[string]struct{}{}
	for _, combo := range combos {
		// Substitute each restricted dimension with its chosen value.
		sub := q.Classifier.Clone()
		values := map[string]dict.ID{}
		skip := false
		for i, dim := range restricted {
			id, ok := d.Lookup(combo[i])
			if !ok {
				skip = true // value absent from the instance: no bindings
				break
			}
			values[dim] = id
			sub = substitute(sub, dim, combo[i])
		}
		if skip {
			continue
		}
		res, err := bgp.EvalSetCtx(e.context(), e.inst, sub)
		if err != nil {
			return nil, err
		}
		// Re-insert the substituted constants as columns, in dims order.
		colOf := map[string]int{}
		for i, v := range res.Vars {
			colOf[v] = i
		}
		for _, row := range res.Rows {
			nr := make(algebra.Row, 0, len(cols))
			for _, c := range cols {
				if id, ok := values[c]; ok {
					nr = append(nr, algebra.TermV(id))
					continue
				}
				i, ok := colOf[c]
				if !ok {
					return nil, fmt.Errorf("core: union eval lost column %q", c)
				}
				nr = append(nr, algebra.TermV(row[i]))
			}
			// Set semantics across the union: identical rows from
			// overlapping combinations collapse.
			k := rowKeyCells(nr)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out.Append(nr)
		}
	}
	return out, nil
}

// rowKeyCells encodes a row of term cells for dedup.
func rowKeyCells(row algebra.Row) string {
	b := make([]byte, 0, len(row)*8)
	for _, v := range row {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(uint64(v.ID)>>s))
		}
	}
	return string(b)
}

// cartesian enumerates Σ(d1) × ... × Σ(dn) for the listed dimensions.
func cartesian(sigma Sigma, dims []string) [][]rdf.Term {
	combos := [][]rdf.Term{{}}
	for _, d := range dims {
		var next [][]rdf.Term
		for _, prefix := range combos {
			for _, v := range sigma[d] {
				combo := make([]rdf.Term, len(prefix), len(prefix)+1)
				copy(combo, prefix)
				next = append(next, append(combo, v))
			}
		}
		combos = next
	}
	return combos
}

// answerUnion answers q via the union-based classifier — the executable
// form of Definition 2's semantics ("an extended analytical query can be
// seen as a union of standard AnQs").
func answerUnion(e *Evaluator, q *Query) (*algebra.Relation, error) {
	c, err := classifierUnion(e, q)
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
	colsPres := append([]string{root}, q.Dims()...)
	colsPres = append(colsPres, KeyCol, q.MeasureVar())
	return e.AnswerFromPres(q, joined.Project(colsPres...))
}

// substitute returns a copy of q with variable name replaced by the
// constant term wherever it occurs in the body; the head keeps the
// variable list minus name. Substituting a non-existent variable is a
// no-op on the body.
func substitute(q *sparql.Query, name string, t rdf.Term) *sparql.Query {
	cp := q.Clone()
	var head []string
	for _, v := range cp.Head {
		if v != name {
			head = append(head, v)
		}
	}
	cp.Head = head
	for i, tp := range cp.Patterns {
		if tp.S.Var == name {
			cp.Patterns[i].S = sparql.C(t)
		}
		if tp.P.Var == name {
			cp.Patterns[i].P = sparql.C(t)
		}
		if tp.O.Var == name {
			cp.Patterns[i].O = sparql.C(t)
		}
	}
	return cp
}

func TestSubstitute(t *testing.T) {
	q, err := sparql.ParseDatalog("q(x, d) :- x :p d, x :q d", exPrefixes())
	if err != nil {
		t.Fatal(err)
	}
	v := rdf.NewInt(5)
	sub := substitute(q, "d", v)
	if len(sub.Head) != 1 || sub.Head[0] != "x" {
		t.Errorf("head after substitute = %v", sub.Head)
	}
	for _, tp := range sub.Patterns {
		if tp.O.IsVar() || tp.O.Term != v {
			t.Errorf("object not substituted: %v", tp)
		}
	}
	// Original untouched.
	if q.Patterns[0].O.Var != "d" {
		t.Error("substitute mutated the original query")
	}
}
