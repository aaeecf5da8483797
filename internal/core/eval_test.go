package core

// Edge-case tests for the evaluator beyond the paper examples and the
// randomized property suite.

import (
	"context"
	"math/rand"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/bgp"
	"rdfcube/internal/obs"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

func TestSigmaUnknownValueFiltersAll(t *testing.T) {
	st := bloggerInstance()
	q := bloggerQuery(t)
	sliced, err := Slice(q, "dage", rdf.NewInt(1234)) // not in the data
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(st)
	ansQ, err := ev.Answer(sliced)
	if err != nil {
		t.Fatal(err)
	}
	if ansQ.Len() != 0 {
		t.Fatalf("unknown slice value produced %d cells", ansQ.Len())
	}
}

func TestEmptyClassifierEmptyCube(t *testing.T) {
	st := store.New()
	st.Add(rdf.NewTriple(iri("a"), iri("p"), iri("b"))) // unrelated data
	q := bloggerQuery(t)
	ev := NewEvaluator(st)
	ansQ, err := ev.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if ansQ.Len() != 0 {
		t.Fatalf("cube over unrelated data has %d cells", ansQ.Len())
	}
	pres, err := ev.Pres(q)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Len() != 0 {
		t.Fatalf("pres over unrelated data has %d rows", pres.Len())
	}
}

func TestMeasureKeysUniqueAcrossBag(t *testing.T) {
	rng := rand.New(rand.NewSource(900))
	st := randomInstance(rng, 80, 2)
	q := randomQuery(t, 2, agg.Count)
	ev := NewEvaluator(st)
	mk, err := ev.EvalMeasureKeyed(q)
	if err != nil {
		t.Fatal(err)
	}
	kCol := mk.MustColumn(KeyCol)
	seen := map[uint64]bool{}
	for _, row := range mk.Rows {
		k := row[kCol].Key
		if seen[k] {
			t.Fatalf("duplicate measure key %d", k)
		}
		seen[k] = true
	}
}

func TestPresKeySharedAcrossClassifierRows(t *testing.T) {
	// A fact multi-valued along a dimension repeats in c(I); its measure
	// tuples must keep their keys so δ can undo the duplication.
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	add(iri("x"), rdf.Type, iri("Fact"))
	add(iri("x"), iri("dim0"), rdf.NewInt(1))
	add(iri("x"), iri("dim0"), rdf.NewInt(2))
	add(iri("x"), iri("did"), iri("e1"))
	add(iri("e1"), iri("score"), rdf.NewInt(5))
	q := randomQuery(t, 1, agg.Sum)
	ev := NewEvaluator(st)
	pres, err := ev.Pres(q)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Len() != 2 {
		t.Fatalf("pres rows = %d, want 2", pres.Len())
	}
	kCol := pres.MustColumn(KeyCol)
	if pres.Rows[0][kCol] != pres.Rows[1][kCol] {
		t.Fatal("the same measure tuple must carry the same key in every classifier row")
	}
}

func TestIntermediaryVariableCollision(t *testing.T) {
	// Classifier and measure both use an existential variable "p": the
	// intermediary join must rename rather than conflate them.
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	add(iri("x"), rdf.Type, iri("Fact"))
	add(iri("x"), iri("c1"), iri("mid1"))
	add(iri("mid1"), iri("c2"), rdf.NewInt(1))
	add(iri("x"), iri("m1"), iri("mid2"))
	add(iri("mid2"), iri("m2"), rdf.NewInt(7))
	c := sparql.MustParseDatalog(
		"c(x, d) :- x rdf:type :Fact, x :c1 p, p :c2 d", exPrefixes())
	m := sparql.MustParseDatalog(
		"m(x, v) :- x rdf:type :Fact, x :m1 p, p :m2 v", exPrefixes())
	q, err := New(c, m, agg.Sum)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(st)
	intQ, err := intermediary(ev, q)
	if err != nil {
		t.Fatalf("intermediary with colliding variables: %v", err)
	}
	if intQ.Len() != 1 {
		t.Fatalf("int(Q) rows = %d, want 1", intQ.Len())
	}
	// The classifier's "p" is existential (not a result column), so the
	// measure's "p" needs no rename; its column must bind mid2 (the
	// measure-side entity), untouched by the classifier's use of the name.
	col := intQ.Column("p")
	if col < 0 {
		t.Fatalf("measure variable column missing: %v", intQ.Cols)
	}
	mid2, _ := st.Dict().Lookup(iri("mid2"))
	if intQ.Rows[0][col].ID != mid2 {
		t.Fatal("measure variable bound the wrong entity")
	}
}

func TestDecodeCubeUnknownID(t *testing.T) {
	st := store.New()
	rel := algebra.NewRelation("d", "v")
	rel.Append(algebra.Row{algebra.TermV(4242), algebra.NumV(1)})
	cells := DecodeCube(rel, st.Dict())
	if len(cells) != 1 || cells[0].Dims[0] != "t4242" {
		t.Fatalf("unknown ID rendering = %v", cells)
	}
}

func TestDrillOutMultipleDims(t *testing.T) {
	rng := rand.New(rand.NewSource(901))
	st := randomInstance(rng, 60, 3)
	q := randomQuery(t, 3, agg.Sum)
	ev := NewEvaluator(st)
	pres, err := ev.Pres(q)
	if err != nil {
		t.Fatal(err)
	}
	// Drop two dimensions at once.
	rewritten, err := ev.DrillOutRewrite(q, pres, "d0", "d2")
	if err != nil {
		t.Fatal(err)
	}
	qOut, err := DrillOut(q, "d0", "d2")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ev.Answer(qOut)
	if err != nil {
		t.Fatal(err)
	}
	if !cubesApproxEqual(direct, rewritten) {
		t.Fatal("multi-dimension drill-out rewrite mismatch")
	}
}

func TestCountDistinctEndToEnd(t *testing.T) {
	// countdistinct collapses duplicate measure values per group — the
	// one aggregate where measure-bag duplicates do not matter.
	st := bloggerInstance()
	c := sparql.MustParseDatalog(
		"c(x, dage) :- x rdf:type :Blogger, x :hasAge dage", exPrefixes())
	m := sparql.MustParseDatalog(
		"m(x, vsite) :- x rdf:type :Blogger, x :wrotePost p, p :postedOn vsite", exPrefixes())
	q, err := New(c, m, agg.CountDistinct)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(st)
	ansQ, err := ev.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, cell := range DecodeCube(ansQ, st.Dict()) {
		vals[cell.Dims[0]] = cell.Value
	}
	// user1 (28): sites {s1, s2} → 2; users 3+4 (35): {s2, s3} → 2.
	if vals["28"] != 2 || vals["35"] != 2 {
		t.Fatalf("countdistinct cube = %v", vals)
	}
}

func TestSelfJoinClassifier(t *testing.T) {
	// A classifier whose dimension is reached through a self-referencing
	// property (acquaintedWith from Figure 1).
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	add(iri("u1"), rdf.Type, iri("Blogger"))
	add(iri("u2"), rdf.Type, iri("Blogger"))
	add(iri("u1"), iri("acquaintedWith"), iri("u2"))
	add(iri("u2"), iri("acquaintedWith"), iri("u1"))
	add(iri("u1"), iri("hasAge"), rdf.NewInt(28))
	add(iri("u2"), iri("hasAge"), rdf.NewInt(35))
	add(iri("u1"), iri("score"), rdf.NewInt(10))
	add(iri("u2"), iri("score"), rdf.NewInt(20))
	// Classify each blogger by the age of their acquaintance.
	c := sparql.MustParseDatalog(
		"c(x, dage) :- x rdf:type :Blogger, x :acquaintedWith y, y :hasAge dage", exPrefixes())
	m := sparql.MustParseDatalog("m(x, v) :- x rdf:type :Blogger, x :score v", exPrefixes())
	q, err := New(c, m, agg.Sum)
	if err != nil {
		t.Fatal(err)
	}
	ansQ, err := NewEvaluator(st).Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, cell := range DecodeCube(ansQ, st.Dict()) {
		vals[cell.Dims[0]] = cell.Value
	}
	// u1's acquaintance is 35 → u1's score 10 lands in the 35 cell;
	// u2's acquaintance is 28 → 20 in the 28 cell.
	if vals["35"] != 10 || vals["28"] != 20 {
		t.Fatalf("self-join cube = %v", vals)
	}
}

// intermediary computes int(Q) = c ⋈_x m̄ (Definition 3), where m̄ is the
// set-semantics query with m's body and all of m's body variables in the
// head. Answering never needs it; Equation 1 relates it to pres(Q).
func intermediary(e *Evaluator, q *Query) (*algebra.Relation, error) {
	c, err := e.EvalClassifier(q)
	if err != nil {
		return nil, err
	}
	mbar := q.Measure.Clone()
	root := q.Root()
	// Rename non-root measure variables that collide with classifier
	// columns; the classifier and measure only share the root.
	taken := map[string]bool{}
	for _, col := range c.Cols {
		taken[col] = true
	}
	for _, vname := range mbar.Vars() {
		if vname != root && taken[vname] {
			renameVar(mbar, vname, vname+"_m")
		}
	}
	mbar.Head = mbar.Vars() // all body variables, sorted
	// Keep the root first for readability.
	for i, vname := range mbar.Head {
		if vname == root && i != 0 {
			mbar.Head[0], mbar.Head[i] = mbar.Head[i], mbar.Head[0]
			break
		}
	}
	res, err := bgp.EvalSetCtx(e.context(), e.inst, mbar)
	if err != nil {
		return nil, err
	}
	mrel := resultToRelation(res)
	return c.Join(mrel, []string{root}, []string{root})
}

// renameVar rewrites every occurrence of variable old to new in q's body
// and head.
func renameVar(q *sparql.Query, old, new string) {
	for i := range q.Head {
		if q.Head[i] == old {
			q.Head[i] = new
		}
	}
	for i, tp := range q.Patterns {
		if tp.S.Var == old {
			q.Patterns[i].S = sparql.V(new)
		}
		if tp.P.Var == old {
			q.Patterns[i].P = sparql.V(new)
		}
		if tp.O.Var == old {
			q.Patterns[i].O = sparql.V(new)
		}
	}
}

// TestAnswerCostBytes pins the bytes a direct Answer charges: the two
// BGP results at 8 bytes an ID, as bgp charges them (c before Σ), plus
// only what Answer builds beyond them — the join table with its
// resolved measures and the cube — and no boxed copy of c_Σ or m.
func TestAnswerCostBytes(t *testing.T) {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	for _, f := range []string{"f1", "f2", "f3"} {
		add(iri(f), rdf.Type, iri("Fact"))
	}
	add(iri("f1"), iri("dim0"), rdf.NewInt(1))
	add(iri("f1"), iri("dim0"), rdf.NewInt(2))
	add(iri("f2"), iri("dim0"), rdf.NewInt(1))
	add(iri("f3"), iri("dim0"), rdf.NewInt(3))
	add(iri("f1"), iri("did"), iri("e1"))
	add(iri("f1"), iri("did"), iri("e2"))
	add(iri("f2"), iri("did"), iri("e3"))
	add(iri("e1"), iri("score"), rdf.NewInt(5))
	add(iri("e2"), iri("score"), rdf.NewInt(7))
	add(iri("e3"), iri("score"), rdf.NewInt(5))
	q, err := Dice(randomQuery(t, 1, agg.Sum), map[string][]rdf.Term{"d0": {rdf.NewInt(1), rdf.NewInt(3)}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cost := obs.WithCost(context.Background())
	cube, err := NewEvaluator(st).WithContext(ctx).Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cube.Rows) != 1 || cube.Rows[0][1].Num != 17 {
		t.Fatalf("cube %v, want one cell d0=1 summing 17", cube.Rows)
	}
	// c: (f1,1) (f1,2) (f2,1) (f3,3) before Σ; m: (f1,5) (f1,7) (f2,5).
	bgpBytes := int64(8 * (4*2 + 3*2))
	// Join table: 2 roots and 2 terms, each in 8 slots of 4 bytes, 8
	// bytes a key; a 4-byte chain head a root, a 16-byte number a term;
	// an 8-byte next link and term number a measure row.
	table := int64(4*(8+8) + 8*(2+2) + 4*2 + 16*2 + 8*3)
	// Cube: relation header, two column names, one row of two cells.
	cubeBytes := int64(64 + (16 + 2) + (16 + 1) + 1*(24+2*32))
	if cube.EstimateBytes() != cubeBytes {
		t.Fatalf("cube estimate %d, want %d", cube.EstimateBytes(), cubeBytes)
	}
	if got, want := cost.Snapshot().Bytes, bgpBytes+table+cubeBytes; got != want {
		t.Fatalf("Answer charged %d bytes, want %d (BGP %d + join table %d + cube %d)", got, want, bgpBytes, table, cubeBytes)
	}
}
