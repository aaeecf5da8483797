package core

// Property-based tests: Propositions 1–3 and Equations (1)/(3) must hold
// on randomly generated instances with multi-valued dimensions,
// heterogeneous facts, and duplicate measure values.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// randomInstance generates a random AnS instance with nDims dimension
// properties. Facts can be multi-valued along dimensions, lack dimension
// values, and carry duplicate measure values.
func randomInstance(rng *rand.Rand, facts, nDims int) *store.Store {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	for f := 0; f < facts; f++ {
		x := iri(fmt.Sprintf("fact%d", f))
		add(x, rdf.Type, iri("Fact"))
		for d := 0; d < nDims; d++ {
			if rng.Float64() < 0.15 {
				continue // heterogeneous: missing dimension
			}
			prop := iri(fmt.Sprintf("dim%d", d))
			add(x, prop, rdf.NewInt(int64(rng.Intn(4))))
			if rng.Float64() < 0.35 {
				add(x, prop, rdf.NewInt(int64(4+rng.Intn(3)))) // second value
			}
		}
		// Measures via an intermediate entity (rooted 2-hop path) so the
		// bag can contain duplicates through distinct embeddings.
		nm := rng.Intn(4)
		for m := 0; m < nm; m++ {
			ev := iri(fmt.Sprintf("ev%d_%d", f, m))
			add(x, iri("did"), ev)
			add(ev, iri("score"), rdf.NewInt(int64(1+rng.Intn(5))))
		}
	}
	return st
}

// randomQuery builds the n-dimensional AnQ over randomInstance data.
func randomQuery(t *testing.T, nDims int, f agg.Func) *Query {
	t.Helper()
	head := "x"
	body := "x rdf:type :Fact"
	for d := 0; d < nDims; d++ {
		head += fmt.Sprintf(", d%d", d)
		body += fmt.Sprintf(", x :dim%d d%d", d, d)
	}
	c := sparql.MustParseDatalog(fmt.Sprintf("c(%s) :- %s", head, body), exPrefixes())
	m := sparql.MustParseDatalog("m(x, v) :- x rdf:type :Fact, x :did e, e :score v", exPrefixes())
	q, err := New(c, m, f)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return q
}

func cubesApproxEqual(a, b *algebra.Relation) bool {
	if a.Len() != b.Len() || len(a.Cols) != len(b.Cols) {
		return false
	}
	key := func(row algebra.Row) string {
		k := ""
		for _, v := range row[:len(row)-1] {
			k += fmt.Sprintf("%d|", v.ID)
		}
		return k
	}
	vals := map[string]float64{}
	for _, row := range a.Rows {
		vals[key(row)] = row[len(row)-1].Num
	}
	for _, row := range b.Rows {
		want, ok := vals[key(row)]
		if !ok {
			return false
		}
		if math.Abs(want-row[len(row)-1].Num) > 1e-9*math.Max(1, math.Abs(want)) {
			return false
		}
	}
	return true
}

// TestProposition1Random: σ_dice(ans(Q)) == ans(dice(Q)) on random data
// and random dices.
func TestProposition1Random(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 25; trial++ {
		nDims := 1 + rng.Intn(3)
		st := randomInstance(rng, 20+rng.Intn(50), nDims)
		q := randomQuery(t, nDims, agg.Count)
		ev := NewEvaluator(st)
		ansQ, err := ev.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		// Random dice on a random subset of dimensions.
		restr := map[string][]rdf.Term{}
		for d := 0; d < nDims; d++ {
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
			restr[fmt.Sprintf("d%d", d)] = vals
		}
		if len(restr) == 0 {
			restr["d0"] = []rdf.Term{rdf.NewInt(int64(rng.Intn(7)))}
		}
		diced, err := Dice(q, restr)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := ev.Answer(diced)
		if err != nil {
			t.Fatal(err)
		}
		rewritten, err := ev.DiceRewrite(diced, ansQ)
		if err != nil {
			t.Fatal(err)
		}
		if !algebra.Equal(direct, rewritten) {
			t.Fatalf("trial %d: Proposition 1 violated\n direct: %v\n rewrite: %v",
				trial, direct.Rows, rewritten.Rows)
		}
	}
}

// TestProposition2Random: Algorithm 1 on pres(Q) == direct evaluation of
// the drilled-out query, for every aggregation function and random drop
// sets.
func TestProposition2Random(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	funcs := []agg.Func{agg.Count, agg.Sum, agg.Avg, agg.Min, agg.Max, agg.CountDistinct}
	for trial := 0; trial < 30; trial++ {
		nDims := 2 + rng.Intn(2)
		st := randomInstance(rng, 20+rng.Intn(40), nDims)
		f := funcs[trial%len(funcs)]
		q := randomQuery(t, nDims, f)
		ev := NewEvaluator(st)
		pres, err := ev.Pres(q)
		if err != nil {
			t.Fatal(err)
		}
		// Drop a random proper subset of dimensions.
		nDrop := 1 + rng.Intn(nDims-1)
		perm := rng.Perm(nDims)
		var drop []string
		for i := 0; i < nDrop; i++ {
			drop = append(drop, fmt.Sprintf("d%d", perm[i]))
		}
		qOut, err := DrillOut(q, drop...)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := ev.Answer(qOut)
		if err != nil {
			t.Fatal(err)
		}
		rewritten, err := ev.DrillOutRewrite(q, pres, drop...)
		if err != nil {
			t.Fatal(err)
		}
		// Column order can differ when dropping interior dimensions;
		// reorder the rewrite onto the direct schema before comparing.
		rewritten = rewritten.Project(direct.Cols...)
		if !cubesApproxEqual(direct, rewritten) {
			t.Fatalf("trial %d (%s, drop %v): Proposition 2 violated\n direct: %v %v\n rewrite: %v %v",
				trial, f.Name(), drop, direct.Cols, direct.Rows, rewritten.Cols, rewritten.Rows)
		}
	}
}

// TestProposition3Random: Algorithm 2 == direct evaluation of the
// drilled-in query, on random instances with a two-hop classifier whose
// intermediate entity carries extra attributes.
func TestProposition3Random(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 25; trial++ {
		st := store.New()
		add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
		nHubs := 3 + rng.Intn(5)
		for h := 0; h < nHubs; h++ {
			hub := iri(fmt.Sprintf("hub%d", h))
			add(hub, iri("label"), rdf.NewInt(int64(h)))
			nb := 1 + rng.Intn(3)
			for b := 0; b < nb; b++ {
				add(hub, iri("tag"), iri(fmt.Sprintf("tag%d", rng.Intn(4))))
			}
		}
		nFacts := 10 + rng.Intn(30)
		for f := 0; f < nFacts; f++ {
			x := iri(fmt.Sprintf("fact%d", f))
			add(x, rdf.Type, iri("Fact"))
			add(x, iri("score"), rdf.NewInt(int64(1+rng.Intn(9))))
			nl := 1 + rng.Intn(2)
			for l := 0; l < nl; l++ {
				add(x, iri("at"), iri(fmt.Sprintf("hub%d", rng.Intn(nHubs))))
			}
		}
		c := sparql.MustParseDatalog(
			"c(x, d1) :- x rdf:type :Fact, x :at h, h :label d1, h :tag d2", exPrefixes())
		m := sparql.MustParseDatalog(
			"m(x, v) :- x rdf:type :Fact, x :score v", exPrefixes())
		q, err := New(c, m, agg.Sum)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(st)
		pres, err := ev.Pres(q)
		if err != nil {
			t.Fatal(err)
		}
		qIn, err := DrillIn(q, "d2")
		if err != nil {
			t.Fatal(err)
		}
		direct, err := ev.Answer(qIn)
		if err != nil {
			t.Fatal(err)
		}
		rewritten, err := ev.DrillInRewrite(q, pres, "d2")
		if err != nil {
			t.Fatal(err)
		}
		if !cubesApproxEqual(direct, rewritten) {
			t.Fatalf("trial %d: Proposition 3 violated\n direct: %v\n rewrite: %v",
				trial, direct.Rows, rewritten.Rows)
		}
	}
}

// TestEquation1Random: π_{x,dims,v}(int(Q)) == π_{x,dims,v}(pres(Q)) as
// sets — pres preserves exactly the embeddings of int.
func TestEquation1Random(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 15; trial++ {
		nDims := 1 + rng.Intn(2)
		st := randomInstance(rng, 15+rng.Intn(30), nDims)
		q := randomQuery(t, nDims, agg.Count)
		ev := NewEvaluator(st)
		pres, err := ev.Pres(q)
		if err != nil {
			t.Fatal(err)
		}
		intQ, err := intermediary(ev, q)
		if err != nil {
			t.Fatal(err)
		}
		cols := append([]string{q.Root()}, q.Dims()...)
		cols = append(cols, q.MeasureVar())
		fromPres := pres.Project(cols...).Dedup()
		fromInt := intQ.Project(cols...).Dedup()
		fromPres.Sort()
		fromInt.Sort()
		if !algebra.Equal(fromPres, fromInt) {
			t.Fatalf("trial %d: Equation (1) violated\n pres: %v\n int: %v",
				trial, fromPres.Rows, fromInt.Rows)
		}
	}
}

// orderedFloats are measure values whose aggregate depends on feed order
// and bit patterns: sums that cancel or round differently in another
// order, −0 against +0 under min and max, and NaN.
var orderedFloats = []float64{1e16, -1e16, 1, 0.1, 0.2, 0.3, math.Copysign(0, -1), 0, math.NaN(), 2.5}

// floatInstance is randomInstance plus float measures drawn from
// orderedFloats for about half of the facts. Their events are interned
// in reverse fact order, so an m_k plan that binds the event before the
// root lists the roots in another order than c.
func floatInstance(rng *rand.Rand, facts, nDims int) *store.Store {
	st := randomInstance(rng, facts, nDims)
	for f := facts - 1; f >= 0; f-- {
		if rng.Intn(2) == 0 {
			continue
		}
		x := iri(fmt.Sprintf("fact%d", f))
		for m := 0; m < 1+rng.Intn(3); m++ {
			ev := iri(fmt.Sprintf("fev%d_%d", f, m))
			st.Add(rdf.NewTriple(ev, iri("score"), rdf.NewFloat(orderedFloats[rng.Intn(len(orderedFloats))])))
			st.Add(rdf.NewTriple(x, iri("did"), ev))
		}
	}
	return st
}

// cubesIdentical reports whether a and b have the same columns and the
// same rows in the same order, cell by cell: kind, term, key and float
// bits, so NaN equals only NaN and −0 differs from +0.
func cubesIdentical(a, b *algebra.Relation) bool {
	if !slices.Equal(a.Cols, b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j, x := range a.Rows[i] {
			y := b.Rows[i][j]
			if x.Kind != y.Kind || x.ID != y.ID || x.Key != y.Key || math.Float64bits(x.Num) != math.Float64bits(y.Num) {
				return false
			}
		}
	}
	return true
}

// refPres is pres(Q) = c ⋈_x m_k rebuilt over decoded rows with a Go
// map: c's rows in order, each followed by its root's m_k rows in m_k's
// order, as root, dims..., k, v.
func refPres(c, mk []refRow) []refRow {
	byRoot := map[string][]refRow{}
	for _, m := range mk {
		byRoot[m.cells[1]] = append(byRoot[m.cells[1]], m)
	}
	var out []refRow
	for _, r := range c {
		for _, m := range byRoot[r.cells[0]] {
			out = append(out, refRow{cells: append(slices.Clone(r.cells), m.cells[0], m.cells[2]), v: m.v})
		}
	}
	return out
}

// checkEquation3 checks Answer, the fused γ(c_Σ ⋈ m_k), against two legs:
// Pres + AnswerFromPres, strictly, and the map-based reference join and
// γ over decoded rows, which shares no code with algebra. It reports
// whether m_k lists its roots in another order than c_Σ.
func checkEquation3(t *testing.T, label string, st *store.Store, q *Query) bool {
	t.Helper()
	ev := NewEvaluator(st)
	got, err := ev.Answer(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	pres, err := ev.Pres(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := ev.AnswerFromPres(q, pres)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !cubesIdentical(got, want) {
		t.Fatalf("%s: Equation (3) fused %v\n pres %v", label, got.Rows, want.Rows)
	}
	c, err := ev.EvalClassifier(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	mk, err := ev.EvalMeasureKeyed(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	dims := make([]int, len(q.Dims()))
	for i := range dims {
		dims[i] = i + 1
	}
	refMatch(t, label+" reference", st, got, refGroup(refPres(refDecode(st, c), refDecode(st, mk)), dims, q.Agg.Name()))
	cRoots, mRoots := firstSeen(c.Rows, 0), firstSeen(mk.Rows, 1)
	notIn := func(in []algebra.Value) func(algebra.Value) bool {
		return func(v algebra.Value) bool { return !slices.Contains(in, v) }
	}
	return !slices.Equal(slices.DeleteFunc(slices.Clone(cRoots), notIn(mRoots)), slices.DeleteFunc(mRoots, notIn(cRoots)))
}

// firstSeen lists the distinct values of column col of rows in
// first-seen order.
func firstSeen(rows []algebra.Row, col int) []algebra.Value {
	var out []algebra.Value
	for _, r := range rows {
		if !slices.Contains(out, r[col]) {
			out = append(out, r[col])
		}
	}
	return out
}

// TestEquation3Random: Answer, which runs Equation (3) as one fused pass
// over the ID rows of c_Σ and m, is byte-identical to
// AnswerFromPres(Pres) — same rows, same order, same float bits — for
// all six aggregates, Σ on one and on two dimensions, a DICE whose value
// set mixes present terms and terms absent from the dictionary,
// multi-valued dimensions, an empty classifier and an empty measure, a
// classifier without dimensions, and a measure whose value is the fact
// itself, with the rewrites' γ sequential and fanned out over 2 and 4
// workers. m(x, x) itself is not an admissible measure (a head variable
// may not repeat), so the last leg binds v to x through a self-loop.
func TestEquation3Random(t *testing.T) {
	defer func() { algebra.GroupWorkers = 0 }()
	funcs := []agg.Func{agg.Count, agg.Sum, agg.Avg, agg.Min, agg.Max, agg.CountDistinct}
	absent := sparql.MustParseDatalog("m(x, v) :- x rdf:type :Fact, x :did e, e :absent v", exPrefixes())
	noDims := sparql.MustParseDatalog("c(x) :- x rdf:type :Fact", exPrefixes())
	itself := sparql.MustParseDatalog("m(x, v) :- x rdf:type :Fact, x :self v", exPrefixes())
	for _, workers := range []int{1, 2, 4} {
		algebra.GroupWorkers = workers
		rng := rand.New(rand.NewSource(505))
		reordered := 0
		for trial := 0; trial < 18; trial++ {
			f := funcs[trial%len(funcs)]
			nDims := 1 + rng.Intn(3)
			facts := 20 + rng.Intn(40)
			st := floatInstance(rng, facts, nDims)
			for x := 0; x < facts; x += 3 {
				fact := iri(fmt.Sprintf("fact%d", x))
				st.Add(rdf.NewTriple(fact, iri("self"), fact))
			}
			q := randomQuery(t, nDims, f)
			label := fmt.Sprintf("workers %d trial %d %s", workers, trial, f.Name())
			vals := func() []rdf.Term {
				return []rdf.Term{rdf.NewInt(int64(rng.Intn(4))), rdf.NewInt(int64(4 + rng.Intn(3)))}
			}
			variants := []*Query{q}
			add := func(v *Query, err error) {
				if err != nil {
					t.Fatal(err)
				}
				variants = append(variants, v)
			}
			add(Dice(q, map[string][]rdf.Term{"d0": vals()}))
			if nDims >= 2 {
				add(Dice(q, map[string][]rdf.Term{"d0": vals(), "d1": vals()}))
			}
			add(Slice(q, "d0", rdf.NewInt(99))) // no fact has it: c_Σ is empty
			add(New(q.Classifier, absent, f))   // no event has :absent: m_k is empty
			// 1 and 5 are in the dictionary, 1000 and :nowhere are not.
			add(Dice(q, map[string][]rdf.Term{"d0": {rdf.NewInt(1), rdf.NewInt(1000), iri("nowhere"), rdf.NewInt(5)}}))
			add(New(noDims, q.Measure, f))
			add(New(q.Classifier, itself, f))
			for i, v := range variants {
				if checkEquation3(t, fmt.Sprintf("%s variant %d Σ %v", label, i, v.Sigma), st, v) {
					reordered++
				}
			}
		}
		if reordered == 0 {
			t.Fatalf("workers %d: m_k always listed its roots in c's order; a fused pass probing m_k would go unseen", workers)
		}
	}
}

// TestSliceIsSingletonDice: SLICE is DICE with a singleton set.
func TestSliceIsSingletonDice(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	st := randomInstance(rng, 40, 2)
	q := randomQuery(t, 2, agg.Count)
	ev := NewEvaluator(st)
	v := rdf.NewInt(2)
	sliced, err := Slice(q, "d0", v)
	if err != nil {
		t.Fatal(err)
	}
	diced, err := Dice(q, map[string][]rdf.Term{"d0": {v}})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := ev.Answer(sliced)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ev.Answer(diced)
	if err != nil {
		t.Fatal(err)
	}
	if !algebra.Equal(a1, a2) {
		t.Fatal("SLICE != singleton DICE")
	}
}

// TestChainedOperations applies a pipeline of transformations (dice then
// drill-out) and cross-checks rewriting against direct evaluation at the
// final step.
func TestChainedOperations(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	st := randomInstance(rng, 60, 3)
	q := randomQuery(t, 3, agg.Sum)
	ev := NewEvaluator(st)

	diced, err := Dice(q, map[string][]rdf.Term{
		"d1": {rdf.NewInt(0), rdf.NewInt(1), rdf.NewInt(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// pres of the diced query supports a subsequent drill-out rewrite.
	presDiced, err := ev.Pres(diced)
	if err != nil {
		t.Fatal(err)
	}
	qOut, err := DrillOut(diced, "d2")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ev.Answer(qOut)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, err := ev.DrillOutRewrite(diced, presDiced, "d2")
	if err != nil {
		t.Fatal(err)
	}
	if !cubesApproxEqual(direct, rewritten) {
		t.Fatal("chained dice→drill-out rewrite mismatch")
	}
}

// TestNaiveDrillOutDetectsMultiValued: with no multi-valued dimensions
// the naive rewrite agrees with Algorithm 1 for every distributive
// aggregate. With facts that carry two values of the dropped dimension
// it double-counts them (Example 5), so it must differ for sum and
// count, yet still agree for max and min, which are idempotent.
func TestNaiveDrillOutDetectsMultiValued(t *testing.T) {
	instance := func(multiValued bool) *store.Store {
		st := store.New()
		add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
		for f := 0; f < 30; f++ {
			x := iri(fmt.Sprintf("fact%d", f))
			add(x, rdf.Type, iri("Fact"))
			add(x, iri("dim0"), rdf.NewInt(int64(f%3)))
			add(x, iri("dim1"), rdf.NewInt(int64(f%5)))
			if multiValued && f%4 == 0 {
				add(x, iri("dim1"), rdf.NewInt(int64(5+f%2)))
			}
			ev := iri(fmt.Sprintf("e%d", f))
			add(x, iri("did"), ev)
			add(ev, iri("score"), rdf.NewInt(int64(f%7+1)))
		}
		return st
	}
	for _, tc := range []struct {
		multiValued bool
		f           agg.Func
		agree       bool
	}{
		{false, agg.Sum, true},
		{false, agg.Count, true},
		{false, agg.Max, true},
		{false, agg.Min, true},
		{true, agg.Sum, false},
		{true, agg.Count, false},
		{true, agg.Max, true},
		{true, agg.Min, true},
	} {
		q := randomQuery(t, 2, tc.f)
		ev := NewEvaluator(instance(tc.multiValued))
		pres, err := ev.Pres(q)
		if err != nil {
			t.Fatal(err)
		}
		ansQ, err := ev.AnswerFromPres(q, pres)
		if err != nil {
			t.Fatal(err)
		}
		correct, err := ev.DrillOutRewrite(q, pres, "d1")
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NaiveDrillOutFromAns(q, ansQ, "d1")
		if err != nil {
			t.Fatal(err)
		}
		if got := cubesApproxEqual(correct, naive); got != tc.agree {
			t.Errorf("multi-valued=%v %s: naive agrees with Algorithm 1 = %v, want %v",
				tc.multiValued, tc.f.Name(), got, tc.agree)
		}
	}
	// Avg: naive is undefined regardless.
	qAvg := randomQuery(t, 2, agg.Avg)
	ansAvg, err := NewEvaluator(instance(true)).Answer(qAvg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NaiveDrillOutFromAns(qAvg, ansAvg, "d1"); err == nil {
		t.Fatal("naive drill-out must be undefined for avg")
	}
}

// TestEmptyMeasureFactsExcluded: facts whose measure bag is empty do not
// contribute cube cells (Definition 1).
func TestEmptyMeasureFactsExcluded(t *testing.T) {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	// Fact with dimensions but no measures.
	add(iri("lonely"), rdf.Type, iri("Fact"))
	add(iri("lonely"), iri("dim0"), rdf.NewInt(9))
	// Fact with everything.
	add(iri("full"), rdf.Type, iri("Fact"))
	add(iri("full"), iri("dim0"), rdf.NewInt(1))
	add(iri("full"), iri("did"), iri("e1"))
	add(iri("e1"), iri("score"), rdf.NewInt(5))
	q := randomQuery(t, 1, agg.Count)
	ev := NewEvaluator(st)
	ansQ, err := ev.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if ansQ.Len() != 1 {
		t.Fatalf("cube has %d cells, want 1 (empty-measure fact excluded)", ansQ.Len())
	}
	cells := DecodeCube(ansQ, st.Dict())
	if cells[0].Dims[0] != "1" {
		t.Fatalf("wrong surviving cell: %v", cells[0])
	}
}
