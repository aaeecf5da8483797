package core

// Golden tests reproducing the paper's worked examples 1–6: the blogger
// query and its answer and measure bags (Examples 1–2), SLICE and the
// drill-out/drill-in round trip (Example 3), DICE (Example 4), DRILL-OUT
// and its double count (Example 5) and DRILL-IN (Example 6).

import (
	"sort"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

const exNS = "http://example.org/"

func exPrefixes() sparql.Prefixes {
	p := sparql.DefaultPrefixes()
	p[""] = exNS
	return p
}

func iri(local string) rdf.Term { return rdf.NewIRI(exNS + local) }

// addAll inserts triples written as (subject-local, predicate, object).
func addAll(t *testing.T, st *store.Store, triples [][3]rdf.Term) {
	t.Helper()
	for _, tr := range triples {
		if !st.Add(rdf.Triple{S: tr[0], P: tr[1], O: tr[2]}) {
			t.Fatalf("duplicate triple %v", tr)
		}
	}
}

// bloggerInstance builds the Example 1/2 AnS instance: three bloggers
// with ages, cities, posts, and sites such that the classifier answer and
// measure bags match the paper exactly.
func bloggerInstance() *store.Store {
	st := store.New()
	typeT := rdf.Type
	blogger := iri("Blogger")
	hasAge := iri("hasAge")
	livesIn := iri("livesIn")
	wrotePost := iri("wrotePost")
	postedOn := iri("postedOn")

	add := func(s, p, o rdf.Term) { st.Add(rdf.Triple{S: s, P: p, O: o}) }

	u1, u3, u4 := iri("user1"), iri("user3"), iri("user4")
	add(u1, typeT, blogger)
	add(u3, typeT, blogger)
	add(u4, typeT, blogger)
	add(u1, hasAge, rdf.NewInt(28))
	add(u3, hasAge, rdf.NewInt(35))
	add(u4, hasAge, rdf.NewInt(35))
	add(u1, livesIn, iri("Madrid"))
	add(u3, livesIn, iri("NY"))
	add(u4, livesIn, iri("NY"))
	// user1's measure bag must be {|s1, s1, s2|}: three posts, two on s1.
	p1, p2, p3, p4, p5 := iri("post1"), iri("post2"), iri("post3"), iri("post4"), iri("post5")
	s1, s2, s3 := iri("site1"), iri("site2"), iri("site3")
	add(u1, wrotePost, p1)
	add(u1, wrotePost, p2)
	add(u1, wrotePost, p3)
	add(p1, postedOn, s1)
	add(p2, postedOn, s1)
	add(p3, postedOn, s2)
	// user3: {|s2|}; user4: {|s3|}.
	add(u3, wrotePost, p4)
	add(p4, postedOn, s2)
	add(u4, wrotePost, p5)
	add(p5, postedOn, s3)
	return st
}

// bloggerQuery is the Example 1 AnQ: number of sites per (age, city).
func bloggerQuery(t *testing.T) *Query {
	t.Helper()
	c := sparql.MustParseDatalog(
		"c(x, dage, dcity) :- x rdf:type :Blogger, x :hasAge dage, x :livesIn dcity", exPrefixes())
	m := sparql.MustParseDatalog(
		"m(x, vsite) :- x rdf:type :Blogger, x :wrotePost p, p :postedOn vsite", exPrefixes())
	q, err := New(c, m, agg.Count)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return q
}

// decodeCells sorts cube cells for deterministic comparison.
func decodeCells(rel *algebra.Relation, st *store.Store) []CubeCell {
	cells := DecodeCube(rel, st.Dict())
	sort.Slice(cells, func(i, j int) bool {
		for k := range cells[i].Dims {
			if cells[i].Dims[k] != cells[j].Dims[k] {
				return cells[i].Dims[k] < cells[j].Dims[k]
			}
		}
		return cells[i].Value < cells[j].Value
	})
	return cells
}

func wantCells(t *testing.T, got []CubeCell, want []CubeCell) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d cells %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i].Value != want[i].Value || len(got[i].Dims) != len(want[i].Dims) {
			t.Fatalf("cell %d: got %v, want %v", i, got[i], want[i])
		}
		for j := range want[i].Dims {
			if got[i].Dims[j] != want[i].Dims[j] {
				t.Fatalf("cell %d dim %d: got %q, want %q", i, j, got[i].Dims[j], want[i].Dims[j])
			}
		}
	}
}

// TestPaperExample2 checks the Example 2 answer:
// {⟨28, Madrid, 3⟩, ⟨35, NY, 2⟩}.
func TestPaperExample2(t *testing.T) {
	st := bloggerInstance()
	q := bloggerQuery(t)
	ev := NewEvaluator(st)
	ansQ, err := ev.Answer(q)
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	wantCells(t, decodeCells(ansQ, st), []CubeCell{
		{Dims: []string{"28", exNS + "Madrid"}, Value: 3},
		{Dims: []string{"35", exNS + "NY"}, Value: 2},
	})
}

// TestPaperExample2MeasureBags checks the intermediary measure bags
// of Example 2: user1 ↦ {|s1,s1,s2|}, user3 ↦ {|s2|}, user4 ↦ {|s3|}.
func TestPaperExample2MeasureBags(t *testing.T) {
	st := bloggerInstance()
	q := bloggerQuery(t)
	ev := NewEvaluator(st)
	mk, err := ev.EvalMeasureKeyed(q)
	if err != nil {
		t.Fatalf("EvalMeasureKeyed: %v", err)
	}
	if mk.Len() != 5 {
		t.Fatalf("measure bag size = %d, want 5", mk.Len())
	}
	// Keys must be unique 1..5.
	seen := map[uint64]bool{}
	kCol := mk.MustColumn(KeyCol)
	for _, row := range mk.Rows {
		k := row[kCol].Key
		if k < 1 || k > 5 || seen[k] {
			t.Fatalf("bad key %d", k)
		}
		seen[k] = true
	}
	// user1 contributes three tuples.
	rootCol := mk.MustColumn("x")
	u1, _ := st.Dict().Lookup(iri("user1"))
	n := 0
	for _, row := range mk.Rows {
		if row[rootCol].ID == u1 {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("user1 measure multiplicity = %d, want 3", n)
	}
}

// wordCountInstance builds the Example 4 instance: word counts per post,
// with user4 in (28, Madrid) this time.
func wordCountInstance() *store.Store {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.Triple{S: s, P: p, O: o}) }
	blogger := iri("Blogger")
	u1, u3, u4 := iri("user1"), iri("user3"), iri("user4")
	add(u1, rdf.Type, blogger)
	add(u3, rdf.Type, blogger)
	add(u4, rdf.Type, blogger)
	add(u1, iri("hasAge"), rdf.NewInt(28))
	add(u3, iri("hasAge"), rdf.NewInt(35))
	add(u4, iri("hasAge"), rdf.NewInt(28))
	add(u1, iri("livesIn"), iri("Madrid"))
	add(u3, iri("livesIn"), iri("NY"))
	add(u4, iri("livesIn"), iri("Madrid"))
	p1, p2, p3, p4 := iri("post1"), iri("post2"), iri("post3"), iri("post4")
	add(u1, iri("wrotePost"), p1)
	add(u1, iri("wrotePost"), p2)
	add(u3, iri("wrotePost"), p3)
	add(u4, iri("wrotePost"), p4)
	add(p1, iri("hasWordCount"), rdf.NewInt(100))
	add(p2, iri("hasWordCount"), rdf.NewInt(120))
	add(p3, iri("hasWordCount"), rdf.NewInt(570))
	add(p4, iri("hasWordCount"), rdf.NewInt(410))
	return st
}

func wordCountQuery(t *testing.T) *Query {
	t.Helper()
	c := sparql.MustParseDatalog(
		"c(x, dage, dcity) :- x rdf:type :Blogger, x :hasAge dage, x :livesIn dcity", exPrefixes())
	m := sparql.MustParseDatalog(
		"m(x, vwords) :- x rdf:type :Blogger, x :wrotePost p, p :hasWordCount vwords", exPrefixes())
	q, err := New(c, m, agg.Avg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return q
}

// TestPaperExample4 checks the DICE of Example 4: the full answer is
// {⟨28, Madrid, 210⟩, ⟨35, NY, 570⟩}; dicing dage to [20,30] keeps only
// the first cell, and the σ rewriting over ans(Q) agrees with direct
// evaluation (Proposition 1).
func TestPaperExample4(t *testing.T) {
	st := wordCountInstance()
	q := wordCountQuery(t)
	ev := NewEvaluator(st)

	ansQ, err := ev.Answer(q)
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	wantCells(t, decodeCells(ansQ, st), []CubeCell{
		{Dims: []string{"28", exNS + "Madrid"}, Value: 210},
		{Dims: []string{"35", exNS + "NY"}, Value: 570},
	})

	// DICE: dage restricted to {28} (the only value in [20,30]).
	diced, err := Dice(q, map[string][]rdf.Term{"dage": {rdf.NewInt(28)}})
	if err != nil {
		t.Fatalf("Dice: %v", err)
	}
	direct, err := ev.Answer(diced)
	if err != nil {
		t.Fatalf("Answer(diced): %v", err)
	}
	rewritten, err := ev.DiceRewrite(diced, ansQ)
	if err != nil {
		t.Fatalf("DiceRewrite: %v", err)
	}
	wantCells(t, decodeCells(direct, st), []CubeCell{
		{Dims: []string{"28", exNS + "Madrid"}, Value: 210},
	})
	if !algebra.Equal(direct, rewritten) {
		t.Fatalf("Proposition 1 violated: direct %v != rewrite %v", direct.Rows, rewritten.Rows)
	}
}

// TestPaperExample5 reproduces the DRILL-OUT example: a fact x that is
// multi-valued along the dropped dimension dn. Algorithm 1 over pres(Q)
// must count x's measure once; the naive re-aggregation of ans(Q) counts
// it twice.
func TestPaperExample5(t *testing.T) {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.Triple{S: s, P: p, O: o}) }
	thing := iri("Thing")
	d1p, dnp, mp := iri("d1prop"), iri("dnprop"), iri("measureProp")
	x, y := iri("x"), iri("y")
	a1, an, bn := iri("a1"), iri("an"), iri("bn")
	add(x, rdf.Type, thing)
	add(y, rdf.Type, thing)
	add(x, d1p, a1)
	add(y, d1p, a1)
	add(x, dnp, an)
	add(x, dnp, bn) // x is multi-valued along dn
	add(y, dnp, bn)
	add(x, mp, rdf.NewInt(7))  // m1
	add(y, mp, rdf.NewInt(11)) // m2

	c := sparql.MustParseDatalog(
		"c(x, d1, dn) :- x rdf:type :Thing, x :d1prop d1, x :dnprop dn", exPrefixes())
	m := sparql.MustParseDatalog(
		"m(x, v) :- x rdf:type :Thing, x :measureProp v", exPrefixes())
	q, err := New(c, m, agg.Sum)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ev := NewEvaluator(st)

	pres, err := ev.Pres(q)
	if err != nil {
		t.Fatalf("Pres: %v", err)
	}
	// pres(Q) has 3 rows: (x,a1,an,k1,m1), (x,a1,bn,k1,m1), (y,a1,bn,k2,m2).
	if pres.Len() != 3 {
		t.Fatalf("pres size = %d, want 3", pres.Len())
	}

	// Algorithm 1 output: {⟨a1, 7+11⟩}.
	alg1, err := ev.DrillOutRewrite(q, pres, "dn")
	if err != nil {
		t.Fatalf("DrillOutRewrite: %v", err)
	}
	wantCells(t, decodeCells(alg1, st), []CubeCell{
		{Dims: []string{exNS + "a1"}, Value: 18},
	})

	// Direct evaluation of Q_DRILL-OUT agrees (Proposition 2).
	qOut, err := DrillOut(q, "dn")
	if err != nil {
		t.Fatalf("DrillOut: %v", err)
	}
	direct, err := ev.Answer(qOut)
	if err != nil {
		t.Fatalf("Answer(drill-out): %v", err)
	}
	if !algebra.Equal(direct, alg1) {
		t.Fatalf("Proposition 2 violated: direct %v != Algorithm 1 %v", direct.Rows, alg1.Rows)
	}

	// The naive rewrite double-counts m1: ⊕{m1, m1, m2} = 7+7+11 = 25.
	ansQ, err := ev.Answer(q)
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	naive, err := NaiveDrillOutFromAns(q, ansQ, "dn")
	if err != nil {
		t.Fatalf("NaiveDrillOutFromAns: %v", err)
	}
	wantCells(t, decodeCells(naive, st), []CubeCell{
		{Dims: []string{exNS + "a1"}, Value: 25},
	})
}

// videoInstance builds the Figure 3 instance.
func videoInstance() *store.Store {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.Triple{S: s, P: p, O: o}) }
	w1, w2 := iri("website1"), iri("website2")
	v1 := iri("video1")
	add(w1, iri("hasUrl"), iri("URL1"))
	add(w1, iri("supportsBrowser"), iri("firefox"))
	add(w2, iri("hasUrl"), iri("URL2"))
	add(w2, iri("supportsBrowser"), iri("chrome"))
	add(v1, iri("postedOn"), w1)
	add(v1, iri("postedOn"), w2)
	add(v1, rdf.Type, iri("Video"))
	add(v1, iri("viewNum"), rdf.NewInt(42)) // n
	return st
}

func videoQuery(t *testing.T) *Query {
	t.Helper()
	c := sparql.MustParseDatalog(
		"c(x, d2) :- x rdf:type :Video, x :postedOn d1, d1 :hasUrl d2, d1 :supportsBrowser d3", exPrefixes())
	m := sparql.MustParseDatalog(
		"m(x, v) :- x rdf:type :Video, x :viewNum v", exPrefixes())
	q, err := New(c, m, agg.Sum)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return q
}

// TestPaperExample6 reproduces the DRILL-IN example end to end: q_aux
// derivation, the joined table, and the final answer
// {⟨URL1, firefox, n⟩, ⟨URL2, chrome, n⟩}.
func TestPaperExample6(t *testing.T) {
	st := videoInstance()
	q := videoQuery(t)
	ev := NewEvaluator(st)

	// q_aux per Definition 6: the three connected patterns, head (x, d2, d3).
	aux, err := AuxQuery(q.Classifier, "d3")
	if err != nil {
		t.Fatalf("AuxQuery: %v", err)
	}
	if got, want := len(aux.Patterns), 3; got != want {
		t.Fatalf("q_aux has %d patterns, want %d: %s", got, want, aux)
	}
	wantHead := []string{"x", "d2", "d3"}
	if len(aux.Head) != len(wantHead) {
		t.Fatalf("q_aux head %v, want %v", aux.Head, wantHead)
	}
	for i := range wantHead {
		if aux.Head[i] != wantHead[i] {
			t.Fatalf("q_aux head %v, want %v", aux.Head, wantHead)
		}
	}
	// "x rdf:type Video" must NOT be in q_aux (x is distinguished).
	for _, tp := range aux.Patterns {
		if !tp.P.IsVar() && tp.P.Term == rdf.Type {
			t.Fatalf("q_aux wrongly includes the rdf:type pattern")
		}
	}

	pres, err := ev.Pres(q)
	if err != nil {
		t.Fatalf("Pres: %v", err)
	}
	// pres(Q): (video1, URL1, 1, n), (video1, URL2, 2, n) — note the keys
	// differ because the measure matched twice... no: the measure has one
	// embedding; the classifier has two rows. Keys are per measure tuple,
	// so both rows carry the same key.
	if pres.Len() != 2 {
		t.Fatalf("pres size = %d, want 2", pres.Len())
	}
	kCol := pres.MustColumn(KeyCol)
	if pres.Rows[0][kCol] != pres.Rows[1][kCol] {
		t.Fatalf("pres keys differ across classifier rows of the same measure tuple")
	}

	rewritten, err := ev.DrillInRewrite(q, pres, "d3")
	if err != nil {
		t.Fatalf("DrillInRewrite: %v", err)
	}
	wantCells(t, decodeCells(rewritten, st), []CubeCell{
		{Dims: []string{exNS + "URL1", exNS + "firefox"}, Value: 42},
		{Dims: []string{exNS + "URL2", exNS + "chrome"}, Value: 42},
	})

	// Proposition 3: agrees with direct evaluation of Q_DRILL-IN.
	qIn, err := DrillIn(q, "d3")
	if err != nil {
		t.Fatalf("DrillIn: %v", err)
	}
	direct, err := ev.Answer(qIn)
	if err != nil {
		t.Fatalf("Answer(drill-in): %v", err)
	}
	if !algebra.Equal(direct, rewritten) {
		t.Fatalf("Proposition 3 violated: direct %v != Algorithm 2 %v", direct.Rows, rewritten.Rows)
	}
}

// TestPaperExample3Slice checks SLICE semantics from Example 3: slicing
// dage to 35 keeps only facts with age 35, and agrees with the rewrite.
func TestPaperExample3Slice(t *testing.T) {
	st := bloggerInstance()
	q := bloggerQuery(t)
	ev := NewEvaluator(st)

	ansQ, err := ev.Answer(q)
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	sliced, err := Slice(q, "dage", rdf.NewInt(35))
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	direct, err := ev.Answer(sliced)
	if err != nil {
		t.Fatalf("Answer(sliced): %v", err)
	}
	rewritten, err := ev.DiceRewrite(sliced, ansQ)
	if err != nil {
		t.Fatalf("DiceRewrite: %v", err)
	}
	wantCells(t, decodeCells(direct, st), []CubeCell{
		{Dims: []string{"35", exNS + "NY"}, Value: 2},
	})
	if !algebra.Equal(direct, rewritten) {
		t.Fatalf("slice rewrite mismatch: %v vs %v", direct.Rows, rewritten.Rows)
	}
}

// TestDrillOutThenDrillInRoundTrip follows Example 3's final remark:
// drilling dage out of Q and then back in yields Q again (same answers).
func TestDrillOutThenDrillInRoundTrip(t *testing.T) {
	st := bloggerInstance()
	q := bloggerQuery(t)
	ev := NewEvaluator(st)

	out, err := DrillOut(q, "dage")
	if err != nil {
		t.Fatalf("DrillOut: %v", err)
	}
	back, err := DrillIn(out, "dage")
	if err != nil {
		t.Fatalf("DrillIn: %v", err)
	}
	a1, err := ev.Answer(q)
	if err != nil {
		t.Fatalf("Answer(q): %v", err)
	}
	a2, err := ev.Answer(back)
	if err != nil {
		t.Fatalf("Answer(back): %v", err)
	}
	// Dimension order differs (dcity, dage) vs (dage, dcity); compare as
	// sorted decoded cells with dims reordered.
	c1 := decodeCells(a1, st)
	c2raw := DecodeCube(a2, st.Dict())
	// back has dims (dcity, dage): swap to (dage, dcity).
	var c2 []CubeCell
	for _, c := range c2raw {
		c2 = append(c2, CubeCell{Dims: []string{c.Dims[1], c.Dims[0]}, Value: c.Value})
	}
	sort.Slice(c2, func(i, j int) bool {
		for k := range c2[i].Dims {
			if c2[i].Dims[k] != c2[j].Dims[k] {
				return c2[i].Dims[k] < c2[j].Dims[k]
			}
		}
		return c2[i].Value < c2[j].Value
	})
	wantCells(t, c2, c1)
}
