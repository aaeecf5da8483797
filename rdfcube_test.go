package rdfcube_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rdfcube"
)

const ns = "http://example.org/"

const sample = `
@prefix : <http://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
:dwells rdfs:subPropertyOf :livesIn .
:alice a :Blogger ; :hasAge 28 ; :livesIn :Madrid .
:bob a :Blogger ; :hasAge 35 ; :dwells :NY .
:alice :wrotePost :p1 . :alice :wrotePost :p2 .
:bob :wrotePost :p3 .
:p1 :postedOn :s1 . :p2 :postedOn :s2 . :p3 :postedOn :s1 .
`

func loadSample(t *testing.T) *rdfcube.Graph {
	t.Helper()
	g := rdfcube.NewGraph()
	n, err := rdfcube.ReadNTriples(g, strings.NewReader(sample))
	if err != nil {
		t.Fatalf("ReadNTriples: %v", err)
	}
	if n == 0 {
		t.Fatal("no triples loaded")
	}
	return g
}

func samplePrefixes() rdfcube.Prefixes {
	p := rdfcube.DefaultPrefixes()
	p[""] = ns
	return p
}

func TestPublicPipeline(t *testing.T) {
	g := loadSample(t)
	if added := rdfcube.Saturate(g); added == 0 {
		t.Error("saturation must derive bob's livesIn")
	}

	c, err := rdfcube.ParseQuery(
		"c(x, dcity) :- x rdf:type :Blogger, x :livesIn dcity", samplePrefixes())
	if err != nil {
		t.Fatal(err)
	}
	m, err := rdfcube.ParseQuery(
		"m(x, v) :- x rdf:type :Blogger, x :wrotePost p, p :postedOn v", samplePrefixes())
	if err != nil {
		t.Fatal(err)
	}
	q, err := rdfcube.NewQuery(c, m, rdfcube.Count)
	if err != nil {
		t.Fatal(err)
	}
	ev := rdfcube.NewEvaluator(g)
	cube, err := ev.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	// alice: Madrid ↦ 2 posts; bob: NY ↦ 1 (via the entailed livesIn).
	cells := rdfcube.DecodeCube(cube, g)
	if len(cells) != 2 {
		t.Fatalf("cube = %v, want 2 cells", cells)
	}
	byCity := map[string]float64{}
	for _, cell := range cells {
		byCity[cell.Dims[0]] = cell.Value
	}
	if byCity[ns+"Madrid"] != 2 || byCity[ns+"NY"] != 1 {
		t.Errorf("cube = %v", byCity)
	}
}

func TestPublicOLAPOps(t *testing.T) {
	g := loadSample(t)
	rdfcube.Saturate(g)
	c, _ := rdfcube.ParseQuery(
		"c(x, dage, dcity) :- x rdf:type :Blogger, x :hasAge dage, x :livesIn dcity", samplePrefixes())
	m, _ := rdfcube.ParseQuery(
		"m(x, v) :- x rdf:type :Blogger, x :wrotePost p, p :postedOn v", samplePrefixes())
	q, err := rdfcube.NewQuery(c, m, rdfcube.Count)
	if err != nil {
		t.Fatal(err)
	}
	ev := rdfcube.NewEvaluator(g)
	pres, err := ev.Pres(q)
	if err != nil {
		t.Fatal(err)
	}
	ansQ, err := ev.AnswerFromPres(q, pres)
	if err != nil {
		t.Fatal(err)
	}

	// Slice + rewrite agreement through the public API.
	sliced, err := rdfcube.SliceOp(q, "dage", rdfcube.NewInt(28))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ev.Answer(sliced)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, err := ev.DiceRewrite(sliced, ansQ)
	if err != nil {
		t.Fatal(err)
	}
	if !rdfcube.CubesEqual(direct, rewritten) {
		t.Error("slice rewrite disagrees")
	}

	// Drill-out through the public API.
	qOut, err := rdfcube.DrillOutOp(q, "dage")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ev.Answer(qOut)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ev.DrillOutRewrite(q, pres, "dage")
	if err != nil {
		t.Fatal(err)
	}
	if !rdfcube.CubesEqual(d2, r2) {
		t.Error("drill-out rewrite disagrees")
	}
}

func TestPublicWriteNTriples(t *testing.T) {
	g := loadSample(t)
	var buf bytes.Buffer
	if err := rdfcube.WriteNTriples(g, &buf); err != nil {
		t.Fatal(err)
	}
	g2 := rdfcube.NewGraph()
	n, err := rdfcube.ReadNTriples(g2, &buf)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if n != g.Len() {
		t.Errorf("round trip %d triples, want %d", n, g.Len())
	}
}

func TestPublicTermConstructors(t *testing.T) {
	if !rdfcube.NewIRI("http://x").IsIRI() {
		t.Error("NewIRI")
	}
	if !rdfcube.NewInt(5).IsLiteral() || !rdfcube.NewBool(true).IsLiteral() {
		t.Error("literal constructors")
	}
	if f, err := rdfcube.AggByName("avg"); err != nil || f.Distributive() {
		t.Error("AggByName(avg)")
	}
}

// TestReadNTriplesBulkLoads: ReadNTriples loads with one AddBatch, never
// through the per-triple delta path — 20k triples (more than two
// compaction thresholds' worth) leave no pending delta and rebuild the
// base exactly once.
func TestReadNTriplesBulkLoads(t *testing.T) {
	var doc strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&doc, "<%ss%d> <%sp%d> <%so%d> .\n", ns, i%3000, ns, i%7, ns, i)
	}
	g := rdfcube.NewGraph()
	n, err := rdfcube.ReadNTriples(g, strings.NewReader(doc.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 20000 || g.Len() != 20000 {
		t.Fatalf("loaded %d triples (Len %d), want 20000", n, g.Len())
	}
	if g.DeltaLen() != 0 {
		t.Errorf("ReadNTriples left a delta of %d triples", g.DeltaLen())
	}
	if v := g.Version(); v.Base != 1 || v.Seq != 0 {
		t.Errorf("ReadNTriples left version %+v, want one base rebuild", v)
	}
}

var rdfType = rdfcube.NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")

func sessionIRI(s string) rdfcube.Term { return rdfcube.NewIRI(ns + s) }

// sessionInstance builds a small frozen instance with multi-valued
// facts: two dimensions (dim0, and hub labels reached through :at), a
// drill-in-able hub tag, and integer scores.
func sessionInstance(seed int64, facts int) *rdfcube.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := rdfcube.NewGraph()
	add := func(s, p, o rdfcube.Term) { g.Add(rdfcube.NewTriple(s, p, o)) }
	for h := 0; h < 5; h++ {
		hub := sessionIRI(fmt.Sprintf("hub%d", h))
		add(hub, sessionIRI("label"), rdfcube.NewInt(int64(h)))
		add(hub, sessionIRI("tag"), sessionIRI(fmt.Sprintf("tag%d", h%3)))
	}
	for f := 0; f < facts; f++ {
		x := sessionIRI(fmt.Sprintf("fact%d", f))
		add(x, rdfType, sessionIRI("Fact"))
		add(x, sessionIRI("dim0"), rdfcube.NewInt(int64(rng.Intn(4))))
		if rng.Float64() < 0.3 {
			add(x, sessionIRI("dim0"), rdfcube.NewInt(int64(4+rng.Intn(2))))
		}
		add(x, sessionIRI("at"), sessionIRI(fmt.Sprintf("hub%d", rng.Intn(5))))
		add(x, sessionIRI("score"), rdfcube.NewInt(int64(1+rng.Intn(9))))
	}
	g.Freeze()
	return g
}

// sessionQuery classifies facts by dim0 (d0) and hub label (d1); the
// hub tag d2 stays existential, the drill-in target.
func sessionQuery(t *testing.T, f rdfcube.AggFunc, measure string) *rdfcube.Query {
	t.Helper()
	c, err := rdfcube.ParseQuery(
		"c(x, d0, d1) :- x rdf:type :Fact, x :dim0 d0, x :at h, h :label d1, h :tag d2", samplePrefixes())
	if err != nil {
		t.Fatal(err)
	}
	m, err := rdfcube.ParseQuery(measure, samplePrefixes())
	if err != nil {
		t.Fatal(err)
	}
	q, err := rdfcube.NewQuery(c, m, f)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

const scoreMeasure = "m(x, v) :- x rdf:type :Fact, x :score v"

// answerChecked asks sess for q, requires strategy want, and checks the
// cube against a direct evaluation of q.
func answerChecked(t *testing.T, sess *rdfcube.Session, q *rdfcube.Query, want rdfcube.Strategy, label string) {
	t.Helper()
	cube, got, err := sess.Answer(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got != want {
		t.Fatalf("%s: strategy = %s, want %s", label, got, want)
	}
	direct, err := sess.Evaluator().Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !rdfcube.CubesEqual(direct, cube.Project(direct.Cols...)) {
		t.Fatalf("%s: %s answered a wrong cube\n got: %v\nwant: %v", label, got, cube.Rows, direct.Rows)
	}
}

// opChecker returns a wrapper that unpacks an OLAP operation's result,
// failing t on error.
func opChecker(t *testing.T) func(*rdfcube.Query, error) *rdfcube.Query {
	return func(q *rdfcube.Query, err error) *rdfcube.Query {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
}

// TestPublicSessionStrategies drives one analyst session through every
// strategy, then writes to the instance through the session's write
// contract (Instance().Add, then NotifyWrite): the registered view is
// maintained at the write, not re-evaluated at the next ask.
func TestPublicSessionStrategies(t *testing.T) {
	mustOp := opChecker(t)
	sess := rdfcube.NewSession(sessionInstance(11, 100))
	base := sessionQuery(t, rdfcube.Sum, scoreMeasure)

	answerChecked(t, sess, base, "direct", "base")
	answerChecked(t, sess, base.Clone(), "cached", "base again")
	if got := sess.Entries(); got != 1 {
		t.Fatalf("Entries = %d after a cached hit, want 1", got)
	}
	answerChecked(t, sess, mustOp(rdfcube.SliceOp(base, "d0", rdfcube.NewInt(2))), "dice-rewrite", "slice")
	answerChecked(t, sess, mustOp(rdfcube.DiceOp(base, map[string][]rdfcube.Term{
		"d0": {rdfcube.NewInt(1), rdfcube.NewInt(2)},
		"d1": {rdfcube.NewInt(0), rdfcube.NewInt(3)},
	})), "dice-rewrite", "dice")
	d1 := mustOp(rdfcube.DiceOp(base, map[string][]rdfcube.Term{"d0": {rdfcube.NewInt(1), rdfcube.NewInt(2)}}))
	answerChecked(t, sess, d1, "dice-rewrite", "dice")
	answerChecked(t, sess, mustOp(rdfcube.DiceOp(d1, map[string][]rdfcube.Term{"d0": {rdfcube.NewInt(1)}})),
		"dice-rewrite", "dice of dice")
	answerChecked(t, sess, mustOp(rdfcube.DrillOutOp(base, "d1")), "drillout-rewrite", "drill-out")
	answerChecked(t, sess, mustOp(rdfcube.DrillInOp(base, "d2")), "drillin-rewrite", "drill-in")
	answerChecked(t, sess, base.Clone(), "cached", "base last")
	if got := sess.Stats().ByStrategy["direct"]; got != 1 {
		t.Fatalf("direct evaluations = %d, want 1: %v", got, sess.Stats().ByStrategy)
	}

	x := sessionIRI("newfact")
	inst := sess.Instance()
	for _, tr := range []rdfcube.Triple{
		rdfcube.NewTriple(x, rdfType, sessionIRI("Fact")),
		rdfcube.NewTriple(x, sessionIRI("dim0"), rdfcube.NewInt(1)),
		rdfcube.NewTriple(x, sessionIRI("at"), sessionIRI("hub2")),
		rdfcube.NewTriple(x, sessionIRI("score"), rdfcube.NewInt(700)),
	} {
		if !inst.Add(tr) {
			t.Fatalf("Add(%v) reported a duplicate", tr)
		}
	}
	sess.NotifyWrite()
	if got := sess.Stats().Maintained; got == 0 {
		t.Fatal("NotifyWrite did not maintain the registered view")
	}
	answerChecked(t, sess, base.Clone(), "cached", "base after write")
	answerChecked(t, sess, mustOp(rdfcube.DrillOutOp(base, "d0")), "drillout-rewrite", "drill-out after write")
	if got := sess.Stats().ByStrategy["direct"]; got != 1 {
		t.Errorf("direct evaluations = %d after the write, want 1", got)
	}
}

// TestPublicSessionLimits: SetLimits bounds the registered views; past
// the entry budget the least recently used are evicted.
func TestPublicSessionLimits(t *testing.T) {
	mustOp := opChecker(t)
	sess := rdfcube.NewSession(sessionInstance(12, 40))
	sess.SetLimits(2, 0)
	base := sessionQuery(t, rdfcube.Sum, scoreMeasure)
	for i := 0; i < 4; i++ {
		// Distinct singleton slices refine none of each other.
		answerChecked(t, sess, mustOp(rdfcube.SliceOp(base, "d1", rdfcube.NewInt(int64(i)))), "direct", fmt.Sprintf("slice %d", i))
	}
	if got := sess.Entries(); got != 2 {
		t.Errorf("Entries = %d, want 2 after eviction", got)
	}
}
