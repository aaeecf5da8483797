package rdfcube_test

import (
	"bytes"
	"fmt"
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

func TestPublicSelectSyntax(t *testing.T) {
	g := loadSample(t)
	q, err := rdfcube.ParseSelect(`
		PREFIX : <http://example.org/>
		SELECT ?x WHERE { ?x rdf:type :Blogger }`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rdfcube.EvalBGP(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("SELECT found %d bloggers, want 2", res.Len())
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
