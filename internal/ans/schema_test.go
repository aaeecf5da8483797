package ans

import (
	"strings"
	"testing"

	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

const ns = "http://e.org/"

func iri(s string) rdf.Term { return rdf.NewIRI(ns + s) }

func px() sparql.Prefixes {
	p := sparql.DefaultPrefixes()
	p[""] = ns
	return p
}

// baseGraph builds a heterogeneous base: two people post, one is typed
// :Author, the other only recognizable through posting behavior.
func baseGraph() *store.Store {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	add(iri("alice"), rdf.Type, iri("Author"))
	add(iri("alice"), iri("wrote"), iri("p1"))
	add(iri("bob"), iri("wrote"), iri("p2")) // untyped, heterogeneous
	add(iri("p1"), iri("on"), iri("s1"))
	add(iri("p2"), iri("on"), iri("s1"))
	add(iri("alice"), iri("city"), iri("Madrid"))
	return st
}

// testSchema defines Blogger as "anything that wrote something" — a lens
// that absorbs the heterogeneity.
func testSchema() *Schema {
	s := &Schema{Name: "test"}
	s.AddNode(iri("Blogger"), sparql.MustParseDatalog("n(x) :- x :wrote p", px()))
	s.AddNode(iri("Post"), sparql.MustParseDatalog("n(p) :- x :wrote p", px()))
	s.AddNode(iri("City"), sparql.MustParseDatalog("n(c) :- x :city c", px()))
	s.AddEdge(iri("wrotePost"), iri("Blogger"), iri("Post"),
		sparql.MustParseDatalog("e(x, p) :- x :wrote p", px()))
	s.AddEdge(iri("livesIn"), iri("Blogger"), iri("City"),
		sparql.MustParseDatalog("e(x, c) :- x :city c", px()))
	return s
}

func TestValidateOK(t *testing.T) {
	if err := testSchema().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	mk := testSchema

	s := mk()
	s.AddNode(iri("Blogger"), sparql.MustParseDatalog("n(x) :- x :wrote p", px()))
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate class: %v", err)
	}

	s = mk()
	s.AddNode(iri("Bad"), sparql.MustParseDatalog("n(x, y) :- x :wrote y", px()))
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "unary") {
		t.Errorf("binary node query: %v", err)
	}

	s = mk()
	s.AddEdge(iri("bad"), iri("Blogger"), iri("Post"),
		sparql.MustParseDatalog("e(x) :- x :wrote y", px()))
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "binary") {
		t.Errorf("unary edge query: %v", err)
	}

	s = mk()
	s.AddEdge(iri("dangling"), iri("NoSuchClass"), iri("Post"),
		sparql.MustParseDatalog("e(x, y) :- x :wrote y", px()))
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("undeclared endpoint: %v", err)
	}

	s = mk()
	s.AddNode(rdf.NewLiteral("notAnIRI"), sparql.MustParseDatalog("n(x) :- x :wrote p", px()))
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "IRI") {
		t.Errorf("literal class: %v", err)
	}

	s = mk()
	s.Nodes = append(s.Nodes, Node{Class: iri("NilQuery")})
	if err := s.Validate(); err == nil {
		t.Error("nil node query accepted")
	}
}

func TestMaterialize(t *testing.T) {
	base := baseGraph()
	inst, err := testSchema().Materialize(base)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	// Both alice and bob become Bloggers — including untyped bob.
	for _, who := range []string{"alice", "bob"} {
		if !inst.Contains(rdf.NewTriple(iri(who), rdf.Type, iri("Blogger"))) {
			t.Errorf("%s missing from Blogger class", who)
		}
	}
	// Edge facts present.
	if !inst.Contains(rdf.NewTriple(iri("alice"), iri("wrotePost"), iri("p1"))) {
		t.Error("wrotePost edge missing")
	}
	if !inst.Contains(rdf.NewTriple(iri("alice"), iri("livesIn"), iri("Madrid"))) {
		t.Error("livesIn edge missing")
	}
	// bob has no livesIn — heterogeneity preserved, membership unaffected.
	if inst.Contains(rdf.NewTriple(iri("bob"), iri("livesIn"), iri("Madrid"))) {
		t.Error("bob wrongly gained a city")
	}
	// Instance shares the base dictionary.
	if inst.Dict() != base.Dict() {
		t.Error("instance must share the base dictionary")
	}
	// Base graph not polluted with analysis triples.
	if base.Contains(rdf.NewTriple(iri("bob"), rdf.Type, iri("Blogger"))) {
		t.Error("materialization mutated the base graph")
	}
}

func TestMaterializeEmptyBase(t *testing.T) {
	inst, err := testSchema().Materialize(store.New())
	if err != nil {
		t.Fatalf("Materialize on empty base: %v", err)
	}
	if inst.Len() != 0 {
		t.Errorf("empty base produced %d instance triples", inst.Len())
	}
}

func TestNodeEdgeLookup(t *testing.T) {
	s := testSchema()
	if s.Node(iri("Blogger")) == nil || s.Node(iri("Nope")) != nil {
		t.Error("Node lookup wrong")
	}
	if s.Edge(iri("wrotePost")) == nil || s.Edge(iri("nope")) != nil {
		t.Error("Edge lookup wrong")
	}
}

func TestMaterializeIndependentNodeEdge(t *testing.T) {
	// A node query and an edge query that disagree: facts in the class
	// without edge values, and edge values for resources outside the
	// class. Both must materialize independently (Section 2: "completely
	// independent queries").
	base := store.New()
	add := func(s, p, o rdf.Term) { base.Add(rdf.NewTriple(s, p, o)) }
	add(iri("a"), rdf.Type, iri("T"))
	add(iri("b"), iri("val"), rdf.NewInt(3)) // not typed T
	s := &Schema{Name: "indep"}
	s.AddNode(iri("C"), sparql.MustParseDatalog("n(x) :- x rdf:type :T", px()))
	s.AddEdge(iri("hasVal"), iri("C"), iri("C"),
		sparql.MustParseDatalog("e(x, v) :- x :val v", px()))
	inst, err := s.Materialize(base)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Contains(rdf.NewTriple(iri("a"), rdf.Type, iri("C"))) {
		t.Error("class member missing")
	}
	if !inst.Contains(rdf.NewTriple(iri("b"), iri("hasVal"), rdf.NewInt(3))) {
		t.Error("edge fact for non-member missing; node and edge queries must be independent")
	}
}
