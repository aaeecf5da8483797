package sparql

import (
	"strings"
	"testing"

	"rdfcube/internal/rdf"
)

func testPrefixes() Prefixes {
	p := DefaultPrefixes()
	p[""] = "http://e.org/"
	p["ex"] = "http://example.com/"
	return p
}

func TestParseDatalogPaperQuery(t *testing.T) {
	// The rooted BGP from Section 2 of the paper.
	q, err := ParseDatalog(
		"q(x1, x2, x3) :- x1 :acquaintedWith x2, x1 :identifiedBy y1, x1 :wrotePost y2, y2 :postedOn x3",
		testPrefixes())
	if err != nil {
		t.Fatalf("ParseDatalog: %v", err)
	}
	if q.Name != "q" {
		t.Errorf("Name = %q", q.Name)
	}
	if len(q.Head) != 3 || q.Head[0] != "x1" || q.Head[2] != "x3" {
		t.Errorf("Head = %v", q.Head)
	}
	if len(q.Patterns) != 4 {
		t.Errorf("%d patterns, want 4", len(q.Patterns))
	}
	if !q.IsRooted() {
		t.Error("paper query must be rooted at x1")
	}
	if q.Root() != "x1" {
		t.Errorf("Root = %q", q.Root())
	}
	ex := q.ExistentialVars()
	if len(ex) != 2 || ex[0] != "y1" || ex[1] != "y2" {
		t.Errorf("ExistentialVars = %v", ex)
	}
}

func TestParseDatalogTermForms(t *testing.T) {
	q, err := ParseDatalog(
		`q(x) :- x rdf:type ex:Blogger, x :hasAge 28, x :score 3.5, x :name "Bill", x :note "hi"@en, x :n "5"^^<http://www.w3.org/2001/XMLSchema#integer>, x :link <http://raw.org/iri>`,
		testPrefixes())
	if err != nil {
		t.Fatalf("ParseDatalog: %v", err)
	}
	wantObjects := []rdf.Term{
		rdf.NewIRI("http://example.com/Blogger"),
		rdf.NewInt(28),
		rdf.NewTypedLiteral("3.5", rdf.XSDDouble),
		rdf.NewLiteral("Bill"),
		rdf.NewLangLiteral("hi", "en"),
		rdf.NewInt(5),
		rdf.NewIRI("http://raw.org/iri"),
	}
	for i, want := range wantObjects {
		got := q.Patterns[i].O
		if got.IsVar() || got.Term != want {
			t.Errorf("pattern %d object = %v, want %v", i, got, want)
		}
	}
	if q.Patterns[0].P.Term != rdf.Type {
		t.Errorf("rdf:type = %v", q.Patterns[0].P)
	}
}

func TestParseDatalogAKeyword(t *testing.T) {
	q, err := ParseDatalog("q(x) :- x a ex:Blogger", testPrefixes())
	if err != nil {
		t.Fatalf("ParseDatalog: %v", err)
	}
	if q.Patterns[0].P.Term != rdf.Type {
		t.Errorf(`"a" = %v, want rdf:type`, q.Patterns[0].P)
	}
}

func TestParseDatalogQuestionMarkVars(t *testing.T) {
	q, err := ParseDatalog("q(x) :- ?x rdf:type ex:Blogger", Prefixes{"rdf": rdf.RDFNS, "ex": "http://e/"})
	if err != nil {
		t.Fatalf("ParseDatalog: %v", err)
	}
	if !q.Patterns[0].S.IsVar() || q.Patterns[0].S.Var != "x" {
		t.Errorf("?x = %v", q.Patterns[0].S)
	}
}

func TestParseDatalogErrors(t *testing.T) {
	bad := []string{
		"q(x) x rdf:type ex:B",             // missing :-
		"q :- x rdf:type ex:B",             // malformed head
		"q() :- x rdf:type ex:B",           // empty head
		"q(x) :- ",                         // empty body
		"q(x) :- x rdf:type",               // 2-term atom
		"q(x) :- x rdf:type ex:B ex:C",     // 4-term atom
		"q(y) :- x rdf:type ex:B",          // head var unbound
		"q(x, x) :- x rdf:type ex:B",       // duplicate head var
		"q(x) :- x unknown:p ex:B",         // unknown prefix
		`q(x) :- "lit" rdf:type ex:B`,      // literal subject
		`q(x) :- x rdf:type "unterminated`, // unterminated literal
		"q(x) :- x rdf:type <unterminated", // unterminated IRI
		"q(x) :- x rdf:type ex:B, , ex:C",  // stray comma
	}
	for _, text := range bad {
		if _, err := ParseDatalog(text, testPrefixes()); err == nil {
			t.Errorf("accepted malformed query %q", text)
		}
	}
}

func TestIsRooted(t *testing.T) {
	cases := []struct {
		text string
		want bool
	}{
		{"q(x) :- x ex:p y, y ex:q z", true},
		{"q(x) :- x ex:p y, z ex:q w", false}, // z,w unreachable
		{"q(x, y) :- y ex:p x", false},        // only o→s edge; root can't reach y
		{"q(x) :- x ex:p x", true},
	}
	for _, c := range cases {
		q, err := ParseDatalog(c.text, testPrefixes())
		if err != nil {
			t.Fatalf("%q: %v", c.text, err)
		}
		if got := q.IsRooted(); got != c.want {
			t.Errorf("IsRooted(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	q, _ := ParseDatalog("q(x) :- x ex:p y", testPrefixes())
	cp := q.Clone()
	cp.Head[0] = "changed"
	cp.Patterns[0].S = V("other")
	if q.Head[0] != "x" || q.Patterns[0].S.Var != "x" {
		t.Error("Clone shares storage with the original")
	}
}

func TestQueryString(t *testing.T) {
	q, _ := ParseDatalog("c(x, d) :- x rdf:type ex:B, x ex:p d", testPrefixes())
	s := q.String()
	for _, want := range []string{"c(x, d)", ":-", "<http://example.com/B>"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q lacks %q", s, want)
		}
	}
	// Output re-parses to an equivalent query.
	back, err := ParseDatalog(s, testPrefixes())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", s, err)
	}
	if len(back.Patterns) != len(q.Patterns) {
		t.Error("String() round trip changed pattern count")
	}
}

func TestHeadAccessors(t *testing.T) {
	q, _ := ParseDatalog("q(x, d1) :- x ex:p d1, x ex:q z", testPrefixes())
	if !q.HasHeadVar("d1") || q.HasHeadVar("z") {
		t.Error("HasHeadVar wrong")
	}
	vars := q.Vars()
	if len(vars) != 3 {
		t.Errorf("Vars = %v", vars)
	}
}

func TestParseTerm(t *testing.T) {
	px := testPrefixes()
	cases := []struct {
		in   string
		want rdf.Term
	}{
		{"<http://e.org/x>", rdf.NewIRI("http://e.org/x")},
		{":x", rdf.NewIRI("http://e.org/x")},
		{"ex:y", rdf.NewIRI("http://example.com/y")},
		{"42", rdf.NewInt(42)},
		{"-7", rdf.NewInt(-7)},
		{"007", rdf.NewInt(7)}, // bare numerics canonicalize
		{"2.5", rdf.NewFloat(2.5)},
		{"1e3", rdf.NewFloat(1000)},
		{`"hi"`, rdf.NewLiteral("hi")},
		{`"hi"@en`, rdf.NewLangLiteral("hi", "en")},
		{"_:b0", rdf.NewBlank("b0")},
		{" :x ", rdf.NewIRI("http://e.org/x")}, // surrounding space trimmed
	}
	for _, c := range cases {
		got, err := ParseTerm(c.in, px)
		if err != nil {
			t.Errorf("ParseTerm(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseTerm(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"bareword", "unknown:x", "?v", ""} {
		if _, err := ParseTerm(bad, px); err == nil {
			t.Errorf("ParseTerm(%q) accepted, want error", bad)
		}
	}
}
