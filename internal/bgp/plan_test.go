package bgp

// Operator-choice tests: which physical operator the planner selects
// for chain, star and mixed shapes at varying boundness, on frozen and
// unfrozen stores.

import (
	"fmt"
	"strings"
	"testing"

	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// planGraph holds a few subjects with attribute predicates a0..a3 whose
// objects come from small domains, plus chain edges — enough statistics
// for every shape below to plan non-trivially.
func planGraph() *store.Store {
	st := store.New()
	for i := 0; i < 40; i++ {
		s := iri(fmt.Sprintf("s%d", i))
		st.Add(rdf.NewTriple(s, iri("a0"), iri(fmt.Sprintf("v0_%d", i%2))))
		st.Add(rdf.NewTriple(s, iri("a1"), iri(fmt.Sprintf("v1_%d", i%3))))
		st.Add(rdf.NewTriple(s, iri("a2"), iri(fmt.Sprintf("v2_%d", i%4))))
		st.Add(rdf.NewTriple(s, iri("a3"), iri(fmt.Sprintf("v3_%d", i%5))))
		st.Add(rdf.NewTriple(s, iri("next"), iri(fmt.Sprintf("s%d", (i+1)%40))))
	}
	st.Freeze()
	return st
}

func explainString(t *testing.T, st *store.Store, src string) string {
	t.Helper()
	q := sparql.MustParseDatalog(src, px())
	ops, err := Explain(st, q)
	if err != nil {
		t.Fatalf("Explain(%s): %v", src, err)
	}
	return strings.Join(ops, ",")
}

func TestPlannerOperatorChoice(t *testing.T) {
	st := planGraph()
	cases := []struct {
		name, query, want string
	}{
		// Frozen-store plans always end with the sort property the batch
		// pipeline guarantees: "sorted!(...)" lists the variables the
		// output is strictly lexicographically ordered by.
		//
		// Two constant-object patterns sharing the subject: merge join.
		{"star2", "q(x) :- x :a0 :v0_0, x :a1 :v1_0", "merge,sorted!(x)"},
		// k >= 3 such patterns: leapfrog.
		{"star3", "q(x) :- x :a0 :v0_0, x :a1 :v1_0, x :a2 :v2_0", "leapfrog,sorted!(x)"},
		{"star4", "q(x) :- x :a0 :v0_0, x :a1 :v1_0, x :a2 :v2_0, x :a3 :v3_0", "leapfrog,sorted!(x)"},
		// A chain never has two patterns sorted on the shared variable,
		// but once y is bound the second hop has one bound variable, one
		// constant and one free tail: a PSO stream step.
		{"chain", "q(x, z) :- x :next y, y :next z", "nested,stream,sorted!(y,x,z)"},
		// Mixed star: the constant rays intersect via leapfrog; the open
		// ray (free object) streams through one shared cursor per batch.
		{"mixed-star", "q(x, w) :- x :a0 :v0_0, x :a1 :v1_0, x :a2 :v2_0, x :a3 w", "leapfrog,stream,sorted!(x,w)"},
		// Boundness propagation: binding x through the selective first
		// pattern makes the two w-rays cursor-eligible — a per-row merge.
		{"row-merge", "q(x, w) :- x :a0 :v0_0, x :a1 w, x :a2 w", "nested,merge,sorted!(x,w)"},
		// Patterns on disjoint variables: cross product, nested (two
		// bound-variable-free positions — not stream-eligible).
		{"cross", "q(x, y) :- x :a0 :v0_0, y :a1 :v1_0", "nested,nested,sorted!(y,x)"},
		// A repeated variable inside a pattern disqualifies it from
		// cursor groups and from streaming.
		{"self-loop", "q(x) :- x :next x, x :a0 :v0_0", "nested,nested,sorted!(x)"},
		// One pattern alone is always a nested scan.
		{"single", "q(x, w) :- x :a0 w", "nested,sorted!(w,x)"},
		// Cost gate + ordering propagation: the one-row lookup seeds
		// first (the big x-rays are NOT intersected up front); binding y
		// then makes the chain edge itself cursor-eligible, so the rays
		// are intersected per row through its one-row cursor.
		{"selective-first", "q(x, y) :- :s0 :next y, y :next x, x :a0 :v0_0, x :a1 :v1_0",
			"nested,leapfrog,sorted!(y,x)"},
		// A selective pattern that is itself group-eligible joins the
		// intersection instead (its one-row cursor bounds the work).
		{"selective-in-star", "q(x) :- :s0 :next x, x :a0 :v0_0, x :a1 :v1_0", "leapfrog,sorted!(x)"},
	}
	for _, tc := range cases {
		if got := explainString(t, st, tc.query); got != tc.want {
			t.Errorf("%s: plan = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestPlannerForceNested: the differential knob must pin every step.
func TestPlannerForceNested(t *testing.T) {
	st := planGraph()
	q := sparql.MustParseDatalog("q(x) :- x :a0 :v0_0, x :a1 :v1_0, x :a2 :v2_0", px())
	compiled, vars, err := compile(st, q.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	steps := planPipeline(st, compiled, len(vars), true)
	for _, s := range steps {
		if s.kind != opNested {
			t.Fatalf("ForceNestedLoop plan contains %s", s.kind)
		}
	}
	if len(steps) != 3 {
		t.Fatalf("got %d steps, want 3", len(steps))
	}
}

// TestPlannerDelta: cursor operators stay available with a pending
// delta overlay (the cursors merge it).
func TestPlannerDelta(t *testing.T) {
	st := planGraph()
	st.Add(rdf.NewTriple(iri("extra"), iri("a0"), iri("v0_0")))
	if st.DeltaLen() == 0 {
		t.Fatal("write did not land in the delta overlay")
	}
	const q = "q(x) :- x :a0 :v0_0, x :a1 :v1_0, x :a2 :v2_0"
	if got := explainString(t, st, q); got != "leapfrog,sorted!(x)" {
		t.Fatalf("plan with delta = %q, want leapfrog", got)
	}
	// A store whose triples all sit in the overlay (never compacted)
	// plans the same cursor operators.
	deltaOnly := store.New()
	st.ForEach(store.Pattern{}, func(tr store.IDTriple) bool {
		t, _ := st.Dict().DecodeTriple(tr.S, tr.P, tr.O)
		deltaOnly.Add(t)
		return true
	})
	if deltaOnly.DeltaLen() != st.Len() {
		t.Fatalf("delta-only store holds %d overlay triples, want %d", deltaOnly.DeltaLen(), st.Len())
	}
	if got := explainString(t, deltaOnly, q); got != "leapfrog,sorted!(x)" {
		t.Fatalf("delta-only plan = %q, want leapfrog", got)
	}
}

// TestPlannerGroupPreference: with two competing groups the planner
// takes the larger one first.
func TestPlannerGroupPreference(t *testing.T) {
	st := planGraph()
	got := explainString(t, st,
		"q(x, y) :- x :a0 :v0_0, x :a1 :v1_0, x :a2 :v2_0, y :a0 :v0_1, y :a1 :v1_1")
	if got != "leapfrog,merge,sorted!(x,y)" {
		t.Fatalf("plan = %q, want leapfrog,merge", got)
	}
}
