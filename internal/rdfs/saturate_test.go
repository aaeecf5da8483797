package rdfs

import (
	"fmt"
	"math/rand"
	"testing"

	"rdfcube/internal/rdf"
	"rdfcube/internal/store"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://e.org/" + s) }

func add(st *store.Store, s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }

func TestRDFS9SubClassInstance(t *testing.T) {
	st := store.New()
	add(st, iri("Student"), rdf.SubClassOf, iri("Person"))
	add(st, iri("alice"), rdf.Type, iri("Student"))
	Saturate(st)
	if !st.Contains(rdf.NewTriple(iri("alice"), rdf.Type, iri("Person"))) {
		t.Error("rdfs9: alice must be a Person")
	}
}

func TestRDFS11SubClassTransitive(t *testing.T) {
	st := store.New()
	add(st, iri("A"), rdf.SubClassOf, iri("B"))
	add(st, iri("B"), rdf.SubClassOf, iri("C"))
	add(st, iri("C"), rdf.SubClassOf, iri("D"))
	Saturate(st)
	for _, pair := range [][2]string{{"A", "C"}, {"A", "D"}, {"B", "D"}} {
		if !st.Contains(rdf.NewTriple(iri(pair[0]), rdf.SubClassOf, iri(pair[1]))) {
			t.Errorf("rdfs11: missing %s ⊑ %s", pair[0], pair[1])
		}
	}
}

func TestRDFS7SubProperty(t *testing.T) {
	st := store.New()
	add(st, iri("dwellsIn"), rdf.SubPropertyOf, iri("livesIn"))
	add(st, iri("alice"), iri("dwellsIn"), iri("Paris"))
	Saturate(st)
	if !st.Contains(rdf.NewTriple(iri("alice"), iri("livesIn"), iri("Paris"))) {
		t.Error("rdfs7: dwellsIn fact must entail livesIn")
	}
}

func TestRDFS5SubPropertyTransitive(t *testing.T) {
	st := store.New()
	add(st, iri("p"), rdf.SubPropertyOf, iri("q"))
	add(st, iri("q"), rdf.SubPropertyOf, iri("r"))
	add(st, iri("s"), iri("p"), iri("o"))
	Saturate(st)
	if !st.Contains(rdf.NewTriple(iri("p"), rdf.SubPropertyOf, iri("r"))) {
		t.Error("rdfs5: p ⊑ r missing")
	}
	if !st.Contains(rdf.NewTriple(iri("s"), iri("r"), iri("o"))) {
		t.Error("p fact must propagate to r through the closed hierarchy")
	}
}

func TestRDFS2Domain(t *testing.T) {
	st := store.New()
	add(st, iri("teaches"), rdf.Domain, iri("Teacher"))
	add(st, iri("bob"), iri("teaches"), iri("math"))
	Saturate(st)
	if !st.Contains(rdf.NewTriple(iri("bob"), rdf.Type, iri("Teacher"))) {
		t.Error("rdfs2: domain typing missing")
	}
}

func TestRDFS3Range(t *testing.T) {
	st := store.New()
	add(st, iri("teaches"), rdf.Range, iri("Course"))
	add(st, iri("bob"), iri("teaches"), iri("math"))
	Saturate(st)
	if !st.Contains(rdf.NewTriple(iri("math"), rdf.Type, iri("Course"))) {
		t.Error("rdfs3: range typing missing")
	}
}

func TestRuleInteraction(t *testing.T) {
	// dwellsIn ⊑ livesIn, livesIn has domain Resident, Resident ⊑ Person:
	// a dwellsIn fact must cascade to Person via three rules.
	st := store.New()
	add(st, iri("dwellsIn"), rdf.SubPropertyOf, iri("livesIn"))
	add(st, iri("livesIn"), rdf.Domain, iri("Resident"))
	add(st, iri("Resident"), rdf.SubClassOf, iri("Person"))
	add(st, iri("alice"), iri("dwellsIn"), iri("Paris"))
	Saturate(st)
	for _, want := range []rdf.Triple{
		rdf.NewTriple(iri("alice"), iri("livesIn"), iri("Paris")),
		rdf.NewTriple(iri("alice"), rdf.Type, iri("Resident")),
		rdf.NewTriple(iri("alice"), rdf.Type, iri("Person")),
	} {
		if !st.Contains(want) {
			t.Errorf("cascade missing %v", want)
		}
	}
}

func TestSaturateIdempotent(t *testing.T) {
	st := store.New()
	add(st, iri("A"), rdf.SubClassOf, iri("B"))
	add(st, iri("p"), rdf.Domain, iri("A"))
	add(st, iri("x"), iri("p"), iri("y"))
	first := Saturate(st)
	if first == 0 {
		t.Fatal("first saturation derived nothing")
	}
	if again := Saturate(st); again != 0 {
		t.Errorf("second saturation derived %d triples, want 0", again)
	}
	if !IsSaturated(st) {
		t.Error("IsSaturated must report true after saturation")
	}
}

func TestSubClassCycle(t *testing.T) {
	// A ⊑ B ⊑ A must terminate and entail mutual membership.
	st := store.New()
	add(st, iri("A"), rdf.SubClassOf, iri("B"))
	add(st, iri("B"), rdf.SubClassOf, iri("A"))
	add(st, iri("x"), rdf.Type, iri("A"))
	Saturate(st)
	if !st.Contains(rdf.NewTriple(iri("x"), rdf.Type, iri("B"))) {
		t.Error("cycle: x must be a B")
	}
}

func TestSaturationFixpointRandom(t *testing.T) {
	// Random schema + data graphs: saturation must reach a fixpoint that
	// a second run cannot extend, and every rdfs9 consequence must hold.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		st := store.New()
		nClasses := 5 + rng.Intn(5)
		for i := 0; i < nClasses; i++ {
			if rng.Intn(2) == 0 {
				add(st, iri(fmt.Sprintf("C%d", i)), rdf.SubClassOf, iri(fmt.Sprintf("C%d", rng.Intn(nClasses))))
			}
		}
		for i := 0; i < 20; i++ {
			add(st, iri(fmt.Sprintf("x%d", i)), rdf.Type, iri(fmt.Sprintf("C%d", rng.Intn(nClasses))))
		}
		Saturate(st)
		if !IsSaturated(st) {
			t.Fatalf("trial %d: not a fixpoint", trial)
		}
		// Soundness spot check of rdfs9 on the saturated graph.
		scID, _ := st.Dict().Lookup(rdf.SubClassOf)
		typeID, _ := st.Dict().Lookup(rdf.Type)
		if scID == 0 || typeID == 0 {
			continue
		}
		for _, sc := range st.Match(store.Pattern{P: scID}) {
			for _, inst := range st.Match(store.Pattern{P: typeID, O: sc.S}) {
				if !st.ContainsID(store.IDTriple{S: inst.S, P: typeID, O: sc.O}) {
					t.Fatalf("trial %d: rdfs9 consequence missing", trial)
				}
			}
		}
	}
}

func BenchmarkSaturate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := store.New()
		var ts []store.IDTriple
		for c := 0; c < 20; c++ {
			ts = append(ts, st.EncodeTriple(rdf.NewTriple(iri(fmt.Sprintf("C%d", c)), rdf.SubClassOf, iri(fmt.Sprintf("C%d", (c+1)%20)))))
		}
		for x := 0; x < 5000; x++ {
			ts = append(ts, st.EncodeTriple(rdf.NewTriple(iri(fmt.Sprintf("x%d", x)), rdf.Type, iri(fmt.Sprintf("C%d", x%20)))))
		}
		st.AddBatch(ts)
		b.StartTimer()
		Saturate(st)
	}
}
