package bgp

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"testing"

	"rdfcube/internal/dict"
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

func smallGraph() *store.Store {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	// alice -knows-> bob -knows-> carol; everyone typed Person;
	// ages: alice 30, bob 25; carol has no age (heterogeneous).
	add(iri("alice"), rdf.Type, iri("Person"))
	add(iri("bob"), rdf.Type, iri("Person"))
	add(iri("carol"), rdf.Type, iri("Person"))
	add(iri("alice"), iri("knows"), iri("bob"))
	add(iri("bob"), iri("knows"), iri("carol"))
	add(iri("alice"), iri("age"), rdf.NewInt(30))
	add(iri("bob"), iri("age"), rdf.NewInt(25))
	return st
}

func decodeRows(t *testing.T, st *store.Store, res *Result) [][]string {
	t.Helper()
	var out [][]string
	for _, row := range res.Rows {
		var r []string
		for _, id := range row {
			term, ok := st.Dict().Decode(id)
			if !ok {
				t.Fatalf("unknown ID %d", id)
			}
			r = append(r, term.Value())
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

func TestEvalSingistlePattern(t *testing.T) {
	st := smallGraph()
	q := sparql.MustParseDatalog("q(x) :- x rdf:type :Person", px())
	res, err := EvalSet(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("got %d rows, want 3", res.Len())
	}
}

func TestEvalJoin(t *testing.T) {
	st := smallGraph()
	q := sparql.MustParseDatalog("q(x, z) :- x :knows y, y :knows z", px())
	res, err := EvalSet(st, q)
	if err != nil {
		t.Fatal(err)
	}
	rows := decodeRows(t, st, res)
	if len(rows) != 1 || rows[0][0] != ns+"alice" || rows[0][1] != ns+"carol" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestEvalConstantObject(t *testing.T) {
	st := smallGraph()
	q := sparql.MustParseDatalog("q(x) :- x :age 30", px())
	res, err := EvalSet(st, q)
	if err != nil {
		t.Fatal(err)
	}
	rows := decodeRows(t, st, res)
	if len(rows) != 1 || rows[0][0] != ns+"alice" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestEvalUnknownConstantEmpty(t *testing.T) {
	st := smallGraph()
	q := sparql.MustParseDatalog("q(x) :- x :age 999", px())
	res, err := EvalSet(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("unknown constant matched %d rows", res.Len())
	}
	// Unknown predicate too.
	q2 := sparql.MustParseDatalog("q(x) :- x :neverSeen y", px())
	res2, err := EvalSet(st, q2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Len() != 0 {
		t.Fatalf("unknown predicate matched %d rows", res2.Len())
	}
}

func TestSetVsBagSemantics(t *testing.T) {
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	// u has 3 posts on 2 sites: bag projection onto (u, site) has 3 rows,
	// set projection 2.
	add(iri("u"), iri("wrote"), iri("p1"))
	add(iri("u"), iri("wrote"), iri("p2"))
	add(iri("u"), iri("wrote"), iri("p3"))
	add(iri("p1"), iri("on"), iri("s1"))
	add(iri("p2"), iri("on"), iri("s1"))
	add(iri("p3"), iri("on"), iri("s2"))
	q := sparql.MustParseDatalog("q(x, s) :- x :wrote p, p :on s", px())
	bag, err := EvalBag(st, q)
	if err != nil {
		t.Fatal(err)
	}
	set, err := EvalSet(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if bag.Len() != 3 {
		t.Errorf("bag size = %d, want 3", bag.Len())
	}
	if set.Len() != 2 {
		t.Errorf("set size = %d, want 2", set.Len())
	}
}

func TestVariablePredicate(t *testing.T) {
	st := smallGraph()
	q := sparql.MustParseDatalog("q(p) :- :alice p :bob", px())
	res, err := EvalSet(st, q)
	if err != nil {
		t.Fatal(err)
	}
	rows := decodeRows(t, st, res)
	if len(rows) != 1 || rows[0][0] != ns+"knows" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestRepeatedVariableInPattern(t *testing.T) {
	st := store.New()
	st.Add(rdf.NewTriple(iri("a"), iri("p"), iri("a"))) // self loop
	st.Add(rdf.NewTriple(iri("a"), iri("p"), iri("b")))
	st.Add(rdf.NewTriple(iri("b"), iri("p"), iri("b"))) // self loop
	// Without the x = x check, c p d would bind x = d: a wrong answer
	// that, unlike a p b's x = b, no right answer masks.
	st.Add(rdf.NewTriple(iri("c"), iri("p"), iri("d")))
	q := sparql.MustParseDatalog("q(x) :- x :p x", px())
	onBothStores(t, st, func(t *testing.T, st *store.Store) {
		res, err := EvalSet(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 2 {
			t.Fatalf("self-loop query matched %d, want 2", res.Len())
		}
	})
}

func TestRepeatedVariableBoundFirst(t *testing.T) {
	st := store.New()
	st.Add(rdf.NewTriple(iri("a"), iri("q"), iri("a")))
	st.Add(rdf.NewTriple(iri("a"), iri("p"), iri("a")))
	st.Add(rdf.NewTriple(iri("b"), iri("p"), iri("c")))
	// x bound by the first pattern, then x :p x must check both positions.
	q := sparql.MustParseDatalog("q(x) :- x :q a2, x :p x", px())
	onBothStores(t, st, func(t *testing.T, st *store.Store) {
		res, err := EvalSet(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("matched %d, want 1", res.Len())
		}
	})
}

// onBothStores runs check against st as built — every triple in the
// delta overlay of an empty base, which covers the merged iteration and
// the ForEach-fallback seed — and again after compacting it, one subtest
// each. The subtest names are kept from when the first leg ran over
// nested-map indexes: "maps" is the delta-only store.
func onBothStores(t *testing.T, st *store.Store, check func(t *testing.T, st *store.Store)) {
	t.Helper()
	if st.DeltaLen() != st.Len() {
		t.Fatal("onBothStores needs a store whose triples all sit in the delta overlay")
	}
	t.Run("maps", func(t *testing.T) { check(t, st) })
	st.Freeze()
	t.Run("frozen", func(t *testing.T) { check(t, st) })
}

func TestCrossProduct(t *testing.T) {
	st := store.New()
	st.Add(rdf.NewTriple(iri("a"), iri("p"), iri("b")))
	st.Add(rdf.NewTriple(iri("c"), iri("q"), iri("d")))
	q := sparql.MustParseDatalog("q(x, y) :- x :p b2, y :q d2", px())
	res, err := EvalSet(st, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("cross product size %d, want 1", res.Len())
	}
}

func TestProjectErrors(t *testing.T) {
	res := &Result{Vars: []string{"a"}, Rows: [][]dict.ID{{1}}}
	if _, err := res.Project([]string{"missing"}, false); err == nil {
		t.Error("projecting a missing variable must error")
	}
}

func TestKeepAllVars(t *testing.T) {
	st := smallGraph()
	q := sparql.MustParseDatalog("q(x) :- x :knows y", px())
	res, err := Eval(st, q, Options{KeepAllVars: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 2 {
		t.Fatalf("KeepAllVars kept %v", res.Vars)
	}
}

// naiveEval is the brute-force reference evaluator: it enumerates every
// embedding of q's body by trying each stored triple against one
// pattern after another, binding variables through a map, then projects
// onto the head under set (distinct) or bag semantics. It shares no code
// with the planner or the pipeline, so a bug common to every plan the
// pipeline runs still shows up against it. Rows come back canonically
// sorted.
func naiveEval(t *testing.T, st *store.Store, q *sparql.Query, distinct bool) *Result {
	t.Helper()
	out := &Result{Vars: append([]string(nil), q.Head...)}
	consts := make([][3]dict.ID, len(q.Patterns))
	for i, tp := range q.Patterns {
		for k, n := range [3]sparql.Node{tp.S, tp.P, tp.O} {
			if n.IsVar() {
				continue
			}
			id, ok := st.Dict().Lookup(n.Term)
			if !ok {
				return out // an unknown constant matches nothing
			}
			consts[i][k] = id
		}
	}
	var triples []store.IDTriple
	st.ForEach(store.Pattern{}, func(tr store.IDTriple) bool {
		triples = append(triples, tr)
		return true
	})
	// unify extends b with the bindings that make pattern i match tr; b
	// itself is never written.
	unify := func(i int, tr store.IDTriple, b map[string]dict.ID) (map[string]dict.ID, bool) {
		tp := q.Patterns[i]
		nb := b
		for k, n := range [3]sparql.Node{tp.S, tp.P, tp.O} {
			val := [3]dict.ID{tr.S, tr.P, tr.O}[k]
			if !n.IsVar() {
				if consts[i][k] != val {
					return nil, false
				}
				continue
			}
			if old, ok := nb[n.Var]; ok {
				if old != val {
					return nil, false
				}
				continue
			}
			if len(nb) == len(b) {
				nb = maps.Clone(b)
			}
			nb[n.Var] = val
		}
		return nb, true
	}
	// Patterns sharing the most variables with the bindings so far go
	// first, which keeps the partial embeddings small; the set of full
	// embeddings does not depend on the order.
	used := make([]bool, len(q.Patterns))
	var order []int
	known := map[string]bool{}
	for range q.Patterns {
		best, bestScore := -1, -1
		for i, tp := range q.Patterns {
			if used[i] {
				continue
			}
			score := 0
			for _, n := range [3]sparql.Node{tp.S, tp.P, tp.O} {
				if !n.IsVar() || known[n.Var] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		used[best] = true
		order = append(order, best)
		for _, n := range [3]sparql.Node{q.Patterns[best].S, q.Patterns[best].P, q.Patterns[best].O} {
			if n.IsVar() {
				known[n.Var] = true
			}
		}
	}
	seen := map[string]bool{}
	var walk func(level int, b map[string]dict.ID)
	walk = func(level int, b map[string]dict.ID) {
		if level == len(order) {
			row := make([]dict.ID, len(q.Head))
			for j, v := range q.Head {
				row[j] = b[v]
			}
			if distinct {
				key := fmt.Sprint(row)
				if seen[key] {
					return
				}
				seen[key] = true
			}
			out.Rows = append(out.Rows, row)
			return
		}
		for _, tr := range triples {
			if nb, ok := unify(order[level], tr, b); ok {
				walk(level+1, nb)
			}
		}
	}
	walk(0, map[string]dict.ID{})
	out.SortRows()
	return out
}

// TestEvalAgainstNaive cross-checks the evaluator against the
// brute-force enumerator on random graphs and random chain and star
// queries, map-indexed and frozen.
func TestEvalAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	preds := []string{"p", "q", "r"}
	for trial := 0; trial < 50; trial++ {
		st := store.New()
		for i := 0; i < 60; i++ {
			st.Add(rdf.NewTriple(
				iri(fmt.Sprintf("n%d", rng.Intn(10))),
				iri(preds[rng.Intn(len(preds))]),
				iri(fmt.Sprintf("n%d", rng.Intn(10)))))
		}
		p0, p1, p2 := preds[rng.Intn(3)], preds[rng.Intn(3)], preds[rng.Intn(3)]
		queries := []string{
			fmt.Sprintf("q(x, z) :- x :%s y, y :%s z", p0, p1),
			fmt.Sprintf("q(x, z) :- x :%s y, y :%s z, z :%s x", p0, p1, p2),
			fmt.Sprintf("q(x) :- x :%s y, x :%s z, x :%s w", p0, p1, p2),
		}
		onBothStores(t, st, func(t *testing.T, st *store.Store) {
			for _, src := range queries {
				q := sparql.MustParseDatalog(src, px())
				for _, distinct := range []bool{true, false} {
					res, err := Eval(st, q, Options{Distinct: distinct})
					if err != nil {
						t.Fatal(err)
					}
					res.SortRows()
					label := fmt.Sprintf("trial %d %q distinct=%v", trial, src, distinct)
					requireIdentical(t, label, res, naiveEval(t, st, q, distinct))
				}
			}
		})
	}
}

func TestSortRowsDeterministic(t *testing.T) {
	res := &Result{Vars: []string{"a", "b"}, Rows: [][]dict.ID{{3, 1}, {1, 2}, {1, 1}}}
	res.SortRows()
	want := [][]dict.ID{{1, 1}, {1, 2}, {3, 1}}
	for i := range want {
		if res.Rows[i][0] != want[i][0] || res.Rows[i][1] != want[i][1] {
			t.Fatalf("SortRows: %v", res.Rows)
		}
	}
}

// BenchmarkEvalTwoHopJoin times a two-hop chain join over 50k random
// edges on a bulk-loaded store.
func BenchmarkEvalTwoHopJoin(b *testing.B) {
	st := store.New()
	rng := rand.New(rand.NewSource(5))
	ts := make([]store.IDTriple, 0, 50000)
	for i := 0; i < 50000; i++ {
		ts = append(ts, st.EncodeTriple(rdf.NewTriple(
			iri(fmt.Sprintf("n%d", rng.Intn(5000))),
			iri("knows"),
			iri(fmt.Sprintf("n%d", rng.Intn(5000))))))
	}
	st.AddBatch(ts)
	q := sparql.MustParseDatalog("q(x, z) :- x :knows y, y :knows z", px())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EvalSet(st, q); err != nil {
			b.Fatal(err)
		}
	}
}
