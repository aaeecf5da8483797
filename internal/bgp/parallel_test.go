package bgp

// Differential tests for the evaluation pipeline: the compacted-store
// path and the parallel worker partitioning must produce exactly the
// result sets of the delta-only, sequential path.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// randomGraph builds a random multi-hop graph in the style of the core
// package's property-test generator. Every triple stays in the delta
// overlay of an empty base: the threshold is lifted so no write compacts.
func randomGraph(rng *rand.Rand, facts int) *store.Store {
	st := store.New()
	st.SetCompactThreshold(math.MaxInt32)
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	for f := 0; f < facts; f++ {
		x := iri(fmt.Sprintf("fact%d", f))
		add(x, rdf.Type, iri("Fact"))
		for d := 0; d < 2; d++ {
			if rng.Float64() < 0.15 {
				continue
			}
			prop := iri(fmt.Sprintf("dim%d", d))
			add(x, prop, rdf.NewInt(int64(rng.Intn(4))))
			if rng.Float64() < 0.35 {
				add(x, prop, rdf.NewInt(int64(4+rng.Intn(3))))
			}
		}
		nm := rng.Intn(4)
		for m := 0; m < nm; m++ {
			e := iri(fmt.Sprintf("ev%d_%d", f, m))
			add(x, iri("did"), e)
			add(e, iri("score"), rdf.NewInt(int64(1+rng.Intn(5))))
		}
	}
	return st
}

func canonicalRows(res *Result) [][]dict64 {
	rows := make([][]dict64, len(res.Rows))
	for i, r := range res.Rows {
		c := make([]dict64, len(r))
		for j, id := range r {
			c[j] = dict64(id)
		}
		rows[i] = c
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return rows
}

type dict64 uint64

func sameRows(a, b [][]dict64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

var diffQueries = []string{
	"q(x, d0) :- x rdf:type :Fact, x :dim0 d0",
	"q(x, v) :- x rdf:type :Fact, x :did e, e :score v",
	"q(d0, d1, v) :- x rdf:type :Fact, x :dim0 d0, x :dim1 d1, x :did e, e :score v",
	"q(x, p, o) :- x p o",
	"q(s) :- s :dim0 w, s :dim1 w", // repeated variable across patterns
}

// TestFrozenVsMapEvaluation: identical result bags on a delta-only store
// (the leg "maps" names, see onBothStores) and on its compacted twin,
// for set and bag semantics.
func TestFrozenVsMapEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	deltaOnly := randomGraph(rng, 150)
	compacted := randomGraph(rand.New(rand.NewSource(11)), 150)
	compacted.Freeze()
	if deltaOnly.DeltaLen() == 0 || compacted.DeltaLen() != 0 {
		t.Fatal("twin stores do not cover both representations")
	}
	for qi, text := range diffQueries {
		q, err := sparql.ParseDatalog(text, px())
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		for _, distinct := range []bool{true, false} {
			deltaRes, err := Eval(deltaOnly, q, Options{Distinct: distinct})
			if err != nil {
				t.Fatal(err)
			}
			frzRes, err := Eval(compacted, q, Options{Distinct: distinct})
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(canonicalRows(deltaRes), canonicalRows(frzRes)) {
				t.Fatalf("query %d distinct=%v: compacted path diverged\n delta:  %d rows\n frozen: %d rows",
					qi, distinct, deltaRes.Len(), frzRes.Len())
			}
		}
	}
}

// TestParallelVsSequential: forcing multiple workers over a seed set
// small enough that the auto-heuristic would stay sequential must not
// change the result bag — over the delta-only and the compacted store.
// Workers split the seed batches, so the graph holds enough facts for
// every query's seed to span several batchRows-row batches.
func TestParallelVsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	defer func() { Workers = 0 }()
	onBothStores(t, randomGraph(rng, 3*batchRows), func(t *testing.T, st *store.Store) {
		for qi, text := range diffQueries {
			q, err := sparql.ParseDatalog(text, px())
			if err != nil {
				t.Fatalf("query %d: %v", qi, err)
			}
			Workers = 1
			seq, err := EvalBag(st, q)
			if err != nil {
				t.Fatal(err)
			}
			Workers = 4
			par, err := EvalBag(st, q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(canonicalRows(seq), canonicalRows(par)) {
				t.Fatalf("query %d: parallel evaluation diverged (%d vs %d rows)",
					qi, seq.Len(), par.Len())
			}
		}
	})
}
