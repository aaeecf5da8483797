package bgp

// Batch-engine tests: differential coverage of the streamed chain steps
// (every permutation a stream can ride, including the PSO index), the
// sort property the pipeline declares on its results, and the
// ordering-aware projection fast paths.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rdfcube/internal/dict"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// streamShapes target the stream-step specialization: after the seed
// binds the key variable, each trailing pattern has one bound key,
// constants elsewhere and at most one free tail — one shape per
// permutation the planner can stream over.
var streamShapes = []struct{ name, query string }{
	{"pso-tail", "q(x, w) :- x :a0 :v0, x :a1 w"},    // key S, tail O → PSO
	{"pos-tail", "q(x, y) :- x :a0 :v0, y :next x"},  // key O, tail S → POS
	{"osp-tail", "q(x, p) :- x :a0 :v0, x p :v1"},    // key S, tail P → OSP
	{"spo-tail", "q(p, w) :- :s1 p :v0, :s2 p w"},    // key P, tail O → SPO
	{"existence", "q(x, y) :- x :next y, y :a0 :v0"}, // key + 2 consts, no tail
	{"double-stream", "q(x, z, w) :- x :next y, y :next z, z :a0 w"},
}

// TestBatchStreamDifferential: the stream shapes must be byte-identical
// across the default plan, the nested reference and the brute-force
// enumerator, on frozen-only and frozen+delta stores, set and bag
// semantics.
func TestBatchStreamDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	for trial := 0; trial < 10; trial++ {
		for _, split := range []bool{false, true} {
			st := diffGraph(rng, 150+rng.Intn(250), split)
			for _, shape := range streamShapes {
				q := sparql.MustParseDatalog(shape.query, px())
				for _, bag := range []bool{false, true} {
					label := fmt.Sprintf("trial %d split=%v %s bag=%v", trial, split, shape.name, bag)
					cur, ref := evalBoth(t, st, q, bag)
					requireIdentical(t, label, cur, ref)
				}
			}
		}
	}
}

// TestBatchStreamPlans pins the shapes to the stream operator on a
// frozen store — a planner regression would silently demote the matrix
// above to nested-vs-nested.
func TestBatchStreamPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := diffGraph(rng, 400, false)
	for _, shape := range streamShapes {
		ops, err := explain(st, sparql.MustParseDatalog(shape.query, px()))
		if err != nil {
			t.Fatal(err)
		}
		plan := strings.Join(ops, ",")
		if !strings.Contains(plan, "stream") {
			t.Errorf("%s: plan %q has no stream step", shape.name, plan)
		}
	}
}

// TestBatchSortedProperty: on every store — compacted, with a pending
// delta, delta-only — the pipeline must declare an order in
// Result.Sorted and deliver rows already sorted by it — strictly, when
// it claims Strict — without any post-hoc SortRows, under the default
// and the nested-loop plan alike.
func TestBatchSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ts := diffTriples(rng, 500)
	stores := []struct {
		name string
		st   *store.Store
	}{
		{"frozen", frozenGraph(ts, false)},
		{"frozen+delta", frozenGraph(ts, true)},
		{"delta only", deltaGraph(ts)},
	}
	queries := []string{
		"q(x, y, z) :- x :next y, y :next z",
		"q(x, w) :- x :a0 :v0, x :a1 :v1, x :a2 w",
		"q(x) :- x :a0 :v0, x :a1 :v1",
		"q(x, y) :- x :a0 :v0, x :a1 :v1, y :a2 :v2, y :a3 :v3",
	}
	for _, s := range stores {
		for _, src := range queries {
			q := sparql.MustParseDatalog(src, px())
			for _, bag := range []bool{false, true} {
				for _, nested := range []bool{false, true} {
					label := fmt.Sprintf("%s %s bag=%v nested=%v", s.name, src, bag, nested)
					res, err := Eval(s.st, q, Options{Distinct: !bag, ForceNestedLoop: nested})
					if err != nil {
						t.Fatal(err)
					}
					checkDeclaredOrder(t, label, res)
				}
			}
		}
	}
}

// checkDeclaredOrder asserts res declares a sort property and that its
// rows obey it.
func checkDeclaredOrder(t *testing.T, label string, res *Result) {
	t.Helper()
	if len(res.Sorted) == 0 {
		t.Fatalf("%s: result declares no sort property", label)
	}
	cols := make([]int, len(res.Sorted))
	for i, v := range res.Sorted {
		cols[i] = res.Column(v)
		if cols[i] < 0 {
			t.Fatalf("%s: sorted var %q not among result vars %v", label, v, res.Vars)
		}
	}
	for i := 1; i < res.Len(); i++ {
		c := compareOn(res.Rows[i-1], res.Rows[i], cols)
		if c > 0 {
			t.Fatalf("%s: rows %d,%d out of declared order %v", label, i-1, i, res.Sorted)
		}
		if c == 0 && res.Strict {
			t.Fatalf("%s: equal keys at rows %d,%d despite Strict", label, i-1, i)
		}
	}
}

func compareOn(a, b []dict.ID, cols []int) int {
	for _, c := range cols {
		if a[c] != b[c] {
			if a[c] < b[c] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// TestSortedProjectionHelpers covers the ordering-aware distinct fast
// paths: full coverage skips the dedup entirely, a sorted-prefix
// projection dedups adjacent runs, anything else falls back to hashing.
func TestSortedProjectionHelpers(t *testing.T) {
	r := &Result{Sorted: []string{"y", "x"}, Strict: true}
	if !r.sortedCovers([]string{"x", "y", "z"}) {
		t.Fatal("sortedCovers must accept a superset of the sorted vars")
	}
	if r.sortedCovers([]string{"x"}) {
		t.Fatal("sortedCovers must reject when a sorted var is projected away")
	}
	if (&Result{Sorted: []string{"y", "x"}}).sortedCovers([]string{"x", "y"}) {
		t.Fatal("sortedCovers requires Strict")
	}
	if k := r.sortedRunPrefix([]string{"x", "y"}); k != 2 {
		t.Fatalf("sortedRunPrefix = %d, want 2 (set equality with Sorted[:2])", k)
	}
	if k := r.sortedRunPrefix([]string{"y"}); k != 1 {
		t.Fatalf("sortedRunPrefix = %d, want 1", k)
	}
	if k := r.sortedRunPrefix([]string{"x"}); k != 0 {
		t.Fatalf("sortedRunPrefix = %d, want 0 (x is not the leading sorted var)", k)
	}
	if k := r.sortedRunPrefix([]string{"x", "z"}); k != 0 {
		t.Fatalf("sortedRunPrefix = %d, want 0 (z unsorted)", k)
	}

	rows := [][]dict.ID{{1, 1}, {1, 1}, {1, 2}, {2, 2}, {2, 2}, {2, 2}, {3, 1}}
	got := dedupAdjacentRows(rows)
	want := [][]dict.ID{{1, 1}, {1, 2}, {2, 2}, {3, 1}}
	if len(got) != len(want) {
		t.Fatalf("dedupAdjacentRows kept %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !idRowsEqual(got[i], want[i]) {
			t.Fatalf("row %d: %v, want %v", i, got[i], want[i])
		}
	}
}
