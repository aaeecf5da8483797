package bgp

// Differential tests of the cursor join engine: for every query shape,
// the merge-join and leapfrog paths must return byte-identical results
// (after canonical row sort) to the nested-loop reference, on
// frozen-only and frozen+delta stores — plus a fuzz-ish sweep over
// random graphs and random BGPs.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// diffTriples generates the random attribute/edge triples the
// differential graphs are built from.
func diffTriples(rng *rand.Rand, n int) []rdf.Triple {
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		s := iri(fmt.Sprintf("s%d", rng.Intn(20)))
		var tr rdf.Triple
		switch rng.Intn(4) {
		case 0:
			tr = rdf.NewTriple(s, iri(fmt.Sprintf("a%d", rng.Intn(4))), iri(fmt.Sprintf("v%d", rng.Intn(5))))
		case 1:
			tr = rdf.NewTriple(s, iri("next"), iri(fmt.Sprintf("s%d", rng.Intn(20))))
		case 2:
			tr = rdf.NewTriple(s, rdf.Type, iri(fmt.Sprintf("C%d", rng.Intn(3))))
		default:
			tr = rdf.NewTriple(s, iri(fmt.Sprintf("a%d", rng.Intn(4))), s) // self reference
		}
		ts = append(ts, tr)
	}
	return ts
}

// diffGraph generates a random attribute/edge graph. Half the triples
// land before Freeze (the frozen base), half after (the delta overlay)
// when split is true.
func diffGraph(rng *rand.Rand, n int, split bool) *store.Store {
	return frozenGraph(diffTriples(rng, n), split)
}

// frozenGraph bulk-loads ts into a store with AddBatch; with split, the
// second half lands afterwards through Add, in the delta overlay.
func frozenGraph(ts []rdf.Triple, split bool) *store.Store {
	st := store.New()
	cut := len(ts)
	if split {
		cut = len(ts) / 2
	}
	batch := make([]store.IDTriple, cut)
	for i, tr := range ts[:cut] {
		batch[i] = st.EncodeTriple(tr)
	}
	st.AddBatch(batch)
	for _, tr := range ts[cut:] {
		st.Add(tr)
	}
	return st
}

// deltaGraph loads every triple of ts through Add into the delta
// overlay of an empty base, below the compaction threshold: the twin of
// frozenGraph's store, down to the term IDs (the dictionary numbers
// terms in insertion order), read through the merged iterators.
func deltaGraph(ts []rdf.Triple) *store.Store {
	st := store.New()
	st.SetCompactThreshold(len(ts) + 1)
	for _, tr := range ts {
		st.Add(tr)
	}
	return st
}

// diffShapes are the eight query shapes of the differential matrix,
// spanning every operator combination the planner produces.
var diffShapes = []struct{ name, query string }{
	{"star2-merge", "q(x) :- x :a0 :v0, x :a1 :v1"},
	{"star3-leapfrog", "q(x) :- x :a0 :v0, x :a1 :v1, x :a2 :v2"},
	{"star5-leapfrog", "q(x) :- x :a0 :v0, x :a1 :v1, x :a2 :v2, x :a3 :v3, x rdf:type :C0"},
	{"chain-nested", "q(x, z) :- x :next y, y :next z"},
	{"mixed-star", "q(x, w) :- x :a0 :v0, x :a1 :v1, x :a2 w"},
	{"row-merge", "q(x, w) :- x rdf:type :C0, x :a1 w, x :a2 w"},
	{"cross-groups", "q(x, y) :- x :a0 :v0, x :a1 :v1, y :a2 :v2, y :a3 :v3"},
	{"self-loop", "q(x) :- x :a0 x, x :a1 :v1"},
}

// evalBoth evaluates q under the default plan and under the nested-loop
// reference plan, both canonically sorted. The default result is also
// asserted identical to the brute-force enumerator's (naiveEval), a leg
// that shares none of the pipeline's seed, fan-out or materialization
// code, so every differential test in the package is a three-way
// comparison.
func evalBoth(t *testing.T, st *store.Store, q *sparql.Query, bag bool) (*Result, *Result) {
	t.Helper()
	opts := Options{Distinct: !bag}
	cur, err := Eval(st, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.ForceNestedLoop = true
	ref, err := Eval(st, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	cur.SortRows()
	ref.SortRows()
	requireIdentical(t, "pipeline-vs-brute-force", cur, naiveEval(t, st, q, !bag))
	return cur, ref
}

func requireIdentical(t *testing.T, label string, cur, ref *Result) {
	t.Helper()
	if len(cur.Vars) != len(ref.Vars) {
		t.Fatalf("%s: vars %v vs %v", label, cur.Vars, ref.Vars)
	}
	for i := range cur.Vars {
		if cur.Vars[i] != ref.Vars[i] {
			t.Fatalf("%s: vars %v vs %v", label, cur.Vars, ref.Vars)
		}
	}
	if cur.Len() != ref.Len() {
		t.Fatalf("%s: %d rows vs %d (reference)", label, cur.Len(), ref.Len())
	}
	for i := range cur.Rows {
		if !idRowsEqual(cur.Rows[i], ref.Rows[i]) {
			t.Fatalf("%s: row %d differs: %v vs %v", label, i, cur.Rows[i], ref.Rows[i])
		}
	}
}

// TestCursorJoinDifferentialShapes runs the 8-shape matrix on
// frozen-only and frozen+delta stores, set and bag semantics.
func TestCursorJoinDifferentialShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 12; trial++ {
		for _, split := range []bool{false, true} {
			st := diffGraph(rng, 150+rng.Intn(250), split)
			if split && st.DeltaLen() == 0 {
				t.Fatal("split store has no delta overlay")
			}
			for _, shape := range diffShapes {
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

// renderRows decodes a result's rows against its own store's dictionary
// and returns them canonically sorted — comparable across stores whose
// term IDs differ (heap vs mapped).
func renderRows(t *testing.T, st *store.Store, r *Result) []string {
	t.Helper()
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for j, id := range row {
			term, ok := st.Dict().Decode(id)
			if !ok {
				t.Fatalf("dangling term ID %d in result row", id)
			}
			parts[j] = fmt.Sprintf("%v", term)
		}
		out = append(out, strings.Join(parts, "\t"))
	}
	sort.Strings(out)
	return out
}

// TestMappedVsHeapDifferentialShapes runs the 8-shape matrix over the
// SAME triples served two ways — heap columns and an mmap'd v3 snapshot
// (tiny block and term caches, so every shape churns through eviction)
// — on frozen-only and frozen+delta stores, every evalBoth leg. The
// backing must be invisible: decoded results byte-identical.
func TestMappedVsHeapDifferentialShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	dir := t.TempDir()
	for trial := 0; trial < 4; trial++ {
		for _, split := range []bool{false, true} {
			ts := diffTriples(rng, 150+rng.Intn(250))
			cut := len(ts)
			if split {
				cut = len(ts) / 2
			}
			heap := store.New()
			base := store.New()
			for _, tr := range ts[:cut] {
				heap.Add(tr)
				base.Add(tr)
			}
			heap.Freeze()
			base.Freeze()
			path := filepath.Join(dir, fmt.Sprintf("t%d-%v.snap", trial, split))
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := base.WriteFrozenBaseV3(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			mapped, err := store.OpenFrozenSnapshotMapped(path, store.MappedOptions{
				BlockCacheSlots: 8, TermCacheSlots: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !mapped.Mapped() {
				t.Fatal("v3 snapshot did not open mapped")
			}
			for _, tr := range ts[cut:] {
				heap.Add(tr)
				mapped.Add(tr)
			}
			for _, shape := range diffShapes {
				q := sparql.MustParseDatalog(shape.query, px())
				for _, bag := range []bool{false, true} {
					label := fmt.Sprintf("trial %d split=%v %s bag=%v", trial, split, shape.name, bag)
					hc, href := evalBoth(t, heap, q, bag)
					requireIdentical(t, label+" (heap)", hc, href)
					mc, mref := evalBoth(t, mapped, q, bag)
					requireIdentical(t, label+" (mapped)", mc, mref)
					hr := renderRows(t, heap, hc)
					mr := renderRows(t, mapped, mc)
					if len(hr) != len(mr) {
						t.Fatalf("%s: heap %d rows, mapped %d", label, len(hr), len(mr))
					}
					for i := range hr {
						if hr[i] != mr[i] {
							t.Fatalf("%s: row %d differs:\n heap   %s\n mapped %s", label, i, hr[i], mr[i])
						}
					}
				}
			}
			mapped.CloseMapped()
		}
	}
}

// TestCursorJoinDifferentialPlans double-checks that the matrix really
// exercises the cursor operators (a plan regression would silently turn
// the differential into nested-vs-nested).
func TestCursorJoinDifferentialPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st := diffGraph(rng, 400, false)
	wantCursor := map[string]string{
		"star2-merge":    "merge",
		"star3-leapfrog": "leapfrog",
		"star5-leapfrog": "leapfrog",
		"mixed-star":     "merge",
		"row-merge":      "merge",
		"cross-groups":   "merge",
	}
	for _, shape := range diffShapes {
		ops, err := explain(st, sparql.MustParseDatalog(shape.query, px()))
		if err != nil {
			t.Fatal(err)
		}
		plan := strings.Join(ops, ",")
		if op, ok := wantCursor[shape.name]; ok && !strings.Contains(plan, op) {
			t.Errorf("%s: plan %q no longer uses %s", shape.name, plan, op)
		}
	}
}

// TestCursorJoinFuzzDifferential: random small graphs, random BGPs of
// 2-5 patterns with random variable/constant positions — cursor engine
// vs nested reference.
func TestCursorJoinFuzzDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vars := []string{"x", "y", "z", "w"}
	consts := []string{":s1", ":s2", ":v0", ":v1", ":v2"}
	preds := []string{":a0", ":a1", ":a2", ":next"}
	trials := 150
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		st := diffGraph(rng, 60+rng.Intn(200), rng.Intn(2) == 0)
		np := 2 + rng.Intn(4)
		pats := make([]string, np)
		seen := map[string]bool{}
		for i := range pats {
			term := func(pool []string) string {
				if rng.Intn(2) == 0 {
					v := vars[rng.Intn(len(vars))]
					seen[v] = true
					return v
				}
				return pool[rng.Intn(len(pool))]
			}
			s := term(consts)
			p := preds[rng.Intn(len(preds))]
			if rng.Intn(4) == 0 {
				p = vars[rng.Intn(len(vars))]
				seen[p] = true
			}
			o := term(consts)
			pats[i] = fmt.Sprintf("%s %s %s", s, p, o)
		}
		if len(seen) == 0 {
			continue // fully ground body; head needs a variable
		}
		var head []string
		for _, v := range vars {
			if seen[v] {
				head = append(head, v)
			}
		}
		src := fmt.Sprintf("q(%s) :- %s", strings.Join(head, ", "), strings.Join(pats, ", "))
		q, err := sparql.ParseDatalog(src, px())
		if err != nil {
			t.Fatalf("trial %d: bad query %q: %v", trial, src, err)
		}
		for _, bag := range []bool{false, true} {
			cur, ref := evalBoth(t, st, q, bag)
			requireIdentical(t, fmt.Sprintf("trial %d %q bag=%v", trial, src, bag), cur, ref)
		}
	}
}
