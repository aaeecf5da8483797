package store

// Differential tests: every read operation, for all eight triple-pattern
// shapes, must agree with a test-only reference — a triple slice with a
// linear pattern filter, sharing no index code with the store — on
// random instances mirroring the generator style of
// internal/core/property_test.go (multi-valued, heterogeneous, skewed).
// The store legs cover every way a store gets its triples: one AddBatch
// into an empty base, AddID into the delta overlay of an empty base,
// and AddBatch onto a base with a pending delta.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"rdfcube/internal/dict"
	"rdfcube/internal/rdf"
)

func mkTerm(i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://e.org/t%d", i)) }

// randomTriple draws one triple from small ID domains (dense collisions
// exercise runs and duplicates).
func randomTriple(rng *rand.Rand) IDTriple {
	t := IDTriple{
		S: dict.ID(1 + rng.Intn(25)),
		P: dict.ID(26 + rng.Intn(8)),
		O: dict.ID(34 + rng.Intn(20)),
	}
	if rng.Intn(10) == 0 {
		// Occasionally reuse a subject as object (graph shape).
		t.O = dict.ID(1 + rng.Intn(25))
	}
	return t
}

func randomTriples(rng *rand.Rand, n int) []IDTriple {
	ts := make([]IDTriple, n)
	for i := range ts {
		ts[i] = randomTriple(rng)
	}
	return ts
}

// newTestStore returns an empty store whose dictionary holds IDs 1..60,
// the domain randomTriple and randomPatterns draw from.
func newTestStore() *Store {
	st := New()
	for i := 0; i < 60; i++ {
		st.Dict().Encode(mkTerm(i))
	}
	return st
}

// randomTripleStore fills a store with n random triples through the
// incremental write path (AddID into the delta overlay).
func randomTripleStore(rng *rand.Rand, n int) *Store {
	st := newTestStore()
	for _, t := range randomTriples(rng, n) {
		st.AddID(t)
	}
	return st
}

// refStore is the reference the differentials check against: a
// deduplicated triple slice, queried by a linear filter.
type refStore []IDTriple

func newRef(batches ...[]IDTriple) refStore {
	seen := map[IDTriple]bool{}
	var ref refStore
	for _, ts := range batches {
		for _, t := range ts {
			if !seen[t] {
				seen[t] = true
				ref = append(ref, t)
			}
		}
	}
	return ref
}

func (r refStore) match(pat Pattern) []IDTriple {
	var out []IDTriple
	for _, t := range r {
		if (pat.S == Wild || pat.S == t.S) && (pat.P == Wild || pat.P == t.P) && (pat.O == Wild || pat.O == t.O) {
			out = append(out, t)
		}
	}
	sortTriples(out)
	return out
}

func (r refStore) contains(t IDTriple) bool {
	for _, x := range r {
		if x == t {
			return true
		}
	}
	return false
}

// distinct projects the matches of pat with f, sorted and deduplicated.
func (r refStore) distinct(pat Pattern, f func(IDTriple) dict.ID) []dict.ID {
	seen := map[dict.ID]bool{}
	var out []dict.ID
	for _, t := range r.match(pat) {
		if v := f(t); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sortIDs(out)
	return out
}

func subjectOf(t IDTriple) dict.ID { return t.S }
func objectOf(t IDTriple) dict.ID  { return t.O }

// checkAgainstRef cross-checks every read operation of st against ref
// for each pattern.
func checkAgainstRef(t *testing.T, label string, st *Store, ref refStore, pats []Pattern) {
	t.Helper()
	if st.Len() != len(ref) {
		t.Fatalf("%s: Len = %d, reference %d", label, st.Len(), len(ref))
	}
	for _, tr := range ref {
		if !st.ContainsID(tr) {
			t.Fatalf("%s: ContainsID(%+v) = false", label, tr)
		}
	}
	for _, pat := range pats {
		want := ref.match(pat)
		got := st.Match(pat)
		sortTriples(got)
		if !triplesEqual(got, want) {
			t.Fatalf("%s pattern %+v: Match differs\n store: %v\n ref:   %v", label, pat, got, want)
		}
		if got := st.Count(pat); got != len(want) {
			t.Fatalf("%s pattern %+v: Count %d, reference %d", label, pat, got, len(want))
		}
		if got := st.EstimateCardinality(pat); got != float64(len(want)) {
			t.Fatalf("%s pattern %+v: estimate %v != exact count %d", label, pat, got, len(want))
		}
		var each []IDTriple
		st.ForEach(pat, func(tr IDTriple) bool { each = append(each, tr); return true })
		sortTriples(each)
		if !triplesEqual(each, want) {
			t.Fatalf("%s pattern %+v: ForEach differs\n store: %v\n ref:   %v", label, pat, each, want)
		}
		subj, wantS := st.Subjects(pat.P, pat.O), ref.distinct(Pattern{P: pat.P, O: pat.O}, subjectOf)
		if !idsEqual(subj, wantS) {
			t.Fatalf("%s pattern %+v: Subjects differ\n store: %v\n ref:   %v", label, pat, subj, wantS)
		}
		obj, wantO := st.Objects(pat.S, pat.P), ref.distinct(Pattern{S: pat.S, P: pat.P}, objectOf)
		if !idsEqual(obj, wantO) {
			t.Fatalf("%s pattern %+v: Objects differ\n store: %v\n ref:   %v", label, pat, obj, wantO)
		}
	}
	// ForEach early stop.
	n := 0
	st.ForEach(Pattern{}, func(IDTriple) bool {
		n++
		return n < 3
	})
	if st.Len() >= 3 && n != 3 {
		t.Fatalf("%s: early stop visited %d triples", label, n)
	}
}

func sortTriples(ts []IDTriple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.O < b.O
	})
}

func sortIDs(ids []dict.ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func triplesEqual(a, b []IDTriple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func idsEqual(a, b []dict.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomPatterns yields patterns covering all eight shapes, with bound
// positions drawn from both present and absent IDs.
func randomPatterns(rng *rand.Rand) []Pattern {
	pick := func() dict.ID { return dict.ID(1 + rng.Intn(58)) }
	var pats []Pattern
	for shape := 0; shape < 8; shape++ {
		for rep := 0; rep < 6; rep++ {
			var p Pattern
			if shape&4 != 0 {
				p.S = pick()
			}
			if shape&2 != 0 {
				p.P = pick()
			}
			if shape&1 != 0 {
				p.O = pick()
			}
			pats = append(pats, p)
		}
	}
	return pats
}

// TestFrozenDifferentialAllShapes cross-checks every read operation of
// a store built by one AddBatch, and of its twin built by AddID then
// compacted, against the reference.
func TestFrozenDifferentialAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		ts := randomTriples(rng, 50+rng.Intn(400))
		ref := newRef(ts)
		pats := randomPatterns(rng)

		batch := newTestStore()
		if got := batch.AddBatch(append([]IDTriple(nil), ts...)); len(got) != len(ref) {
			t.Fatalf("trial %d: AddBatch returned %d new triples, reference %d", trial, len(got), len(ref))
		}
		if batch.DeltaLen() != 0 {
			t.Fatalf("trial %d: AddBatch left a delta of %d", trial, batch.DeltaLen())
		}
		checkAgainstRef(t, fmt.Sprintf("trial %d batch", trial), batch, ref, pats)

		compacted := newTestStore()
		for _, tr := range ts {
			compacted.AddID(tr)
		}
		compacted.Freeze()
		checkAgainstRef(t, fmt.Sprintf("trial %d compacted", trial), compacted, ref, pats)
	}
}

// TestAddBatchDifferential feeds AddBatch a batch that repeats triples
// from itself, from the base and from a pending delta — on an empty
// base and on a base with a pending delta — and checks the returned new
// prefix and every read operation against the reference.
func TestAddBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		base := randomTriples(rng, 20+rng.Intn(150))
		pending := randomTriples(rng, 1+rng.Intn(40))
		fresh := randomTriples(rng, 1+rng.Intn(150))
		// The batch repeats fresh triples, base triples and delta triples.
		batch := append([]IDTriple(nil), fresh...)
		batch = append(batch, fresh[:len(fresh)/2]...)
		batch = append(batch, base[:len(base)/3]...)
		batch = append(batch, pending[:len(pending)/2+1]...)
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		pats := randomPatterns(rng)

		for _, leg := range []string{"empty base", "base with pending delta"} {
			st := newTestStore()
			var before refStore
			if leg != "empty base" {
				st.AddBatch(append([]IDTriple(nil), base...))
				for _, tr := range pending {
					st.AddID(tr)
				}
				before = newRef(base, pending)
				if st.DeltaLen() == 0 {
					t.Fatalf("trial %d %s: no pending delta", trial, leg)
				}
			}
			label := fmt.Sprintf("trial %d %s", trial, leg)
			v0 := st.Version()
			got := st.AddBatch(append([]IDTriple(nil), batch...))
			ref := newRef(before, batch)

			// The returned prefix is exactly the new triples, in (S, P, O)
			// order, each once.
			var want []IDTriple
			for _, tr := range newRef(batch) {
				if !before.contains(tr) {
					want = append(want, tr)
				}
			}
			sortTriples(want)
			if !triplesEqual(got, want) {
				t.Fatalf("%s: AddBatch returned %v, want %v", label, got, want)
			}
			if st.DeltaLen() != 0 {
				t.Fatalf("%s: AddBatch left a delta of %d", label, st.DeltaLen())
			}
			if v := st.Version(); v.Base != v0.Base+1 || v.Seq != 0 {
				t.Fatalf("%s: version %+v -> %+v, want one base bump", label, v0, v)
			}
			checkAgainstRef(t, label, st, ref, pats)

			// Re-adding the same batch finds nothing new and changes nothing.
			v1 := st.Version()
			if again := st.AddBatch(append([]IDTriple(nil), batch...)); len(again) != 0 {
				t.Fatalf("%s: repeated AddBatch returned %d new triples", label, len(again))
			}
			if st.Version() != v1 {
				t.Fatalf("%s: no-op AddBatch changed the version", label)
			}
		}
	}
}

// TestFrozenStats checks the base's distinct statistics against the
// reference: exact on a compacted store, upper bounds under a pending
// delta.
func TestFrozenStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := randomTriples(rng, 300)
	ref := newRef(ts)
	st := newTestStore()
	st.AddBatch(append([]IDTriple(nil), ts...))
	delta := newTestStore()
	for _, tr := range ts {
		delta.AddID(tr)
	}

	all := func(f func(IDTriple) dict.ID) int { return len(ref.distinct(Pattern{}, f)) }
	for p := dict.ID(1); p < 60; p++ {
		wantS := len(ref.distinct(Pattern{P: p}, subjectOf))
		wantO := len(ref.distinct(Pattern{P: p}, objectOf))
		if got := st.DistinctSubjects(p); got != wantS {
			t.Fatalf("DistinctSubjects(%d) = %d, reference %d", p, got, wantS)
		}
		if got := st.DistinctObjects(p); got != wantO {
			t.Fatalf("DistinctObjects(%d) = %d, reference %d", p, got, wantO)
		}
		if got := delta.DistinctSubjects(p); got < wantS {
			t.Fatalf("delta DistinctSubjects(%d) = %d, below reference %d", p, got, wantS)
		}
		if got := delta.DistinctObjects(p); got < wantO {
			t.Fatalf("delta DistinctObjects(%d) = %d, below reference %d", p, got, wantO)
		}
		if got, want := st.PredicateCount(p), len(ref.match(Pattern{P: p})); got != want {
			t.Fatalf("PredicateCount(%d) = %d, reference %d", p, got, want)
		}
	}
	if got, want := st.DistinctSubjectsAll(), all(subjectOf); got != want {
		t.Fatalf("DistinctSubjectsAll = %d, reference %d", got, want)
	}
	if got, want := st.DistinctObjectsAll(), all(objectOf); got != want {
		t.Fatalf("DistinctObjectsAll = %d, reference %d", got, want)
	}
	if got, want := delta.DistinctSubjectsAll(), all(subjectOf); got < want {
		t.Fatalf("delta DistinctSubjectsAll = %d, below reference %d", got, want)
	}
}

// TestWriteAfterFreezeLandsInDelta: writes after Freeze must keep the
// compacted base (landing in the delta overlay), be visible immediately,
// and an explicit re-Freeze must compact them into a consistent index.
func TestWriteAfterFreezeLandsInDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	st := randomTripleStore(rng, 120)
	st.Freeze()

	fresh := IDTriple{S: 2, P: 27, O: 59}
	for st.ContainsID(fresh) {
		fresh.O-- // find a triple not yet present
	}
	before := st.Count(Pattern{P: fresh.P})
	base := st.Version().Base

	if !st.AddID(fresh) {
		t.Fatal("AddID reported duplicate for a missing triple")
	}
	if st.DeltaLen() != 1 || st.Version().Base != base {
		t.Fatalf("AddID rebuilt the base instead of using the delta overlay (DeltaLen %d)", st.DeltaLen())
	}
	if !st.ContainsID(fresh) {
		t.Fatal("triple invisible after post-freeze write")
	}
	if got := st.Count(Pattern{P: fresh.P}); got != before+1 {
		t.Fatalf("Count after write: got %d, want %d", got, before+1)
	}

	// Explicit Freeze compacts the overlay into a rebuilt base.
	st.Freeze()
	if st.DeltaLen() != 0 {
		t.Fatal("Freeze did not compact the delta")
	}
	if !st.ContainsID(fresh) {
		t.Fatal("compacted index lost the new triple")
	}
	if got := st.Count(Pattern{P: fresh.P}); got != before+1 {
		t.Fatalf("frozen Count after compaction: got %d, want %d", got, before+1)
	}
}

// TestFreezeEmptyStore: freezing an empty store must be safe.
func TestFreezeEmptyStore(t *testing.T) {
	st := New()
	st.Freeze()
	if got := st.Count(Pattern{}); got != 0 {
		t.Fatalf("empty frozen store Count = %d", got)
	}
	if m := st.Match(Pattern{S: 1}); len(m) != 0 {
		t.Fatalf("empty frozen store Match = %v", m)
	}
	st.ForEach(Pattern{}, func(IDTriple) bool {
		t.Fatal("callback on empty store")
		return false
	})
	if got := st.AddBatch(nil); len(got) != 0 {
		t.Fatalf("AddBatch(nil) = %v", got)
	}
}
