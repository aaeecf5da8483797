package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rdfcube/internal/dict"
	"rdfcube/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://e.org/" + s) }

func tri(s, p, o string) rdf.Triple {
	return rdf.NewTriple(iri(s), iri(p), iri(o))
}

func TestAddContains(t *testing.T) {
	st := New()
	tr := tri("s", "p", "o")
	if st.Contains(tr) {
		t.Error("empty store contains triple")
	}
	if !st.Add(tr) {
		t.Error("first Add must report new")
	}
	if st.Add(tr) {
		t.Error("second Add must report duplicate")
	}
	if !st.Contains(tr) || st.Len() != 1 {
		t.Error("triple not stored")
	}
	if st.Contains(tri("s", "p", "never-seen")) {
		t.Error("Contains of a never-interned object must report absent")
	}
}

func TestAllPatternShapes(t *testing.T) {
	st := New()
	d := st.Dict()
	// 3 subjects x 2 predicates x 2 objects.
	for s := 0; s < 3; s++ {
		for p := 0; p < 2; p++ {
			for o := 0; o < 2; o++ {
				st.Add(tri(fmt.Sprintf("s%d", s), fmt.Sprintf("p%d", p), fmt.Sprintf("o%d", o)))
			}
		}
	}
	id := func(local string) dict.ID {
		v, ok := d.Lookup(iri(local))
		if !ok {
			t.Fatalf("unknown term %s", local)
		}
		return v
	}
	cases := []struct {
		pat  Pattern
		want int
	}{
		{Pattern{}, 12},
		{Pattern{S: id("s0")}, 4},
		{Pattern{P: id("p0")}, 6},
		{Pattern{O: id("o0")}, 6},
		{Pattern{S: id("s0"), P: id("p1")}, 2},
		{Pattern{P: id("p1"), O: id("o1")}, 3},
		{Pattern{S: id("s2"), O: id("o1")}, 2},
		{Pattern{S: id("s1"), P: id("p0"), O: id("o0")}, 1},
	}
	for _, c := range cases {
		if got := len(st.Match(c.pat)); got != c.want {
			t.Errorf("Match(%+v) = %d results, want %d", c.pat, got, c.want)
		}
		if got := st.Count(c.pat); got != c.want {
			t.Errorf("Count(%+v) = %d, want %d", c.pat, got, c.want)
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	st := New()
	for i := 0; i < 10; i++ {
		st.Add(tri(fmt.Sprintf("s%d", i), "p", "o"))
	}
	n := 0
	st.ForEach(Pattern{}, func(IDTriple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("iterated %d triples after early stop, want 3", n)
	}
}

// TestMatchAgainstNaiveScan is the core store property: indexed pattern
// matching returns exactly what a full scan filtered by the pattern does.
func TestMatchAgainstNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	st := New()
	var all []IDTriple
	for i := 0; i < 500; i++ {
		tr := IDTriple{
			S: dict.ID(st.Dict().Encode(iri(fmt.Sprintf("s%d", rng.Intn(20))))),
			P: dict.ID(st.Dict().Encode(iri(fmt.Sprintf("p%d", rng.Intn(5))))),
			O: dict.ID(st.Dict().Encode(iri(fmt.Sprintf("o%d", rng.Intn(30))))),
		}
		if st.AddID(tr) {
			all = append(all, tr)
		}
	}
	naive := func(pat Pattern) map[IDTriple]bool {
		out := map[IDTriple]bool{}
		for _, tr := range all {
			if (pat.S == Wild || pat.S == tr.S) &&
				(pat.P == Wild || pat.P == tr.P) &&
				(pat.O == Wild || pat.O == tr.O) {
				out[tr] = true
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		var pat Pattern
		if rng.Intn(2) == 0 {
			pat.S = dict.ID(1 + rng.Intn(55))
		}
		if rng.Intn(2) == 0 {
			pat.P = dict.ID(1 + rng.Intn(55))
		}
		if rng.Intn(2) == 0 {
			pat.O = dict.ID(1 + rng.Intn(55))
		}
		want := naive(pat)
		got := st.Match(pat)
		if len(got) != len(want) {
			t.Fatalf("pattern %+v: %d matches, naive %d", pat, len(got), len(want))
		}
		for _, tr := range got {
			if !want[tr] {
				t.Fatalf("pattern %+v: unexpected match %+v", pat, tr)
			}
		}
		if st.Count(pat) != len(want) {
			t.Fatalf("pattern %+v: Count=%d, want %d", pat, st.Count(pat), len(want))
		}
	}
}

// subjects returns the distinct subjects of the triples with predicate p
// and object o (either may be Wild), ascending.
func subjects(st *Store, p, o dict.ID) []dict.ID {
	var ids []dict.ID
	st.ForEach(Pattern{P: p, O: o}, func(t IDTriple) bool { ids = append(ids, t.S); return true })
	slices.Sort(ids)
	return slices.Compact(ids)
}

// objects returns the distinct objects of the triples with subject s
// and predicate p (either may be Wild), ascending.
func objects(st *Store, s, p dict.ID) []dict.ID {
	var ids []dict.ID
	st.ForEach(Pattern{S: s, P: p}, func(t IDTriple) bool { ids = append(ids, t.O); return true })
	slices.Sort(ids)
	return slices.Compact(ids)
}

func TestSubjectsObjects(t *testing.T) {
	st := New()
	st.Add(tri("a", "p", "x"))
	st.Add(tri("a", "p", "y"))
	st.Add(tri("b", "p", "x"))
	p, _ := st.Dict().Lookup(iri("p"))
	if got := subjects(st, p, Wild); len(got) != 2 {
		t.Errorf("Subjects = %d, want 2", len(got))
	}
	a, _ := st.Dict().Lookup(iri("a"))
	if got := objects(st, a, p); len(got) != 2 {
		t.Errorf("Objects = %d, want 2", len(got))
	}
}

func TestStats(t *testing.T) {
	st := New()
	st.AddBatch([]IDTriple{
		st.EncodeTriple(tri("a", "p", "x")),
		st.EncodeTriple(tri("b", "p", "x")),
		st.EncodeTriple(tri("a", "q", "y")),
	})
	stats := st.Stats()
	if stats.Triples != 3 || stats.Predicates != 2 {
		t.Errorf("Stats = %+v", stats)
	}
	p, _ := st.Dict().Lookup(iri("p"))
	if st.PredicateCount(p) != 2 {
		t.Errorf("PredicateCount(p) = %d", st.PredicateCount(p))
	}
	if st.DistinctSubjects(p) != 2 || st.DistinctObjects(p) != 1 {
		t.Error("distinct counts wrong")
	}
}

func TestEstimateCardinalityExactShapes(t *testing.T) {
	st := New()
	for i := 0; i < 10; i++ {
		st.Add(tri(fmt.Sprintf("s%d", i%3), "p", fmt.Sprintf("o%d", i)))
	}
	p, _ := st.Dict().Lookup(iri("p"))
	if got := st.EstimateCardinality(Pattern{P: p}); got != 10 {
		t.Errorf("estimate for bound predicate = %g, want 10 (exact)", got)
	}
	if got := st.EstimateCardinality(Pattern{}); got != 10 {
		t.Errorf("estimate for full scan = %g, want 10", got)
	}
	s0, _ := st.Dict().Lookup(iri("s0"))
	if got := st.EstimateCardinality(Pattern{S: s0, P: p}); got != 4 {
		t.Errorf("estimate for s0,p = %g, want 4 (exact)", got)
	}
}

func TestSharedDictionary(t *testing.T) {
	d := dict.New()
	a := NewWithDict(d)
	b := NewWithDict(d)
	a.Add(tri("s", "p", "o"))
	// The same term must get the same ID in both stores.
	idA, _ := a.Dict().Lookup(iri("s"))
	b.Add(tri("s", "q", "o2"))
	idB, _ := b.Dict().Lookup(iri("s"))
	if idA != idB {
		t.Error("shared dictionary issued different IDs")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := New()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		var o rdf.Term
		switch rng.Intn(3) {
		case 0:
			o = iri(fmt.Sprintf("o%d", rng.Intn(40)))
		case 1:
			o = rdf.NewInt(int64(rng.Intn(100)))
		default:
			o = rdf.NewLangLiteral(fmt.Sprintf("text%d", rng.Intn(10)), "en")
		}
		st.Add(rdf.NewTriple(iri(fmt.Sprintf("s%d", rng.Intn(20))), iri(fmt.Sprintf("p%d", rng.Intn(5))), o))
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if back.Len() != st.Len() {
		t.Fatalf("round trip size %d, want %d", back.Len(), st.Len())
	}
	d := st.Dict()
	st.ForEach(Pattern{}, func(tr IDTriple) bool {
		term, _ := d.DecodeTriple(tr.S, tr.P, tr.O)
		if !back.Contains(term) {
			t.Errorf("round trip lost %v", term)
			return false
		}
		return true
	})
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("RDFC\x02"),         // bad version
		[]byte("RDFC\x01\xff\xff"), // truncated term count
	}
	for i, data := range cases {
		if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestSnapshotPropertyRoundTrip(t *testing.T) {
	f := func(subjects []uint8, lits []string) bool {
		st := New()
		for i, s := range subjects {
			var o rdf.Term
			if i < len(lits) {
				o = rdf.NewLiteral(lits[i])
			} else {
				o = rdf.NewInt(int64(s))
			}
			st.Add(rdf.NewTriple(iri(fmt.Sprintf("s%d", s%10)), iri("p"), o))
		}
		var buf bytes.Buffer
		if err := st.WriteSnapshot(&buf); err != nil {
			return false
		}
		back, err := ReadSnapshot(&buf)
		return err == nil && back.Len() == st.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	st := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Add(tri(fmt.Sprintf("s%d", i%1000), fmt.Sprintf("p%d", i%10), fmt.Sprintf("o%d", i)))
	}
}

func BenchmarkMatchBoundPredicate(b *testing.B) {
	st := New()
	ts := make([]IDTriple, 0, 100000)
	for i := 0; i < 100000; i++ {
		ts = append(ts, st.EncodeTriple(tri(fmt.Sprintf("s%d", i%1000), fmt.Sprintf("p%d", i%10), fmt.Sprintf("o%d", i))))
	}
	st.AddBatch(ts)
	p, _ := st.Dict().Lookup(iri("p3"))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		st.ForEach(Pattern{P: p}, func(IDTriple) bool { n++; return true })
	}
}

func TestEpochAdvancesOnWrites(t *testing.T) {
	st := New()
	e0 := st.Epoch()
	st.Add(tri("s", "p", "o"))
	e1 := st.Epoch()
	if e1 <= e0 {
		t.Fatalf("Epoch after Add = %d, want > %d", e1, e0)
	}
	if st.Add(tri("s", "p", "o")) {
		t.Fatal("duplicate Add reported new")
	}
	if st.Epoch() != e1 {
		t.Errorf("duplicate Add changed epoch: %d -> %d", e1, st.Epoch())
	}
	st.Freeze()
	if st.Epoch() <= e1 {
		t.Errorf("Epoch after compaction = %d, want > %d", st.Epoch(), e1)
	}
	e2 := st.Epoch()
	st.Freeze()
	if st.Epoch() != e2 {
		t.Errorf("no-op Freeze changed epoch: %d -> %d", e2, st.Epoch())
	}
	st.AddBatch([]IDTriple{st.EncodeTriple(tri("s", "p", "o2"))})
	if st.Epoch() <= e2 {
		t.Errorf("Epoch after AddBatch = %d, want > %d", st.Epoch(), e2)
	}
}

// TestReadSnapshotFrozen: the v1 reader loads its triples with one
// AddBatch, so the store comes back compacted — no pending delta, one
// base rebuild.
func TestReadSnapshotFrozen(t *testing.T) {
	st := New()
	for i := 0; i < 50; i++ {
		st.Add(tri(fmt.Sprintf("s%d", i%7), fmt.Sprintf("p%d", i%3), fmt.Sprintf("o%d", i)))
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.DeltaLen() != 0 || back.Version() != (Version{Base: 1}) {
		t.Errorf("ReadSnapshot left DeltaLen %d at version %+v, want 0 at base 1", back.DeltaLen(), back.Version())
	}
	if back.Len() != st.Len() {
		t.Errorf("size %d, want %d", back.Len(), st.Len())
	}
}
