package store

// Differential and regression tests for the delta overlay: a store
// with pending writes must answer every read operation and all eight
// triple-pattern shapes identically to the test-only reference of
// frozen_test.go, the (baseEpoch, deltaSeq) version must separate "base
// rebuilt" from "delta grew", and the delta feed must replay exactly
// the accepted writes.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rdfcube/internal/dict"
)

// TestDeltaDifferentialAllShapes compacts a random store, streams more
// random writes through the overlay, and cross-checks every read
// operation against the reference. A second leg keeps every triple in
// the overlay of an empty base.
func TestDeltaDifferentialAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 10; trial++ {
		base := randomTriples(rng, 100+rng.Intn(300))
		st := newTestStore()
		st.AddBatch(append([]IDTriple(nil), base...))

		// Stream random writes; some are duplicates of existing triples
		// (no-ops).
		writes := randomTriples(rng, 60)
		added := 0
		for _, tr := range writes {
			if st.AddID(tr) {
				added++
			}
		}
		if st.DeltaLen() != added {
			t.Fatalf("DeltaLen = %d, want %d", st.DeltaLen(), added)
		}
		ref := newRef(base, writes)
		pats := randomPatterns(rng)
		checkAgainstRef(t, fmt.Sprintf("trial %d base+delta", trial), st, ref, pats)

		deltaOnly := newTestStore()
		for _, tr := range base {
			deltaOnly.AddID(tr)
		}
		for _, tr := range writes {
			deltaOnly.AddID(tr)
		}
		if deltaOnly.DeltaLen() != len(ref) {
			t.Fatalf("delta-only store: DeltaLen = %d, want %d", deltaOnly.DeltaLen(), len(ref))
		}
		checkAgainstRef(t, fmt.Sprintf("trial %d delta only", trial), deltaOnly, ref, pats)
	}
}

// TestDeltaMergedIterationSorted: ForEach on a frozen store with pending
// delta must still yield the chosen permutation's sorted order (the
// merge must interleave, not concatenate).
func TestDeltaMergedIterationSorted(t *testing.T) {
	st := New()
	for s := 10; s <= 50; s += 10 {
		st.AddID(IDTriple{S: dict.ID(s), P: 1, O: 1})
	}
	st.Freeze()
	// Delta subjects interleave with the base subjects.
	for _, s := range []dict.ID{5, 25, 45, 55} {
		st.AddID(IDTriple{S: s, P: 1, O: 1})
	}
	var got []dict.ID
	st.ForEach(Pattern{}, func(t IDTriple) bool {
		got = append(got, t.S)
		return true
	})
	want := []dict.ID{5, 10, 20, 25, 30, 40, 45, 50, 55}
	if !idsEqual(got, want) {
		t.Fatalf("merged iteration order = %v, want %v", got, want)
	}
	// Early stop mid-merge.
	n := 0
	st.ForEach(Pattern{}, func(IDTriple) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Fatalf("early stop visited %d triples, want 4", n)
	}
}

// TestVersionSemantics pins the (baseEpoch, deltaSeq) protocol: delta
// writes advance only Seq; compaction and AddBatch advance Base and
// reset Seq; no-op freezes and batches leave the version untouched.
func TestVersionSemantics(t *testing.T) {
	st := New()
	v0 := st.Version()

	// Bulk load: one base bump, no delta.
	st.AddBatch([]IDTriple{{S: 1, P: 2, O: 3}, {S: 1, P: 2, O: 3}})
	v1 := st.Version()
	if v1.Base != v0.Base+1 || v1.Seq != 0 {
		t.Fatalf("AddBatch: %+v -> %+v, want one base bump with seq 0", v0, v1)
	}

	// Freeze of a store with no delta: no version change.
	st.Freeze()
	if st.Version() != v1 {
		t.Fatalf("clean Freeze changed version: %+v -> %+v", v1, st.Version())
	}

	// Incremental writes: seq grows, base stable, epoch still advances.
	e1 := st.Epoch()
	st.AddID(IDTriple{S: 1, P: 2, O: 4})
	st.AddID(IDTriple{S: 1, P: 2, O: 5})
	v2 := st.Version()
	if v2.Base != v1.Base || v2.Seq != 2 {
		t.Fatalf("delta writes: %+v, want base %d seq 2", v2, v1.Base)
	}
	if st.Epoch() <= e1 {
		t.Fatal("Epoch did not advance across delta writes")
	}

	// Duplicate writes, incremental or bulk: no change.
	if st.AddID(IDTriple{S: 1, P: 2, O: 4}) {
		t.Fatal("duplicate AddID reported new")
	}
	if got := st.AddBatch([]IDTriple{{S: 1, P: 2, O: 3}, {S: 1, P: 2, O: 5}}); len(got) != 0 {
		t.Fatalf("duplicate AddBatch returned %v", got)
	}
	if st.Version() != v2 {
		t.Fatalf("duplicate write changed version: %+v", st.Version())
	}

	// The feed replays exactly the delta triples, in arrival order.
	feed := st.DeltaSince(0)
	if len(feed) != 2 || feed[0] != (IDTriple{S: 1, P: 2, O: 4}) || feed[1] != (IDTriple{S: 1, P: 2, O: 5}) {
		t.Fatalf("DeltaSince(0) = %v", feed)
	}
	if tail := st.DeltaSince(1); len(tail) != 1 || tail[0] != (IDTriple{S: 1, P: 2, O: 5}) {
		t.Fatalf("DeltaSince(1) = %v", tail)
	}
	if st.DeltaSince(2) != nil {
		t.Fatalf("DeltaSince(len) = %v, want nil", st.DeltaSince(2))
	}

	// Compaction: base bump, seq reset, feed gone.
	st.Freeze()
	v3 := st.Version()
	if v3.Base != v2.Base+1 || v3.Seq != 0 {
		t.Fatalf("compaction: %+v, want base bump with seq 0", v3)
	}
	if st.DeltaLen() != 0 || st.DeltaSince(0) != nil {
		t.Fatal("compaction left a delta feed behind")
	}

	// AddBatch over a pending delta folds it: one base bump.
	st.AddID(IDTriple{S: 9, P: 9, O: 9})
	st.AddBatch([]IDTriple{{S: 8, P: 8, O: 8}})
	if v4 := st.Version(); v4.Base != v3.Base+1 || v4.Seq != 0 || st.DeltaLen() != 0 {
		t.Fatalf("AddBatch over a delta: %+v (DeltaLen %d), want one base bump and no delta", v4, st.DeltaLen())
	}
	if st.Len() != 5 {
		t.Fatalf("Len = %d, want 5", st.Len())
	}
}

// TestCompactionThreshold: crossing the threshold folds the overlay into
// a rebuilt base automatically.
func TestCompactionThreshold(t *testing.T) {
	st := New()
	st.AddBatch([]IDTriple{{S: 1, P: 1, O: 1}})
	st.SetCompactThreshold(8)
	base := st.Version().Base
	for o := dict.ID(2); st.Version().Base == base; o++ {
		if o > 100 {
			t.Fatal("no compaction after 99 delta writes with threshold 8")
		}
		st.AddID(IDTriple{S: 1, P: 1, O: o})
	}
	if st.DeltaLen() != 0 {
		t.Fatalf("DeltaLen after auto-compaction = %d", st.DeltaLen())
	}
	if got := st.Count(Pattern{S: 1}); got != 9 {
		t.Fatalf("Count after auto-compaction = %d, want 9 (1 base + 8 delta)", got)
	}
	// Writes continue into a fresh overlay.
	st.AddID(IDTriple{S: 2, P: 1, O: 1})
	if st.DeltaLen() != 1 {
		t.Fatalf("DeltaLen after post-compaction write = %d, want 1", st.DeltaLen())
	}
}

// TestSnapshotWithPendingDelta: WriteSnapshot must serialize the merged
// contents, not just the frozen base.
func TestSnapshotWithPendingDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	st := randomTripleStore(rng, 150)
	st.Freeze()
	for i := 0; i < 20; i++ {
		st.AddID(IDTriple{
			S: dict.ID(1 + rng.Intn(25)),
			P: dict.ID(26 + rng.Intn(8)),
			O: dict.ID(34 + rng.Intn(20)),
		})
	}
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != st.Len() {
		t.Fatalf("snapshot size %d, want %d", back.Len(), st.Len())
	}
	st.ForEach(Pattern{}, func(tr IDTriple) bool {
		if !back.ContainsID(tr) {
			t.Fatalf("snapshot lost %+v", tr)
		}
		return true
	})
}
