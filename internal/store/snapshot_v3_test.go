package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rdfcube/internal/persist"
	"rdfcube/internal/rdf"
)

// writeV3File serializes st as a v3 snapshot into a temp file and
// returns its path.
func writeV3File(t *testing.T, st *Store) string {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteFrozenSnapshotV3(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openMappedT opens path as a mapped store and registers cleanup.
func openMappedT(t *testing.T, path string, opts MappedOptions) *Store {
	t.Helper()
	st, err := OpenFrozenSnapshotMapped(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.CloseMapped() })
	return st
}

func TestSnapshotV3HeapRoundtrip(t *testing.T) {
	st := buildTestStore(t, 300)
	st.Freeze()
	var buf bytes.Buffer
	if err := st.WriteFrozenSnapshotV3(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := OpenFrozenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.DeltaLen() != 0 {
		t.Fatal("reloaded store has a pending delta")
	}
	diffStores(t, st, got)
	for _, term := range st.Dict().Terms() {
		wantID, _ := st.Dict().Lookup(term)
		gotID, ok := got.Dict().Lookup(term)
		if !ok || gotID != wantID {
			t.Fatalf("term %v: ID %d vs %d (ok=%v)", term, wantID, gotID, ok)
		}
	}
}

func TestOpenFrozenSnapshotMappedDifferential(t *testing.T) {
	src := buildTestStore(t, 400)
	src.Freeze()
	path := writeV3File(t, src)

	heap, err := OpenFrozenSnapshot(func() *bytes.Reader {
		b, _ := os.ReadFile(path)
		return bytes.NewReader(b)
	}())
	if err != nil {
		t.Fatal(err)
	}
	mapped := openMappedT(t, path, MappedOptions{})
	if !mapped.Mapped() {
		t.Fatal("store does not report mapped")
	}
	diffStores(t, heap, mapped)
	diffStores(t, src, mapped)

	// The eight shapes again through cursors and the aggregates.
	for _, pat := range allPatterns(heap) {
		hs, ms := subjects(heap, pat.P, pat.O), subjects(mapped, pat.P, pat.O)
		if fmt.Sprint(hs) != fmt.Sprint(ms) {
			t.Fatalf("pattern %+v: Subjects %v vs %v", pat, hs, ms)
		}
		ho, mo := objects(heap, pat.S, pat.P), objects(mapped, pat.S, pat.P)
		if fmt.Sprint(ho) != fmt.Sprint(mo) {
			t.Fatalf("pattern %+v: Objects %v vs %v", pat, ho, mo)
		}
		hc, mc := heap.NewCursor(pat), mapped.NewCursor(pat)
		if hc.Len() != mc.Len() {
			t.Fatalf("pattern %+v: cursor Len %d vs %d", pat, hc.Len(), mc.Len())
		}
		for hc.Valid() || mc.Valid() {
			if hc.Valid() != mc.Valid() || hc.Triple() != mc.Triple() {
				t.Fatalf("pattern %+v: cursor diverges", pat)
			}
			hc.Next()
			mc.Next()
		}
	}

	if st, ok := mapped.MappedStats(); !ok || st.MappedBytes == 0 || st.BlockCacheMisses == 0 {
		t.Fatalf("implausible mapped stats: %+v ok=%v", st, ok)
	}
}

func TestMappedDictionary(t *testing.T) {
	src := buildTestStore(t, 150)
	src.Freeze()
	mapped := openMappedT(t, writeV3File(t, src), MappedOptions{TermCacheSlots: 4})

	// Every term resolves both directions with the same IDs; the tiny
	// cache forces constant eviction, which must not affect answers.
	for _, term := range src.Dict().Terms() {
		wantID, _ := src.Dict().Lookup(term)
		gotID, ok := mapped.Dict().Lookup(term)
		if !ok || gotID != wantID {
			t.Fatalf("term %v: ID %d vs %d (ok=%v)", term, wantID, gotID, ok)
		}
		back, ok := mapped.Dict().Decode(wantID)
		if !ok || back != term {
			t.Fatalf("ID %d: decoded %v, want %v", wantID, back, term)
		}
	}
	if _, ok := mapped.Dict().Lookup(rdf.NewIRI("http://ex.org/never-interned")); ok {
		t.Fatal("lookup of unknown term succeeded")
	}
	// Bulk materialization must agree with the source dictionary.
	want, got := src.Dict().Terms(), mapped.Dict().Terms()
	if len(want) != len(got) {
		t.Fatalf("Terms: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("Terms[%d]: %v vs %v", i, got[i], want[i])
		}
	}
	ms, _ := mapped.MappedStats()
	if ms.TermCacheMisses == 0 {
		t.Fatal("term cache recorded no misses")
	}
}

// TestMappedBlockCacheEviction pins the column block cache to a single
// slot, so every block access of one permutation evicts the previous
// one, and interleaves reads across all four permutations (worst-case
// thrash for a direct-mapped cache). Answers must stay identical to the
// heap twin, and the stats must show the cache actually churning.
func TestMappedBlockCacheEviction(t *testing.T) {
	src := buildTestStore(t, 500)
	src.Freeze()
	path := writeV3File(t, src)
	mapped := openMappedT(t, path, MappedOptions{BlockCacheSlots: 1})

	// Three interleaved rounds: the second and third run over blocks the
	// first round's accesses already evicted.
	for round := 0; round < 3; round++ {
		for _, pat := range allPatterns(src) {
			if got, want := mapped.Count(pat), src.Count(pat); got != want {
				t.Fatalf("round %d pattern %+v: Count %d, want %d", round, pat, got, want)
			}
			hc, mc := src.NewCursor(pat), mapped.NewCursor(pat)
			// Alternate Seek and Next so decodes jump between blocks.
			for hc.Valid() {
				if !mc.Valid() || hc.Triple() != mc.Triple() {
					t.Fatalf("round %d pattern %+v: cursor diverges", round, pat)
				}
				k := hc.Key()
				hc.Seek(k + 1)
				mc.Seek(k + 1)
			}
			if mc.Valid() {
				t.Fatalf("round %d pattern %+v: mapped cursor has extra rows", round, pat)
			}
		}
		diffStores(t, src, mapped)
	}
	ms, ok := mapped.MappedStats()
	if !ok || ms.BlockCacheMisses == 0 {
		t.Fatalf("no block-cache misses recorded: %+v", ms)
	}
	if ms.BlockCacheHits == 0 {
		t.Fatal("no block-cache hits recorded (sequential runs should hit)")
	}
	if ms.DecodeStallNanos == 0 {
		t.Fatal("no decode stall time recorded despite misses")
	}
}

func TestMappedWithDeltaDifferential(t *testing.T) {
	src := buildTestStore(t, 200)
	src.Freeze()
	path := writeV3File(t, src)
	mapped := openMappedT(t, path, MappedOptions{})
	heap, err := OpenFrozenSnapshot(func() *bytes.Reader {
		b, _ := os.ReadFile(path)
		return bytes.NewReader(b)
	}())
	if err != nil {
		t.Fatal(err)
	}

	// Writes land in the overlay of both stores; answers must agree.
	// Mix re-inserts (dedup against the mapped base) with fresh triples
	// that intern new terms over the lazy dictionary.
	for i := 0; i < 120; i++ {
		u := rdf.NewIRI(fmt.Sprintf("http://ex.org/user%d", i))
		tr := rdf.Triple{S: u, P: rdf.NewIRI("http://ex.org/follows"),
			O: rdf.NewIRI(fmt.Sprintf("http://ex.org/user%d", (i+7)%200))}
		if mapped.Add(tr) != heap.Add(tr) {
			t.Fatalf("add %d: newness diverges", i)
		}
		dup := rdf.Triple{S: u, P: rdf.Type, O: rdf.NewIRI("http://ex.org/User")}
		if mapped.Add(dup) {
			t.Fatalf("re-insert %d reported new on mapped store", i)
		}
	}
	if mapped.DeltaLen() != heap.DeltaLen() {
		t.Fatalf("delta length %d vs %d", mapped.DeltaLen(), heap.DeltaLen())
	}
	diffStores(t, heap, mapped)
}

func TestMappedSpilledDeltaDifferential(t *testing.T) {
	src := buildTestStore(t, 200)
	src.Freeze()
	path := writeV3File(t, src)
	mapped := openMappedT(t, path, MappedOptions{})
	heap, err := OpenFrozenSnapshot(func() *bytes.Reader {
		b, _ := os.ReadFile(path)
		return bytes.NewReader(b)
	}())
	if err != nil {
		t.Fatal(err)
	}
	mapped.SetSpill(nil, t.TempDir(), 25)

	for i := 0; i < 137; i++ {
		tr := rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex.org/user%d", i%50)),
			P: rdf.NewIRI("http://ex.org/scored"),
			O: rdf.NewInt(int64(i)),
		}
		if mapped.Add(tr) != heap.Add(tr) {
			t.Fatalf("add %d: newness diverges", i)
		}
	}
	if _, _, spills, lastErr := mapped.SpillStats(); spills == 0 || lastErr != nil {
		t.Fatalf("expected spills on mapped store (spills=%d err=%v)", spills, lastErr)
	}
	diffStores(t, heap, mapped)
}

func TestMappedFallbackToHeap(t *testing.T) {
	src := buildTestStore(t, 80)
	src.Freeze()
	var buf bytes.Buffer
	if err := src.WriteFrozenSnapshot(&buf); err != nil { // v2 writer
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v2.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenFrozenSnapshotMapped(path, MappedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mapped() {
		t.Fatal("v2 snapshot should fall back to the heap loader")
	}
	diffStores(t, src, st)
}

func TestMappedOpenRejectsCorruption(t *testing.T) {
	src := buildTestStore(t, 120)
	src.Freeze()
	path := writeV3File(t, src)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in every region of the file; every flip must surface
	// as a typed artifact error at open — never a wrong answer, never a
	// panic.
	for _, off := range []int{4, 20, len(raw) / 3, len(raw) / 2, len(raw) - 9} {
		bad := bytes.Clone(raw)
		bad[off] ^= 0x40
		p := filepath.Join(t.TempDir(), "bad.snap")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenFrozenSnapshotMapped(p, MappedOptions{})
		if err == nil {
			st.CloseMapped()
			t.Fatalf("offset %d: corrupted snapshot opened cleanly", off)
		}
		var ae *persist.ArtifactError
		if !errors.As(err, &ae) && !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("offset %d: error %v is neither ArtifactError nor ErrBadSnapshot", off, err)
		}
	}
}

func TestMappedVerifyFull(t *testing.T) {
	src := buildTestStore(t, 150)
	src.Freeze()
	path := writeV3File(t, src)
	st := openMappedT(t, path, MappedOptions{VerifyFull: true})
	diffStores(t, src, st)
}
