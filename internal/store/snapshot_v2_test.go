package store

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rdfcube/internal/persist"
	"rdfcube/internal/rdf"
)

// buildTestStore populates a store with a deterministic mixed-shape
// graph: typed nodes, shared predicates, literals with datatypes and
// language tags.
func buildTestStore(t *testing.T, n int) *Store {
	t.Helper()
	st := New()
	for i := 0; i < n; i++ {
		u := rdf.NewIRI(fmt.Sprintf("http://ex.org/user%d", i))
		p := rdf.NewIRI(fmt.Sprintf("http://ex.org/post%d", i))
		st.Add(rdf.Triple{S: u, P: rdf.Type, O: rdf.NewIRI("http://ex.org/User")})
		st.Add(rdf.Triple{S: u, P: rdf.NewIRI("http://ex.org/age"), O: rdf.NewInt(int64(20 + i%9))})
		st.Add(rdf.Triple{S: u, P: rdf.NewIRI("http://ex.org/wrote"), O: p})
		st.Add(rdf.Triple{S: p, P: rdf.NewIRI("http://ex.org/label"), O: rdf.NewLangLiteral(fmt.Sprintf("post %d", i), "en")})
	}
	return st
}

// allPatterns returns one pattern per shape, using IDs present in st.
func allPatterns(st *Store) []Pattern {
	var tr IDTriple
	st.ForEach(Pattern{}, func(t IDTriple) bool { tr = t; return false })
	return []Pattern{
		{},
		{S: tr.S},
		{P: tr.P},
		{O: tr.O},
		{S: tr.S, P: tr.P},
		{P: tr.P, O: tr.O},
		{S: tr.S, O: tr.O},
		{S: tr.S, P: tr.P, O: tr.O},
	}
}

// diffStores fails the test when a and b disagree on any of the eight
// pattern shapes (probed with a's IDs — the dictionaries must assign
// identically for snapshots of the same store).
func diffStores(t *testing.T, a, b *Store) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("Len: %d != %d", a.Len(), b.Len())
	}
	if a.Dict().Len() != b.Dict().Len() {
		t.Fatalf("dict len: %d != %d", a.Dict().Len(), b.Dict().Len())
	}
	for _, pat := range allPatterns(a) {
		am, bm := a.Match(pat), b.Match(pat)
		if len(am) != len(bm) {
			t.Fatalf("pattern %+v: %d vs %d matches", pat, len(am), len(bm))
		}
		seen := make(map[IDTriple]bool, len(am))
		for _, tr := range am {
			seen[tr] = true
		}
		for _, tr := range bm {
			if !seen[tr] {
				t.Fatalf("pattern %+v: triple %+v only in reloaded store", pat, tr)
			}
		}
		if a.Count(pat) != b.Count(pat) {
			t.Fatalf("pattern %+v: count %d vs %d", pat, a.Count(pat), b.Count(pat))
		}
	}
}

func TestFrozenSnapshotRoundtrip(t *testing.T) {
	st := buildTestStore(t, 200)
	st.Freeze()
	var buf bytes.Buffer
	if err := st.WriteFrozenSnapshot(&buf); err != nil {
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
	// Dictionary IDs must be assigned identically.
	for _, term := range st.Dict().Terms() {
		wantID, _ := st.Dict().Lookup(term)
		gotID, ok := got.Dict().Lookup(term)
		if !ok || gotID != wantID {
			t.Fatalf("term %v: ID %d vs %d (ok=%v)", term, wantID, gotID, ok)
		}
	}
}

func TestFrozenSnapshotV1Fallback(t *testing.T) {
	st := buildTestStore(t, 50)
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil { // v1 writer
		t.Fatal(err)
	}
	got, err := OpenFrozenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.DeltaLen() != 0 {
		t.Fatal("v1 fallback store has a pending delta")
	}
	diffStores(t, st, got)
}

func TestFrozenSnapshotFoldsDelta(t *testing.T) {
	st := buildTestStore(t, 50)
	st.Freeze()
	st.Add(rdf.Triple{S: rdf.NewIRI("http://ex.org/late"), P: rdf.Type, O: rdf.NewIRI("http://ex.org/User")})
	if st.DeltaLen() != 1 {
		t.Fatalf("DeltaLen = %d, want 1", st.DeltaLen())
	}
	var buf bytes.Buffer
	if err := st.WriteFrozenSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if st.DeltaLen() != 0 {
		t.Fatal("WriteFrozenSnapshot must compact the pending delta")
	}
	got, err := OpenFrozenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	diffStores(t, st, got)
}

// TestMaplessWrites exercises the snapshot-loaded store under delta
// writes: dedup, merged reads, version accounting and threshold
// compaction, differentially against a twin built in memory.
func TestMaplessWrites(t *testing.T) {
	st := buildTestStore(t, 100)
	var buf bytes.Buffer
	if err := st.WriteFrozenSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenFrozenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Version().Base != st.Version().Base {
		t.Fatalf("base epoch %d, want %d", loaded.Version().Base, st.Version().Base)
	}

	// Duplicate insert must be rejected against the loaded base.
	dup := rdf.Triple{S: rdf.NewIRI("http://ex.org/user0"), P: rdf.Type, O: rdf.NewIRI("http://ex.org/User")}
	if loaded.Add(dup) {
		t.Fatal("duplicate accepted by snapshot-loaded store")
	}
	if loaded.DeltaLen() != 0 {
		t.Fatal("duplicate reached the delta overlay")
	}

	twin := buildTestStore(t, 100)
	twin.Freeze()
	loaded.SetCompactThreshold(64)
	twin.SetCompactThreshold(64)
	for i := 0; i < 200; i++ {
		tr := rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex.org/new%d", i%150)),
			P: rdf.NewIRI("http://ex.org/age"),
			O: rdf.NewInt(int64(i % 150)),
		}
		if loaded.Add(tr) != twin.Add(tr) {
			t.Fatalf("insert %d: accept disagreement", i)
		}
	}
	diffStores(t, twin, loaded)
	if loaded.Version().Base == st.Version().Base {
		t.Fatal("threshold compaction should have moved the base epoch")
	}

	// ContainsID after compaction.
	if !loaded.Contains(dup) {
		t.Fatal("lost a base triple across compaction")
	}
}

func TestOpenFrozenSnapshotErrors(t *testing.T) {
	st := buildTestStore(t, 40)
	var buf bytes.Buffer
	if err := st.WriteFrozenSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	check := func(name string, data []byte) {
		t.Helper()
		if _, err := OpenFrozenSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
	check("empty", nil)
	check("bad magic", []byte("NOPE\x02xxxx"))
	check("future version", []byte{'R', 'D', 'F', 'C', 9, 0})
	for _, cut := range []int{5, 20, len(good) / 2, len(good) - 1} {
		check(fmt.Sprintf("truncated at %d", cut), good[:cut])
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-10] ^= 0xff
	check("bit flip", flipped)
}

func TestOpenFrozenSnapshotDuplicateTerm(t *testing.T) {
	// Hand-build a v2 snapshot whose dictionary repeats a term; the
	// loader must reject it rather than silently mis-assign IDs.
	fw := persist.NewFileWriter(snapshotMagic, snapshotVersionFrozen)
	var meta persist.Enc
	meta.Uvarint(0) // base epoch
	meta.Uvarint(0) // triples
	meta.Uvarint(2) // terms
	fw.Section(secMeta, meta.Bytes())
	var de persist.Enc
	de.Uvarint(2)
	dupTerm := rdf.NewIRI("http://ex.org/dup")
	persist.EncodeTermBlock(&de, []rdf.Term{dupTerm, dupTerm})
	fw.Section(secDict, de.Bytes())
	for _, id := range []uint8{secSPO, secPOS, secOSP} {
		var e persist.Enc
		e.Uvarint(0)
		e.Uvarint(0)
		fw.Section(id, e.Bytes())
	}
	var buf bytes.Buffer
	if err := fw.Write(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := OpenFrozenSnapshot(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(fmt.Sprint(err), "duplicate term") {
		t.Fatalf("err = %v, want duplicate-term ErrBadSnapshot", err)
	}
}

func TestMergeCompactionMatchesBuild(t *testing.T) {
	// Compaction by sorted merge must produce exactly the layout a
	// from-scratch Freeze produces.
	a := buildTestStore(t, 80)
	a.Freeze()
	b := buildTestStore(t, 80)
	extra := func(st *Store) {
		for i := 0; i < 40; i++ {
			st.Add(rdf.Triple{
				S: rdf.NewIRI(fmt.Sprintf("http://ex.org/x%d", i)),
				P: rdf.NewIRI("http://ex.org/age"),
				O: rdf.NewInt(int64(i)),
			})
		}
	}
	extra(a) // lands in a's delta overlay
	a.Freeze()
	extra(b) // lands in b's maps
	b.Freeze()

	for _, pair := range []struct {
		name string
		pa   *permIndex
		pb   *permIndex
	}{
		{"spo", &a.frz.spo, &b.frz.spo},
		{"pos", &a.frz.pos, &b.frz.pos},
		{"osp", &a.frz.osp, &b.frz.osp},
	} {
		if pair.pa.len() != pair.pb.len() {
			t.Fatalf("%s: %d vs %d rows", pair.name, pair.pa.len(), pair.pb.len())
		}
		for i := 0; i < pair.pa.len(); i++ {
			if pair.pa.c1.at(i) != pair.pb.c1.at(i) || pair.pa.c2.at(i) != pair.pb.c2.at(i) || pair.pa.c3.at(i) != pair.pb.c3.at(i) {
				t.Fatalf("%s: row %d differs", pair.name, i)
			}
		}
	}
	diffStores(t, b, a)
}
