package store

// Tests of the fourth (PSO) permutation: construction at Freeze time,
// the predicate-keyed subject cursor over frozen and frozen+delta
// stores, snapshot roundtrip, the rebuild fallback for snapshots that
// predate the section, and the PatternColumnRange windows the batch
// engine's seed scans bulk-copy from.

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"rdfcube/internal/dict"
	"rdfcube/internal/persist"
)

// psoReference returns every triple with predicate p in (S, O) order —
// the order NewCursorPSO promises.
func psoReference(st *Store, p dict.ID) []IDTriple {
	var want []IDTriple
	st.ForEach(Pattern{P: p}, func(tr IDTriple) bool {
		want = append(want, tr)
		return true
	})
	sort.Slice(want, func(i, j int) bool {
		if want[i].S != want[j].S {
			return want[i].S < want[j].S
		}
		return want[i].O < want[j].O
	})
	return want
}

func TestPSOCursorMatchesForEach(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		fo, wd := cursorStores(rng, 80+rng.Intn(300))
		for _, st := range []*Store{fo, wd} {
			for p := dict.ID(26); p < 34; p++ {
				want := psoReference(st, p)
				var got []IDTriple
				last := dict.NoID
				for c := st.NewCursorPSO(p); c.Valid(); c.Next() {
					if len(got) > 0 && c.Key() < last {
						t.Fatalf("trial %d delta=%d p=%d: subject keys decreased (%d after %d)",
							trial, st.DeltaLen(), p, c.Key(), last)
					}
					last = c.Key()
					got = append(got, c.Triple())
				}
				if !triplesEqual(got, want) {
					t.Fatalf("trial %d delta=%d p=%d: PSO stream differs\n got:  %v\n want: %v",
						trial, st.DeltaLen(), p, got, want)
				}
				if c := st.NewCursorPSO(p); c.Len() != len(want) {
					t.Fatalf("p=%d: Len = %d, want %d", p, c.Len(), len(want))
				}
			}
		}
	}
}

// TestPSOCursorSeek: Seek(s) must land on the first triple whose
// subject is >= s, matching a linear scan over the (S, O)-ordered
// reference — the access pattern of the batch engine's stream steps.
func TestPSOCursorSeek(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 6; trial++ {
		fo, wd := cursorStores(rng, 60+rng.Intn(300))
		for _, st := range []*Store{fo, wd} {
			p := dict.ID(26 + rng.Intn(8))
			all := psoReference(st, p)
			for v := dict.ID(0); v < 62; v += dict.ID(1 + rng.Intn(5)) {
				c := st.NewCursorPSO(p)
				c.Seek(v)
				wantIdx := -1
				for i, tr := range all {
					if tr.S >= v {
						wantIdx = i
						break
					}
				}
				if wantIdx < 0 {
					if c.Valid() {
						t.Fatalf("p=%d seek %d: want exhausted, got %+v", p, v, c.Triple())
					}
					continue
				}
				if !c.Valid() || c.Triple() != all[wantIdx] {
					t.Fatalf("p=%d seek %d: got %+v valid=%v, want %+v",
						p, v, c.Triple(), c.Valid(), all[wantIdx])
				}
			}
		}
	}
}

// TestPSOCursorUnfrozen: a PSO cursor on a store whose only triple sits
// in the delta overlay (never compacted) sees it.
func TestPSOCursorUnfrozen(t *testing.T) {
	st := New()
	st.AddID(IDTriple{S: 1, P: 2, O: 3})
	if c := st.NewCursorPSO(2); !c.Valid() || c.Triple() != (IDTriple{S: 1, P: 2, O: 3}) {
		t.Fatal("PSO cursor on a delta-only store must see the overlay")
	}
	if c := st.NewCursorPSO(3); c.Valid() {
		t.Fatal("PSO cursor over an absent predicate must be exhausted")
	}
}

// permsEqual compares the full columnar content of two permutations.
func permsEqual(a, b *permIndex) bool {
	if a.len() != b.len() || len(a.keys) != len(b.keys) {
		return false
	}
	for i := range a.keys {
		if a.keys[i] != b.keys[i] || a.off[i+1] != b.off[i+1] {
			return false
		}
	}
	for i := 0; i < a.len(); i++ {
		if a.c1.at(i) != b.c1.at(i) || a.c2.at(i) != b.c2.at(i) || a.c3.at(i) != b.c3.at(i) {
			return false
		}
	}
	return true
}

func TestPSOSnapshotRoundtrip(t *testing.T) {
	st := buildTestStore(t, 150)
	st.Freeze()
	var buf bytes.Buffer
	if err := st.WriteFrozenSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := OpenFrozenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !permsEqual(&st.frz.pso, &got.frz.pso) {
		t.Fatal("PSO permutation differs after snapshot roundtrip")
	}
	diffStores(t, st, got)
}

// TestPSOSnapshotOldFormatFallback hand-writes a v2 snapshot WITHOUT
// the PSO section — the format as written before the fourth permutation
// existed — and checks the loader rebuilds PSO from SPO, byte-identical
// to the natively-frozen index.
func TestPSOSnapshotOldFormatFallback(t *testing.T) {
	st := buildTestStore(t, 120)
	st.Freeze()
	terms := st.dict.Terms()
	fw := persist.NewFileWriter(snapshotMagic, snapshotVersionFrozen)
	var meta persist.Enc
	meta.Uvarint(st.Version().Base)
	meta.Uvarint(uint64(st.frz.spo.len()))
	meta.Uvarint(uint64(len(terms)))
	fw.Section(secMeta, meta.Bytes())
	var de persist.Enc
	de.Uvarint(uint64(len(terms)))
	persist.EncodeTermBlock(&de, terms)
	fw.Section(secDict, de.Bytes())
	for _, s := range []struct {
		id uint8
		px *permIndex
	}{{secSPO, &st.frz.spo}, {secPOS, &st.frz.pos}, {secOSP, &st.frz.osp}} {
		var e persist.Enc
		encodePerm(&e, s.px)
		fw.Section(s.id, e.Bytes())
	}
	var buf bytes.Buffer
	if err := fw.Write(&buf); err != nil {
		t.Fatal(err)
	}

	got, err := OpenFrozenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !permsEqual(&st.frz.pso, &got.frz.pso) {
		t.Fatal("rebuilt PSO differs from the natively-frozen permutation")
	}
	diffStores(t, st, got)

	// The rebuilt index must serve cursors like the original.
	var p dict.ID
	st.ForEach(Pattern{}, func(tr IDTriple) bool { p = tr.P; return false })
	want := psoReference(st, p)
	got2 := collectPSO(got, p)
	if !triplesEqual(got2, want) {
		t.Fatalf("PSO cursor over rebuilt index differs\n got:  %v\n want: %v", got2, want)
	}
}

func collectPSO(st *Store, p dict.ID) []IDTriple {
	var out []IDTriple
	for c := st.NewCursorPSO(p); c.Valid(); c.Next() {
		out = append(out, c.Triple())
	}
	return out
}

// TestPatternColumnRange: Fill must agree with ForEach on every shape
// of a frozen store, at any offset and buffer size, and the range must
// be refused on a store with a pending overlay.
func TestPatternColumnRange(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	fo, wd := cursorStores(rng, 300)
	for _, pat := range randomPatterns(rng) {
		var want []IDTriple
		fo.ForEach(pat, func(tr IDTriple) bool {
			want = append(want, tr)
			return true
		})
		cr, ok := fo.PatternColumnRange(pat)
		if !ok {
			t.Fatalf("pattern %+v: PatternColumnRange refused a frozen store", pat)
		}
		if cr.Len() != len(want) {
			t.Fatalf("pattern %+v: range of %d rows, want %d", pat, cr.Len(), len(want))
		}
		chunk := 1 + rng.Intn(17)
		s, p, o := make([]dict.ID, chunk), make([]dict.ID, chunk), make([]dict.ID, chunk)
		for off := 0; off < len(want); off += chunk {
			n := cr.Fill(off, s, p, o)
			if n != min(chunk, len(want)-off) {
				t.Fatalf("pattern %+v: Fill(%d) copied %d rows", pat, off, n)
			}
			for i, tr := range want[off : off+n] {
				if s[i] != tr.S || p[i] != tr.P || o[i] != tr.O {
					t.Fatalf("pattern %+v row %d: (%d %d %d), want %+v", pat, off+i, s[i], p[i], o[i], tr)
				}
			}
		}
	}
	if _, ok := wd.PatternColumnRange(Pattern{}); ok {
		t.Fatal("PatternColumnRange must refuse a store with a pending delta overlay")
	}
	if cr, ok := New().PatternColumnRange(Pattern{}); !ok || cr.Len() != 0 {
		t.Fatal("PatternColumnRange must serve an empty store as zero rows")
	}
}
