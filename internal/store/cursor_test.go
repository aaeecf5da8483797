package store

// Cursor differential tests: the merged cursor stream must visit exactly
// the triples ForEach visits, in the same (permuted) order, for every
// pattern shape on frozen-only and frozen+delta stores; Seek must land
// where a linear scan would.

import (
	"math/rand"
	"testing"

	"rdfcube/internal/dict"
)

// cursorStores builds a frozen-only store and a frozen+delta twin with
// identical contents (the twin froze midway so the rest landed in the
// overlay).
func cursorStores(rng *rand.Rand, n int) (frozenOnly, withDelta *Store) {
	frozenOnly, withDelta = New(), New()
	for i := 0; i < 60; i++ {
		frozenOnly.Dict().Encode(mkTerm(i))
		withDelta.Dict().Encode(mkTerm(i))
	}
	var ts []IDTriple
	for i := 0; i < n; i++ {
		t := IDTriple{
			S: dict.ID(1 + rng.Intn(25)),
			P: dict.ID(26 + rng.Intn(8)),
			O: dict.ID(34 + rng.Intn(20)),
		}
		if rng.Intn(10) == 0 {
			t.O = dict.ID(1 + rng.Intn(25))
		}
		ts = append(ts, t)
	}
	for _, t := range ts {
		frozenOnly.AddID(t)
	}
	frozenOnly.Freeze()
	for _, t := range ts[:n/2] {
		withDelta.AddID(t)
	}
	withDelta.Freeze()
	for _, t := range ts[n/2:] {
		withDelta.AddID(t)
	}
	if frozenOnly.Len() != withDelta.Len() {
		panic("twin stores diverged")
	}
	return frozenOnly, withDelta
}

func collectCursor(st *Store, pat Pattern) []IDTriple {
	var out []IDTriple
	for c := st.NewCursor(pat); c.Valid(); c.Next() {
		out = append(out, c.Triple())
	}
	return out
}

func TestCursorMatchesForEachAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		fo, wd := cursorStores(rng, 80+rng.Intn(300))
		for _, st := range []*Store{fo, wd} {
			for _, pat := range randomPatterns(rng) {
				var want []IDTriple
				st.ForEach(pat, func(tr IDTriple) bool {
					want = append(want, tr)
					return true
				})
				got := collectCursor(st, pat)
				if !triplesEqual(got, want) {
					t.Fatalf("trial %d delta=%d pattern %+v: cursor stream differs\n got:  %v\n want: %v",
						trial, st.DeltaLen(), pat, got, want)
				}
				if c := st.NewCursor(pat); c.Len() != len(want) {
					t.Fatalf("pattern %+v: Len = %d, want %d", pat, c.Len(), len(want))
				}
			}
		}
	}
}

// TestCursorKeysSorted: for two-bound patterns the key sequence must be
// strictly increasing — the property the join operators intersect on.
func TestCursorKeysSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	_, st := cursorStores(rng, 400)
	pats := []Pattern{
		{S: 3, P: 27},  // key = O over SPO
		{P: 27, O: 40}, // key = S over POS
		{S: 3, O: 40},  // key = P over OSP
		{P: 27},        // key = O over POS (non-decreasing)
	}
	for _, pat := range pats {
		last := dict.NoID
		first := true
		strict := pat.S != Wild && pat.P != Wild || pat.P != Wild && pat.O != Wild || pat.S != Wild && pat.O != Wild
		for c := st.NewCursor(pat); c.Valid(); c.Next() {
			if !first {
				if strict && c.Key() <= last {
					t.Fatalf("pattern %+v: keys not strictly increasing (%d after %d)", pat, c.Key(), last)
				}
				if !strict && c.Key() < last {
					t.Fatalf("pattern %+v: keys decreased (%d after %d)", pat, c.Key(), last)
				}
			}
			last, first = c.Key(), false
		}
	}
}

// TestCursorSeek: Seek must land on the first triple with key >= v, for
// every v, matching a linear scan — including seeks to absent keys, past
// the end, and no-op backward seeks.
func TestCursorSeek(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		fo, wd := cursorStores(rng, 60+rng.Intn(300))
		for _, st := range []*Store{fo, wd} {
			for _, pat := range []Pattern{
				{P: dict.ID(26 + rng.Intn(8)), O: dict.ID(34 + rng.Intn(20))},
				{S: dict.ID(1 + rng.Intn(25)), P: dict.ID(26 + rng.Intn(8))},
				{P: dict.ID(26 + rng.Intn(8))},
				{},
			} {
				all := collectCursor(st, pat)
				ref := st.NewCursor(pat)
				keyOf := func(tr IDTriple) dict.ID {
					a, b, c3 := permuteTriple(ref.kind, tr)
					switch ref.keyCol {
					case 0:
						return a
					case 1:
						return b
					default:
						return c3
					}
				}
				for v := dict.ID(0); v < 62; v += dict.ID(1 + rng.Intn(7)) {
					c := st.NewCursor(pat)
					c.Seek(v)
					wantIdx := -1
					for i, tr := range all {
						if keyOf(tr) >= v {
							wantIdx = i
							break
						}
					}
					if wantIdx < 0 {
						if c.Valid() {
							t.Fatalf("pattern %+v seek %d: want exhausted, got %+v", pat, v, c.Triple())
						}
						continue
					}
					if !c.Valid() || c.Triple() != all[wantIdx] {
						t.Fatalf("pattern %+v seek %d: got %+v valid=%v, want %+v",
							pat, v, c.Triple(), c.Valid(), all[wantIdx])
					}
					// A backward/no-op seek must not move.
					c.Seek(0)
					if c.Triple() != all[wantIdx] {
						t.Fatalf("pattern %+v: backward seek moved the cursor", pat)
					}
				}
			}
		}
	}
}

// TestCursorUnfrozenAndEmpty: a cursor on an empty store is exhausted,
// and one on a store whose only triple sits in the delta overlay (never
// compacted) sees it.
func TestCursorUnfrozenAndEmpty(t *testing.T) {
	st := New()
	if c := st.NewCursor(Pattern{}); c.Valid() {
		t.Fatal("cursor on an empty store must be exhausted")
	}
	st.AddID(IDTriple{S: 1, P: 2, O: 3})
	if c := st.NewCursor(Pattern{}); !c.Valid() || c.Triple() != (IDTriple{S: 1, P: 2, O: 3}) {
		t.Fatal("cursor on a delta-only store must see the overlay")
	}
	st.Freeze()
	if c := st.NewCursor(Pattern{S: 9}); c.Valid() || c.Len() != 0 {
		t.Fatal("cursor over an empty range must be exhausted with Len 0")
	}
	c := st.NewCursor(Pattern{})
	if !c.Valid() || c.Len() != 1 {
		t.Fatalf("full-scan cursor: valid=%v len=%d", c.Valid(), c.Len())
	}
	c.Next()
	if c.Valid() {
		t.Fatal("cursor past the end must be exhausted")
	}
	c.Next() // must not panic
	c.Seek(5)
}
