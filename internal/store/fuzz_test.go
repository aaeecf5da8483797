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

// FuzzOpenFrozenSnapshot asserts the snapshot readers' contract on
// arbitrary input: parse successfully or return a classified error
// (ErrBadSnapshot, or persist.ErrCorrupt from the mapped framing) —
// never panic, never hang, never return a store whose read paths blow
// up. Every input goes through both the streaming reader (v1 flat and
// v2 frozen formats) and the mmap opener with its CRC-verifying full
// pass (v3 mapped format, falling back to the streaming reader for
// v1/v2); the corpus seeds one of each format plus targeted mutations.
func FuzzOpenFrozenSnapshot(f *testing.F) {
	seedStore := func(n int) *Store {
		st := New()
		for i := 0; i < n; i++ {
			u := rdf.NewIRI(fmt.Sprintf("http://ex.org/u%d", i))
			st.Add(rdf.Triple{S: u, P: rdf.Type, O: rdf.NewIRI("http://ex.org/T")})
			st.Add(rdf.Triple{S: u, P: rdf.NewIRI("http://ex.org/n"), O: rdf.NewInt(int64(i % 5))})
			st.Add(rdf.Triple{S: u, P: rdf.NewIRI("http://ex.org/l"), O: rdf.NewLangLiteral(fmt.Sprintf("v%d", i), "en")})
		}
		return st
	}
	var v2 bytes.Buffer
	if err := seedStore(20).WriteFrozenSnapshot(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	var v1 bytes.Buffer
	if err := seedStore(20).WriteSnapshot(&v1); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add([]byte("RDFC"))
	f.Add([]byte{'R', 'D', 'F', 'C', 2, 1, 3, 0, 0})
	f.Add(v2.Bytes()[:len(v2.Bytes())/2])
	mut := append([]byte(nil), v2.Bytes()...)
	mut[30] ^= 0x10
	f.Add(mut)
	var v3 bytes.Buffer
	st3 := seedStore(20)
	st3.Freeze()
	if err := st3.WriteFrozenBaseV3(&v3); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Add(v3.Bytes()[:len(v3.Bytes())/2])
	mut3 := append([]byte(nil), v3.Bytes()...)
	mut3[len(mut3)/2] ^= 0x40
	f.Add(mut3)

	// exercise runs the read and write paths a fuzz-accepted store must
	// survive.
	exercise := func(t *testing.T, st *Store) {
		t.Helper()
		if st.Len() < 0 {
			t.Fatal("negative length")
		}
		n := 0
		st.ForEach(Pattern{}, func(tr IDTriple) bool {
			if n == 0 {
				if st.Count(Pattern{S: tr.S}) < 1 || !st.ContainsID(tr) {
					t.Fatal("accepted store disagrees with itself")
				}
				subjects(st, tr.P, Wild)
				objects(st, tr.S, Wild)
			}
			n++
			return n < 100
		})
		st.Add(rdf.Triple{S: rdf.NewIRI("urn:x"), P: rdf.NewIRI("urn:y"), O: rdf.NewIRI("urn:z")})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := OpenFrozenSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("non-ErrBadSnapshot error: %v", err)
			}
		} else {
			// A store the reader accepted must hold up under the read and
			// write paths.
			exercise(t, st)
		}

		// The mapped opener holds the same contract on the same bytes:
		// open (with the CRC-verifying full pass) or refuse with
		// ErrBadSnapshot — never panic, never serve garbage. Its heap
		// fallback also accepts v1/v2, so any byte string the streaming
		// reader takes must not crash the mapped path either.
		path := filepath.Join(t.TempDir(), "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mst, err := OpenFrozenSnapshotMapped(path, MappedOptions{VerifyFull: true})
		if err != nil {
			// Structural file corruption (bad framing, checksum mismatch)
			// surfaces as persist.ErrCorrupt; semantic snapshot problems as
			// ErrBadSnapshot. Anything else is a contract violation.
			if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, persist.ErrCorrupt) {
				t.Fatalf("mapped: unclassified error: %v", err)
			}
			return
		}
		exercise(t, mst)
		mst.CloseMapped()
	})
}
