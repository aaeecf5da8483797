package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"rdfcube/internal/dict"
	"rdfcube/internal/rdf"
)

// Binary snapshot format:
//
//	magic "RDFC" | version u8 | termCount uvarint
//	per term: kind u8 | value str | datatype str | lang str
//	tripleCount uvarint
//	per triple: s uvarint | p uvarint | o uvarint  (dictionary IDs)
//
// Strings are uvarint length-prefixed UTF-8. IDs are positional: the i-th
// term record (0-based) has ID i+1, matching dictionary assignment order.

const snapshotMagic = "RDFC"
const snapshotVersion = 1

// ErrBadSnapshot reports a malformed or incompatible snapshot stream.
var ErrBadSnapshot = errors.New("store: bad snapshot")

// WriteSnapshot serializes the store (dictionary and triples) to w.
func (st *Store) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(snapshotVersion); err != nil {
		return err
	}
	terms := st.dict.Terms()
	writeUvarint(bw, uint64(len(terms)))
	for _, t := range terms {
		if err := writeTerm(bw, t); err != nil {
			return err
		}
	}
	writeUvarint(bw, uint64(st.Len()))
	var err error
	st.ForEach(Pattern{}, func(t IDTriple) bool {
		writeUvarint(bw, uint64(t.S))
		writeUvarint(bw, uint64(t.P))
		writeUvarint(bw, uint64(t.O))
		return true
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSnapshot deserializes a snapshot produced by WriteSnapshot into a
// fresh store with a fresh dictionary. The triples are validated, then
// loaded with one AddBatch, so the store comes back compacted onto the
// sorted base with no pending delta.
func ReadSnapshot(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if ver != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, ver)
	}
	st := New()
	nTerms, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	for i := uint64(0); i < nTerms; i++ {
		t, err := readTerm(br)
		if err != nil {
			return nil, fmt.Errorf("%w: term %d: %v", ErrBadSnapshot, i, err)
		}
		id := st.dict.Encode(t)
		if uint64(id) != i+1 {
			return nil, fmt.Errorf("%w: duplicate term at position %d", ErrBadSnapshot, i)
		}
	}
	nTriples, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	var ts []IDTriple
	for i := uint64(0); i < nTriples; i++ {
		s, err1 := binary.ReadUvarint(br)
		p, err2 := binary.ReadUvarint(br)
		o, err3 := binary.ReadUvarint(br)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%w: truncated triple %d", ErrBadSnapshot, i)
		}
		if s == 0 || s > nTerms || p == 0 || p > nTerms || o == 0 || o > nTerms {
			return nil, fmt.Errorf("%w: triple %d references unknown term", ErrBadSnapshot, i)
		}
		ts = append(ts, IDTriple{dict.ID(s), dict.ID(p), dict.ID(o)})
	}
	st.AddBatch(ts)
	return st, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func writeTerm(w *bufio.Writer, t rdf.Term) error {
	if err := w.WriteByte(byte(t.Kind())); err != nil {
		return err
	}
	writeString(w, t.Value())
	if t.IsLiteral() {
		writeString(w, t.Datatype())
		writeString(w, t.Lang())
	} else {
		writeString(w, "")
		writeString(w, "")
	}
	return nil
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<30 {
		return "", errors.New("string too long")
	}
	// Copy incrementally so a hostile length prefix costs only the bytes
	// actually present, not an up-front allocation.
	var sb strings.Builder
	if m, err := io.CopyN(&sb, r, int64(n)); err != nil || uint64(m) != n {
		return "", errors.New("truncated string")
	}
	return sb.String(), nil
}

func readTerm(r *bufio.Reader) (rdf.Term, error) {
	kindB, err := r.ReadByte()
	if err != nil {
		return rdf.Term{}, err
	}
	value, err := readString(r)
	if err != nil {
		return rdf.Term{}, err
	}
	datatype, err := readString(r)
	if err != nil {
		return rdf.Term{}, err
	}
	lang, err := readString(r)
	if err != nil {
		return rdf.Term{}, err
	}
	switch rdf.TermKind(kindB) {
	case rdf.KindIRI:
		return rdf.NewIRI(value), nil
	case rdf.KindBlank:
		return rdf.NewBlank(value), nil
	case rdf.KindLiteral:
		if lang != "" {
			return rdf.NewLangLiteral(value, lang), nil
		}
		return rdf.NewTypedLiteral(value, datatype), nil
	default:
		return rdf.Term{}, fmt.Errorf("unknown term kind %d", kindB)
	}
}
