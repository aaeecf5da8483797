package store

// Snapshot format v2: the frozen layout on disk.
//
// Where the v1 format (snapshot.go) is a flat triple list that the
// reader must re-sort into every permutation on each load, v2
// serializes the *frozen* layout itself:
//
//	section META  baseEpoch, triple count, term count
//	section DICT  front-coded dictionary blocks, ID order
//	section SPO/POS/OSP  per permutation: delta-encoded key directory,
//	              run lengths, zigzag-delta c2/c3 columns
//
// (section framing, checksums and codecs in internal/persist). Loading
// is one sequential pass that decodes straight into the columnar arrays:
// no re-sort and no merge — the store comes back serving the decoded
// base with an empty delta overlay. The section table carries
// per-section lengths and CRCs, so a future reader can mmap the file and
// wire the columns in place; today's reader validates every structural
// invariant (ascending keys, in-run sort order, ID ranges) before
// trusting a file, returning ErrBadSnapshot — never panicking — on
// malformed input.
//
// The snapshot records the store's base epoch and always contains the
// full dictionary, but only the *base* columns: WriteFrozenBase is the
// checkpoint half of a (snapshot, WAL) pair where the delta tail lives
// in the log, while WriteFrozenSnapshot folds any pending delta in
// first (compacting, which moves the base epoch) and is the whole-store
// serialization the CLIs use.

import (
	"bufio"
	"fmt"
	"io"

	"rdfcube/internal/dict"
	"rdfcube/internal/persist"
)

// snapshotVersionFrozen is the version byte of the frozen-layout format.
const snapshotVersionFrozen = 2

// Section ids of the v2 snapshot file.
const (
	secMeta uint8 = 1
	secDict uint8 = 2
	secSPO  uint8 = 3
	secPOS  uint8 = 4
	secOSP  uint8 = 5
	// secPSO carries the fourth permutation. Files written before it
	// existed simply lack the section; the loader detects the absence
	// and rebuilds PSO from SPO, so old snapshots stay readable.
	secPSO uint8 = 6
)

// WriteFrozenSnapshot serializes the complete store in the frozen v2
// format. A pending delta overlay is compacted first via Freeze, so the
// snapshot reflects every accepted triple; note that compacting moves
// the base epoch, invalidating delta feeds pinned to the previous base.
func (st *Store) WriteFrozenSnapshot(w io.Writer) error {
	st.Freeze()
	return st.WriteFrozenBase(w)
}

// WriteFrozenBase serializes the frozen base columns and the full
// dictionary, leaving any delta overlay out: the checkpointing daemon
// pairs this with its write-ahead log, which holds exactly the delta
// tail.
func (st *Store) WriteFrozenBase(w io.Writer) error {
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
	}{{secSPO, &st.frz.spo}, {secPOS, &st.frz.pos}, {secOSP, &st.frz.osp}, {secPSO, &st.frz.pso}} {
		var e persist.Enc
		encodePerm(&e, s.px)
		fw.Section(s.id, e.Bytes())
	}
	return fw.Write(w)
}

// encodePerm serializes one permutation: triple count, key count, the
// strictly-ascending key directory as unsigned deltas, the run lengths
// (off diffs), then the c2 and c3 columns as zigzag deltas. c1 is not
// stored — it is the run-fill of keys over off.
func encodePerm(e *persist.Enc, px *permIndex) {
	n := px.len()
	k := len(px.keys)
	e.Uvarint(uint64(n))
	e.Uvarint(uint64(k))
	prev := dict.ID(0)
	for _, key := range px.keys {
		e.Uvarint(uint64(key - prev))
		prev = key
	}
	for i := 0; i < k; i++ {
		e.Uvarint(uint64(px.off[i+1] - px.off[i]))
	}
	for _, col := range []*column{&px.c2, &px.c3} {
		prev = 0
		for i := 0; i < n; {
			vals, base := col.block(i)
			end := min(n, base+len(vals))
			for ; i < end; i++ {
				v := vals[i-base]
				e.Varint(int64(v) - int64(prev))
				prev = v
			}
		}
	}
}

// decodePerm reads one permutation, validating every invariant the read
// paths depend on: strictly ascending keys, positive run lengths summing
// to the triple count, IDs in (0, termCount], and strict (c2, c3) sort
// order inside every key run (the triple set is duplicate-free).
func decodePerm(d *persist.Dec, kind permKind, wantN uint64, termCount uint64) (permIndex, error) {
	px := permIndex{kind: kind}
	nU := d.Uvarint()
	kU := d.Uvarint()
	if err := d.Err(); err != nil {
		return px, err
	}
	if nU != wantN {
		return px, fmt.Errorf("%w: permutation holds %d triples, want %d", ErrBadSnapshot, nU, wantN)
	}
	// Bound the claimed sizes by the bytes present BEFORE any int
	// conversion or allocation: each triple contributes at least one
	// byte to each of c2 and c3, each key at least one delta byte and
	// one run-length byte. This also rules out values overflowing int.
	if nU > uint64(d.Remaining()) || kU > nU {
		return px, fmt.Errorf("%w: implausible permutation sizes n=%d k=%d", ErrBadSnapshot, nU, kU)
	}
	if nU > 0 && kU == 0 {
		return px, fmt.Errorf("%w: %d triples but empty key directory", ErrBadSnapshot, nU)
	}
	n, k := int(nU), int(kU)
	px.keys = make([]dict.ID, k)
	px.off = make([]int, k+1)
	prev := uint64(0)
	for i := 0; i < k; i++ {
		delta := d.Uvarint()
		if delta == 0 {
			return px, fmt.Errorf("%w: non-ascending key directory at %d", ErrBadSnapshot, i)
		}
		prev += delta
		if prev > termCount {
			return px, fmt.Errorf("%w: key %d out of dictionary range", ErrBadSnapshot, prev)
		}
		px.keys[i] = dict.ID(prev)
	}
	total := 0
	for i := 0; i < k; i++ {
		run := d.Uvarint()
		if d.Err() != nil {
			return px, d.Err()
		}
		if run == 0 || run > uint64(n-total) {
			return px, fmt.Errorf("%w: bad run length %d at key %d", ErrBadSnapshot, run, i)
		}
		total += int(run)
		px.off[i+1] = total
	}
	if total != n {
		return px, fmt.Errorf("%w: run lengths cover %d of %d triples", ErrBadSnapshot, total, n)
	}
	cols := make([]dict.ID, 3*n)
	a1, a2, a3 := cols[:n:n], cols[n:2*n:2*n], cols[2*n:]
	for i := 0; i < k; i++ {
		for j := px.off[i]; j < px.off[i+1]; j++ {
			a1[j] = px.keys[i]
		}
	}
	for _, col := range [][]dict.ID{a2, a3} {
		acc := int64(0)
		for i := 0; i < n; i++ {
			acc += d.Varint()
			if acc <= 0 || uint64(acc) > termCount {
				return px, fmt.Errorf("%w: column value %d out of dictionary range", ErrBadSnapshot, acc)
			}
			col[i] = dict.ID(acc)
		}
	}
	if err := d.Err(); err != nil {
		return px, err
	}
	// In-run sort order: within one c1 run, (c2, c3) must be strictly
	// ascending — binary searches and the merged-read dedup contract
	// depend on it.
	for i := 0; i < k; i++ {
		for j := px.off[i] + 1; j < px.off[i+1]; j++ {
			if a2[j-1] > a2[j] ||
				(a2[j-1] == a2[j] && a3[j-1] >= a3[j]) {
				return px, fmt.Errorf("%w: unsorted run at row %d", ErrBadSnapshot, j)
			}
		}
	}
	px.c1, px.c2, px.c3 = heapCol(a1), heapCol(a2), heapCol(a3)
	return px, nil
}

// OpenFrozenSnapshot loads a snapshot in either format: a v2 frozen
// snapshot decodes straight into the columnar indexes, while a v1 flat
// snapshot falls back to ReadSnapshot — one AddBatch of its triples.
// Either way the store comes back with no pending delta. Malformed
// input of either version returns an error wrapping ErrBadSnapshot.
func OpenFrozenSnapshot(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(5)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if string(head[:4]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, head[:4])
	}
	if head[4] == snapshotVersion {
		return ReadSnapshot(br)
	}
	f, err := persist.ReadFile(br, snapshotMagic)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if f.Version == snapshotVersionMapped {
		return openFrozenV3Heap(f)
	}
	if f.Version != snapshotVersionFrozen {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, f.Version)
	}

	meta, err := f.Section(secMeta)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	baseEpoch := meta.Uvarint()
	nTriples := meta.Uvarint()
	nTerms := meta.Uvarint()
	if err := meta.Err(); err != nil {
		return nil, fmt.Errorf("%w: meta: %v", ErrBadSnapshot, err)
	}
	if baseEpoch > 0xffffffff {
		return nil, fmt.Errorf("%w: base epoch %d out of range", ErrBadSnapshot, baseEpoch)
	}

	dd, err := f.Section(secDict)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	declared := dd.Count(2)
	if uint64(declared) != nTerms {
		return nil, fmt.Errorf("%w: dictionary holds %d terms, meta says %d", ErrBadSnapshot, declared, nTerms)
	}
	terms, err := persist.DecodeTermBlock(dd, declared)
	if err != nil {
		return nil, fmt.Errorf("%w: dictionary: %v", ErrBadSnapshot, err)
	}

	st := New()
	for i, t := range terms {
		if id := st.dict.Encode(t); uint64(id) != uint64(i)+1 {
			return nil, fmt.Errorf("%w: duplicate term at position %d", ErrBadSnapshot, i)
		}
	}

	frz := &frozen{}
	for _, s := range []struct {
		id   uint8
		kind permKind
		px   *permIndex
	}{{secSPO, permSPO, &frz.spo}, {secPOS, permPOS, &frz.pos}, {secOSP, permOSP, &frz.osp}} {
		sec, err := f.Section(s.id)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if *s.px, err = decodePerm(sec, s.kind, nTriples, nTerms); err != nil {
			return nil, err
		}
	}
	if f.HasSection(secPSO) {
		sec, err := f.Section(secPSO)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if frz.pso, err = decodePerm(sec, permPSO, nTriples, nTerms); err != nil {
			return nil, err
		}
	} else {
		// Snapshot predates the fourth permutation: rebuild it from the
		// validated SPO columns (one extract + sort at load time).
		frz.rebuildPSO()
	}
	frz.computeStats(len(frz.pos.keys))

	st.installBase(frz, baseEpoch)
	return st, nil
}
