package store

// Snapshot format v3: the mmap-servable layout.
//
// v2 (snapshot_v2.go) serializes the frozen layout, but its c2/c3
// columns are one contiguous zigzag-delta stream per permutation —
// random access requires decoding from the start, so the reader must
// materialize everything. v3 keeps the v2 framing and dictionary
// payload but block-codes the columns and adds the directories a
// zero-copy reader needs to serve straight off the file:
//
//	section META     1  baseEpoch, triple count, term count (as v2)
//	section DICT     2  term count + front-coded term blocks (as v2)
//	section SPO..PSO 3-6  per permutation: key directory and run
//	                 lengths (as v2), then per column (c2, c3): block
//	                 count, per-block first values (zigzag deltas),
//	                 per-block byte offsets (uvarint deltas), data
//	                 length, and the concatenated block payloads —
//	                 block b holds blockLen-1 zigzag deltas from its
//	                 first value. Blocks span colBlock rows, so row i
//	                 lives in block i>>colBlockShift: random access is
//	                 one block decode, not a column scan.
//	section DICTIDX  7  byte offset of every FrontBlock restart inside
//	                 DICT's term data — lazy ID→term resolution decodes
//	                 one 16-term block.
//	section DICTSORT 8  all term IDs as fixed-width u32, ordered by
//	                 persist.CompareTerms — lazy term→ID resolution is
//	                 a binary search over this array.
//	section STATS    9  per-predicate distinct-subject/object counts,
//	                 so a mapped open skips the O(n) stats pass.
//
// The copying loader (OpenFrozenSnapshot) reads v3 too — it decodes
// every block into heap columns and revalidates the same invariants the
// v2 decoder checks. The zero-copy loader is OpenFrozenSnapshotMapped
// (snapshot_mapped.go) and accepts only v3.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"rdfcube/internal/dict"
	"rdfcube/internal/persist"
	"rdfcube/internal/rdf"
)

// snapshotVersionMapped is the version byte of the mmap-servable format.
const snapshotVersionMapped = 3

// Section ids added by the v3 snapshot file (1-6 shared with v2).
const (
	secDictIdx  uint8 = 7
	secDictSort uint8 = 8
	secStats    uint8 = 9
)

// WriteFrozenSnapshotV3 serializes the complete store in the mmap-
// servable v3 format, compacting any pending delta first (see
// WriteFrozenSnapshot for the epoch consequences).
func (st *Store) WriteFrozenSnapshotV3(w io.Writer) error {
	st.Freeze()
	return st.WriteFrozenBaseV3(w)
}

// WriteFrozenBaseV3 serializes the frozen base columns and the full
// dictionary in the v3 format, leaving any delta overlay out — the
// checkpoint artifact of the mapped serving mode.
func (st *Store) WriteFrozenBaseV3(w io.Writer) error {
	return writeFrozenBaseV3(w, st.Version().Base, st.frz, st.dict.Terms())
}

// writeFrozenBaseV3 serializes one frozen base + dictionary under an
// explicit base epoch — shared by WriteFrozenBaseV3 and the mapped
// compactor, which stamps the post-install epoch.
func writeFrozenBaseV3(w io.Writer, baseEpoch uint64, frz *frozen, terms []rdf.Term) error {
	if uint64(len(terms)) > math.MaxUint32 {
		return fmt.Errorf("store: %d terms exceed the v3 dictionary limit", len(terms))
	}
	fw := persist.NewFileWriter(snapshotMagic, snapshotVersionMapped)

	var meta persist.Enc
	meta.Uvarint(baseEpoch)
	meta.Uvarint(uint64(frz.spo.len()))
	meta.Uvarint(uint64(len(terms)))
	fw.Section(secMeta, meta.Bytes())

	var de persist.Enc
	de.Uvarint(uint64(len(terms)))
	offs := persist.EncodeTermBlockOffsets(&de, terms)
	fw.Section(secDict, de.Bytes())

	var ie persist.Enc
	ie.Uvarint(uint64(len(offs)))
	prev := uint64(0)
	for _, o := range offs {
		ie.Uvarint(o - prev)
		prev = o
	}
	fw.Section(secDictIdx, ie.Bytes())
	fw.Section(secDictSort, encodeDictSort(terms))

	for _, s := range []struct {
		id uint8
		px *permIndex
	}{{secSPO, &frz.spo}, {secPOS, &frz.pos}, {secOSP, &frz.osp}, {secPSO, &frz.pso}} {
		var e persist.Enc
		encodePermV3(&e, s.px)
		fw.Section(s.id, e.Bytes())
	}

	fw.Section(secStats, encodeStatsV3(frz))
	return fw.Write(w)
}

// encodeDictSort serializes the term-sorted ID array: all IDs 1..n as
// fixed-width u32 LE, ordered by persist.CompareTerms over their terms.
func encodeDictSort(terms []rdf.Term) []byte {
	order := make([]uint32, len(terms))
	for i := range order {
		order[i] = uint32(i + 1)
	}
	sort.Slice(order, func(i, j int) bool {
		return persist.CompareTerms(terms[order[i]-1], terms[order[j]-1]) < 0
	})
	out := make([]byte, 4*len(order))
	for i, id := range order {
		binary.LittleEndian.PutUint32(out[4*i:], id)
	}
	return out
}

// encodePermV3 serializes one permutation in the block-coded layout.
func encodePermV3(e *persist.Enc, px *permIndex) {
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
	encodeColBlocksV3(e, &px.c2, n)
	encodeColBlocksV3(e, &px.c3, n)
}

// encodeColBlocksV3 serializes one value column as colBlock-row blocks:
// block count, first values (zigzag deltas), byte offsets (uvarint
// deltas, first is 0), data length, block payloads.
func encodeColBlocksV3(e *persist.Enc, col *column, n int) {
	nb := (n + colBlock - 1) / colBlock
	firsts := make([]dict.ID, nb)
	offs := make([]uint64, nb)
	var data persist.Enc
	for b := 0; b < nb; b++ {
		lo := b * colBlock
		hi := min(n, lo+colBlock)
		offs[b] = uint64(data.Len())
		firsts[b] = col.at(lo)
		prev := firsts[b]
		for i := lo + 1; i < hi; i++ {
			v := col.at(i)
			data.Varint(int64(v) - int64(prev))
			prev = v
		}
	}
	e.Uvarint(uint64(nb))
	pf := int64(0)
	for _, f := range firsts {
		e.Varint(int64(f) - pf)
		pf = int64(f)
	}
	po := uint64(0)
	for _, o := range offs {
		e.Uvarint(o - po)
		po = o
	}
	e.Uvarint(uint64(data.Len()))
	e.Raw(data.Bytes())
}

// encodeStatsV3 serializes the per-predicate distinct counts: entry
// count, then (predicate delta, distinct subjects, distinct objects)
// per predicate in ascending predicate order. The predicates are
// exactly the POS directory keys.
func encodeStatsV3(f *frozen) []byte {
	var e persist.Enc
	e.Uvarint(uint64(len(f.pos.keys)))
	prev := dict.ID(0)
	for _, p := range f.pos.keys {
		e.Uvarint(uint64(p - prev))
		prev = p
		e.Uvarint(uint64(f.predDistinctS[p]))
		e.Uvarint(uint64(f.predDistinctO[p]))
	}
	return e.Bytes()
}

// parsePermV3 parses one v3 permutation section into a mapped-backed
// permIndex WITHOUT decoding any block payload: the key directory, run
// lengths and block directories are validated and heap-materialized
// (they are small), while the block data keeps aliasing data. Block
// contents are validated when decoded — see mappedCol.decodeBlock.
func parsePermV3(data []byte, kind permKind, wantN, termCount uint64, baseColID uint32, cache *blockCache, path string) (permIndex, error) {
	px := permIndex{kind: kind}
	d := persist.NewDec(data)
	nU := d.Uvarint()
	kU := d.Uvarint()
	if err := d.Err(); err != nil {
		return px, err
	}
	if nU != wantN {
		return px, fmt.Errorf("%w: permutation holds %d triples, want %d", ErrBadSnapshot, nU, wantN)
	}
	if kU > nU || nU > math.MaxUint32*uint64(colBlock) {
		return px, fmt.Errorf("%w: implausible permutation sizes n=%d k=%d", ErrBadSnapshot, nU, kU)
	}
	if kU > uint64(d.Remaining())/2 {
		return px, fmt.Errorf("%w: key directory larger than section", ErrBadSnapshot)
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
	c2, err := parseColV3(d, n, termCount, baseColID, cache, path)
	if err != nil {
		return px, err
	}
	c3, err := parseColV3(d, n, termCount, baseColID+1, cache, path)
	if err != nil {
		return px, err
	}
	if err := d.Err(); err != nil {
		return px, err
	}
	if d.Remaining() != 0 {
		return px, fmt.Errorf("%w: %d trailing bytes in permutation section", ErrBadSnapshot, d.Remaining())
	}
	px.c1 = column{rf: &runFill{keys: px.keys, off: px.off, n: n}}
	px.c2 = column{mc: c2}
	px.c3 = column{mc: c3}
	return px, nil
}

// parseColV3 parses one block-coded column's directory and takes an
// aliasing view of its payload.
func parseColV3(d *persist.Dec, n int, termCount uint64, id uint32, cache *blockCache, path string) (*mappedCol, error) {
	nbU := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	nbWant := uint64((n + colBlock - 1) / colBlock)
	if nbU != nbWant {
		return nil, fmt.Errorf("%w: column has %d blocks, want %d", ErrBadSnapshot, nbU, nbWant)
	}
	// Each block contributes at least one byte to the first-value deltas
	// and one to the offset deltas — bound the directory allocations by
	// the bytes actually present before allocating.
	if nbU > uint64(d.Remaining())/2 {
		return nil, fmt.Errorf("%w: block directory larger than section", ErrBadSnapshot)
	}
	nb := int(nbU)
	firsts := make([]dict.ID, nb)
	acc := int64(0)
	for b := 0; b < nb; b++ {
		acc += d.Varint()
		if acc <= 0 || uint64(acc) > termCount {
			return nil, fmt.Errorf("%w: block first value %d out of dictionary range", ErrBadSnapshot, acc)
		}
		firsts[b] = dict.ID(acc)
	}
	offs := make([]uint32, nb)
	po := uint64(0)
	for b := 0; b < nb; b++ {
		po += d.Uvarint()
		if b == 0 && po != 0 {
			return nil, fmt.Errorf("%w: first block offset %d, want 0", ErrBadSnapshot, po)
		}
		if po > math.MaxUint32 {
			return nil, fmt.Errorf("%w: block offset %d overflows", ErrBadSnapshot, po)
		}
		offs[b] = uint32(po)
	}
	dataLen := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if dataLen > uint64(d.Remaining()) || dataLen > math.MaxUint32 {
		return nil, fmt.Errorf("%w: column data length %d exceeds section", ErrBadSnapshot, dataLen)
	}
	if po > dataLen {
		return nil, fmt.Errorf("%w: last block offset %d beyond data length %d", ErrBadSnapshot, po, dataLen)
	}
	// Every non-first value takes at least one varint byte: a claimed
	// triple count wildly beyond the payload is rejected here, before the
	// heap loader sizes its arrays from n.
	if uint64(n-nb) > dataLen {
		return nil, fmt.Errorf("%w: %d column values cannot fit in %d data bytes", ErrBadSnapshot, n, dataLen)
	}
	raw := d.Rest()[:dataLen]
	d.Skip(int(dataLen))
	return &mappedCol{
		id: id, n: n, data: raw, offs: offs, first: firsts,
		maxID: termCount, cache: cache, path: path,
	}, nil
}

// decodePermV3Heap materializes a v3 permutation section into heap
// columns, revalidating the in-run sort order the way the v2 decoder
// does — the copying loader's path.
func decodePermV3Heap(data []byte, kind permKind, wantN, termCount uint64) (permIndex, error) {
	mx, err := parsePermV3(data, kind, wantN, termCount, 0, nil, "")
	if err != nil {
		return mx, err
	}
	n := mx.c1.length()
	k := len(mx.keys)
	px := permIndex{kind: kind, keys: mx.keys, off: mx.off}
	cols := make([]dict.ID, 3*n)
	a1, a2, a3 := cols[:n:n], cols[n:2*n:2*n], cols[2*n:]
	for i := 0; i < k; i++ {
		for j := px.off[i]; j < px.off[i+1]; j++ {
			a1[j] = px.keys[i]
		}
	}
	for ci, pair := range []struct {
		mc  *mappedCol
		dst []dict.ID
	}{{mx.c2.mc, a2}, {mx.c3.mc, a3}} {
		for b := 0; b < len(pair.mc.first); b++ {
			vals, err := pair.mc.decodeBlock(b)
			if err != nil {
				return px, fmt.Errorf("column %d block %d: %w", ci, b, err)
			}
			copy(pair.dst[b<<colBlockShift:], vals)
		}
	}
	for i := 0; i < k; i++ {
		for j := px.off[i] + 1; j < px.off[i+1]; j++ {
			if a2[j-1] > a2[j] || (a2[j-1] == a2[j] && a3[j-1] >= a3[j]) {
				return px, fmt.Errorf("%w: unsorted run at row %d", ErrBadSnapshot, j)
			}
		}
	}
	px.c1, px.c2, px.c3 = heapCol(a1), heapCol(a2), heapCol(a3)
	return px, nil
}

// openFrozenV3Heap is the copying loader for a v3 snapshot: identical
// contract to the v2 branch of OpenFrozenSnapshot, with every block
// decoded into heap columns. The lazy sections (DICTIDX, DICTSORT,
// STATS) are ignored — the heap loader pays the O(n) passes anyway.
func openFrozenV3Heap(f *persist.File) (*Store, error) {
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
	}{
		{secSPO, permSPO, &frz.spo}, {secPOS, permPOS, &frz.pos},
		{secOSP, permOSP, &frz.osp}, {secPSO, permPSO, &frz.pso},
	} {
		sec, err := f.Section(s.id)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		if *s.px, err = decodePermV3Heap(sec.Rest(), s.kind, nTriples, nTerms); err != nil {
			return nil, err
		}
	}
	frz.computeStats(len(frz.pos.keys))

	st.installBase(frz, baseEpoch)
	return st, nil
}
