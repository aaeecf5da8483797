package store

// The zero-copy snapshot opener: OpenFrozenSnapshotMapped mmaps a v3
// snapshot and builds a Store whose frozen base serves straight off the
// mapping — c2/c3 columns as lazy varint-delta blocks, c1 reconstructed
// from the heap-resident run directories, the dictionary as lazy
// front-coded blocks behind dict.NewOverBase. Open cost is one CRC pass
// over the file plus the (small) directory parses; resident heap is the
// directories, the block cache and the term cache, independent of the
// dataset size — the bigger-than-RAM serving mode.
//
// The store behaves exactly like one from OpenFrozenSnapshot: reads
// merge the mapped base with the delta overlay, writes land in the
// overlay (spilling to disk runs past the spill threshold, see
// spill.go), and compaction is the mapped variant (compact_mapped.go)
// that streams a new v3 snapshot and remaps. Inline compaction is
// disabled at open — folding a delta into an mmap'd base requires
// writing a file, which must not happen implicitly on a write path.

import (
	"fmt"
	"io"
	"os"

	"rdfcube/internal/dict"
	"rdfcube/internal/persist"
)

// MappedOptions tune OpenFrozenSnapshotMapped.
type MappedOptions struct {
	// VerifyFull decodes every column block and dictionary block at open
	// and validates all sort invariants, turning any malformed-but-
	// CRC-valid payload into an open error instead of a serving-time
	// panic. One full pass over the file; intended for fuzzing and
	// paranoid operators.
	VerifyFull bool
	// BlockCacheSlots overrides the decoded column-block cache size
	// (default 1024 slots = 8 MiB of decoded blocks).
	BlockCacheSlots int
	// TermCacheSlots overrides the decoded term-block cache size
	// (default 256 slots = 4096 resident terms).
	TermCacheSlots int
}

// MappedStats is a point-in-time view of a store's mapped-snapshot
// machinery, for /statsz and the rdfcube_mmap_* metrics.
type MappedStats struct {
	Path        string
	MappedBytes int64
	// Column block cache.
	BlockCacheHits   uint64
	BlockCacheMisses uint64
	// Dictionary term-block cache.
	TermCacheHits   uint64
	TermCacheMisses uint64
	// Wall nanoseconds spent decoding blocks on cache misses; cold-block
	// decodes include the page-in fault, so this is the page-in-stall
	// proxy.
	DecodeStallNanos uint64
}

// mappedSnapshot owns one mmap'd snapshot file and the caches its lazy
// structures decode through.
type mappedSnapshot struct {
	path  string
	f     *os.File
	data  []byte
	mf    *persist.MappedFile
	cache *blockCache
	md    *mappedDict
	// frz and epoch identify the base this mapping serves: while the
	// store's frz pointer and base epoch still match them, the file at
	// path IS the frozen base — a checkpoint can skip rewriting it.
	frz   *frozen
	epoch uint64
}

func (ms *mappedSnapshot) close() error {
	var err error
	if ms.data != nil {
		err = persist.Unmap(ms.data)
		ms.data = nil
	}
	if ms.f != nil {
		if cerr := ms.f.Close(); err == nil {
			err = cerr
		}
		ms.f = nil
	}
	return err
}

// OpenFrozenSnapshotMapped opens the snapshot at path for serving off
// the mapping. The file must be a v3 snapshot (WriteFrozenBaseV3); a v1
// or v2 file falls back to the copying loader OpenFrozenSnapshot, so
// callers can pass whatever snapshot the data directory holds. The
// returned store must be released with CloseMapped once no reads are in
// flight.
func OpenFrozenSnapshotMapped(path string, opts MappedOptions) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	data, err := persist.MapFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if len(data) >= 5 && string(data[:4]) == snapshotMagic && data[4] != snapshotVersionMapped {
		// Older format: serve from heap via the copying loader.
		persist.Unmap(data)
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		st, err := OpenFrozenSnapshot(f)
		f.Close()
		return st, err
	}
	mf, err := persist.OpenMappedFile(data, snapshotMagic, "snapshot", path)
	if err != nil {
		persist.Unmap(data)
		f.Close()
		return nil, err
	}
	ms := &mappedSnapshot{path: path, f: f, data: data, mf: mf}
	st, err := openMapped(ms, opts)
	if err != nil {
		ms.close()
		return nil, err
	}
	// The CRC pass walked the file sequentially; drop those pages and
	// switch to random-access readahead for serving.
	persist.Advise(data, persist.AdviseDontNeed)
	persist.Advise(data, persist.AdviseRandom)
	return st, nil
}

func openMapped(ms *mappedSnapshot, opts MappedOptions) (*Store, error) {
	mf := ms.mf
	meta, err := mf.Section(secMeta)
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

	md, err := parseMappedDict(mf, nTerms, opts.TermCacheSlots, ms.path)
	if err != nil {
		return nil, err
	}
	ms.md = md

	ms.cache = newBlockCache(opts.BlockCacheSlots)
	frz := &frozen{}
	for i, s := range []struct {
		id   uint8
		kind permKind
		px   *permIndex
	}{
		{secSPO, permSPO, &frz.spo}, {secPOS, permPOS, &frz.pos},
		{secOSP, permOSP, &frz.osp}, {secPSO, permPSO, &frz.pso},
	} {
		sec, ok := mf.SectionBytes(s.id)
		if !ok {
			return nil, fmt.Errorf("%w: missing section %d", ErrBadSnapshot, s.id)
		}
		*s.px, err = parsePermV3(sec, s.kind, nTriples, nTerms, uint32(2*i), ms.cache, ms.path)
		if err != nil {
			return nil, err
		}
	}
	if err := parseMappedStats(mf, frz); err != nil {
		return nil, err
	}

	if opts.VerifyFull {
		for _, px := range []*permIndex{&frz.spo, &frz.pos, &frz.osp, &frz.pso} {
			if err := verifyPermFull(px); err != nil {
				return nil, err
			}
		}
		if err := md.verify(); err != nil {
			return nil, err
		}
	}

	st := NewWithDict(dict.NewOverBase(md))
	st.installBase(frz, baseEpoch)
	st.noInlineCompact = true
	ms.frz = frz
	ms.epoch = baseEpoch
	st.mapped = ms
	return st, nil
}

// MappedBaseClean reports whether the snapshot file backing this store
// still holds exactly the current frozen base (no compaction, bulk load
// or freeze has moved the base since the mapping was created) — when
// true, a checkpoint can skip rewriting the snapshot.
func (st *Store) MappedBaseClean() bool {
	return st.mapped != nil && st.frz == st.mapped.frz && st.Version().Base == st.mapped.epoch
}

// parseMappedDict wires the lazy dictionary: term payload from DICT,
// block restarts from DICTIDX, the term-sorted ID array from DICTSORT.
func parseMappedDict(mf *persist.MappedFile, nTerms uint64, cacheSlots int, path string) (*mappedDict, error) {
	dd, err := mf.Section(secDict)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	declared := dd.Count(2)
	if err := dd.Err(); err != nil || uint64(declared) != nTerms {
		return nil, fmt.Errorf("%w: dictionary holds %d terms, meta says %d", ErrBadSnapshot, declared, nTerms)
	}
	termData := dd.Rest()

	idx, err := mf.Section(secDictIdx)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	nbU := idx.Uvarint()
	nbWant := (nTerms + persist.FrontBlock - 1) / persist.FrontBlock
	if idx.Err() != nil || nbU != nbWant {
		return nil, fmt.Errorf("%w: dictionary index has %d blocks, want %d", ErrBadSnapshot, nbU, nbWant)
	}
	offs := make([]uint64, nbU)
	prev := uint64(0)
	for b := range offs {
		prev += idx.Uvarint()
		if b == 0 && prev != 0 {
			return nil, fmt.Errorf("%w: first dictionary block offset %d, want 0", ErrBadSnapshot, prev)
		}
		if prev >= uint64(len(termData)) {
			return nil, fmt.Errorf("%w: dictionary block offset %d beyond term data", ErrBadSnapshot, prev)
		}
		offs[b] = prev
	}
	if err := idx.Err(); err != nil {
		return nil, fmt.Errorf("%w: dictionary index: %v", ErrBadSnapshot, err)
	}
	if idx.Remaining() != 0 {
		return nil, fmt.Errorf("%w: trailing bytes in dictionary index", ErrBadSnapshot)
	}

	sorted, ok := mf.SectionBytes(secDictSort)
	if !ok {
		return nil, fmt.Errorf("%w: missing term-sorted section", ErrBadSnapshot)
	}
	if uint64(len(sorted)) != 4*nTerms {
		return nil, fmt.Errorf("%w: term-sorted section is %d bytes, want %d", ErrBadSnapshot, len(sorted), 4*nTerms)
	}
	md := newMappedDict(int(nTerms), termData, offs, sorted, cacheSlots, path)
	for i := 0; i < md.n; i++ {
		if id := uint64(md.sortedID(i)); id == 0 || id > nTerms {
			return nil, fmt.Errorf("%w: term-sorted entry %d out of range", ErrBadSnapshot, i)
		}
	}
	return md, nil
}

// parseMappedStats loads the per-predicate distinct counts from STATS.
// The entries must be exactly the POS directory keys in order — the
// writer emits them that way, and the stats consumers (join ordering)
// assume a count exists for every predicate.
func parseMappedStats(mf *persist.MappedFile, frz *frozen) error {
	sec, err := mf.Section(secStats)
	if err != nil {
		// Not written by this writer — but tolerate a stripped section by
		// paying the O(n) pass the heap loader pays.
		frz.computeStats(len(frz.pos.keys))
		return nil
	}
	m := sec.Count(2)
	if sec.Err() != nil || m != len(frz.pos.keys) {
		return fmt.Errorf("%w: stats section covers %d predicates, POS has %d", ErrBadSnapshot, m, len(frz.pos.keys))
	}
	frz.predDistinctS = make(map[dict.ID]int, m)
	frz.predDistinctO = make(map[dict.ID]int, m)
	prev := uint64(0)
	for i := 0; i < m; i++ {
		prev += sec.Uvarint()
		ds := sec.Uvarint()
		do := sec.Uvarint()
		if sec.Err() != nil {
			return fmt.Errorf("%w: stats: %v", ErrBadSnapshot, sec.Err())
		}
		p := dict.ID(prev)
		if p != frz.pos.keys[i] {
			return fmt.Errorf("%w: stats predicate %d does not match POS key %d", ErrBadSnapshot, p, frz.pos.keys[i])
		}
		n := frz.pos.off[i+1] - frz.pos.off[i]
		if ds == 0 || do == 0 || ds > uint64(n) || do > uint64(n) {
			return fmt.Errorf("%w: implausible stats for predicate %d", ErrBadSnapshot, p)
		}
		frz.predDistinctS[p] = int(ds)
		frz.predDistinctO[p] = int(do)
	}
	if sec.Remaining() != 0 {
		return fmt.Errorf("%w: trailing bytes in stats section", ErrBadSnapshot)
	}
	return nil
}

// verifyPermFull decodes every block of a mapped permutation's value
// columns and validates the strict in-run (c2, c3) sort order — the
// VerifyFull pass, returning errors instead of trusting the CRC.
func verifyPermFull(px *permIndex) error {
	mc2, mc3 := px.c2.mc, px.c3.mc
	if mc2 == nil {
		return nil
	}
	ki := 0
	var p2, p3 dict.ID
	for b := 0; b < len(mc2.first); b++ {
		v2, err := mc2.decodeBlock(b)
		if err != nil {
			return err
		}
		v3, err := mc3.decodeBlock(b)
		if err != nil {
			return err
		}
		base := b << colBlockShift
		for j := range v2 {
			i := base + j
			for px.off[ki+1] <= i {
				ki++
			}
			if i > px.off[ki] && (p2 > v2[j] || (p2 == v2[j] && p3 >= v3[j])) {
				return errBadSnapshotf("unsorted run at row %d of permutation %d", i, px.kind)
			}
			p2, p3 = v2[j], v3[j]
		}
	}
	return nil
}

// Mapped reports whether this store serves its frozen base from an
// mmap'd snapshot.
func (st *Store) Mapped() bool { return st.mapped != nil }

// MappedStats returns cache and mapping statistics; ok is false for
// stores not opened with OpenFrozenSnapshotMapped.
func (st *Store) MappedStats() (MappedStats, bool) {
	ms := st.mapped
	if ms == nil {
		return MappedStats{}, false
	}
	var s MappedStats
	s.Path = ms.path
	s.MappedBytes = int64(len(ms.data))
	s.BlockCacheHits, s.BlockCacheMisses = ms.cache.counts()
	s.TermCacheHits, s.TermCacheMisses = ms.md.counts()
	s.DecodeStallNanos = ms.cache.decodeNanos.Load()
	return s, true
}

// CloseMapped unmaps the snapshot backing this store's frozen base. The
// store must not be read after this — the caller (the server's swap
// lock) must ensure no reads are in flight.
func (st *Store) CloseMapped() error {
	if st.mapped == nil {
		return nil
	}
	err := st.mapped.close()
	st.mapped = nil
	return err
}
