package store

// The column abstraction: one logical sorted-run []dict.ID with three
// physical backings, so every read path — directory searches, range
// scans, galloping cursor seeks, the batch engine's bulk fills — runs
// unchanged against either an in-heap array or an mmap'd snapshot
// section.
//
//	heap     a plain []dict.ID — the Freeze/compact and copying-loader
//	         representation; every hot loop keeps a branch-free fast
//	         path over it.
//	mapped   varint-delta blocks of colBlock values over a byte range
//	         that aliases the mapped snapshot file. A per-column block
//	         directory (byte offset + first value of every block, small
//	         and heap-resident) provides the skip pointers: random
//	         access decodes one block, binary search and galloping Seek
//	         stay O(log n) block probes instead of whole-column decodes.
//	         Decoded blocks go through a fixed-size lock-free cache.
//	runfill  the c1 column of a mapped permutation, which the snapshot
//	         does not store at all: it is reconstructed from the
//	         (keys, off) first-level directory — at(i) is a binary
//	         search for i's run, sequential walks ride the directory.
//
// A decoded mapped block that fails validation (a malformed varint or
// an out-of-range ID behind a valid section CRC) panics with a typed
// *persist.ArtifactError: the open path has already CRC-verified every
// section, so this is memory corruption or a hostile writer, not an
// expected input error. OpenMapped's VerifyFull mode front-loads that
// decode at open for callers (fuzzers, paranoid operators) that want
// malformed files rejected as errors instead.

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"rdfcube/internal/dict"
	"rdfcube/internal/persist"
)

// colBlock is the number of values per mapped column block. 1024 values
// keep a decoded block at 8 KiB — big enough to amortize varint decode,
// small enough that point lookups do not drag megabytes through the
// cache.
const (
	colBlockShift = 10
	colBlock      = 1 << colBlockShift
	colBlockMask  = colBlock - 1
)

// column is one logical value column with a heap, mapped or run-fill
// backing. Exactly one of the fields is set; the zero column is empty.
type column struct {
	arr []dict.ID
	mc  *mappedCol
	rf  *runFill
}

func heapCol(s []dict.ID) column { return column{arr: s} }

func (c *column) length() int {
	switch {
	case c.arr != nil:
		return len(c.arr)
	case c.mc != nil:
		return c.mc.n
	case c.rf != nil:
		return c.rf.n
	}
	return 0
}

// at returns value i. Heap: an index. Mapped: one cached block decode
// plus an index. Run-fill: a binary search over the run directory.
func (c *column) at(i int) dict.ID {
	if c.arr != nil {
		return c.arr[i]
	}
	if c.mc != nil {
		vals, base := c.mc.block(i)
		return vals[i-base]
	}
	return c.rf.at(i)
}

// block returns a decoded slab of consecutive values covering index i
// and the index of its first element — the bulk unit sequential scans
// and copies iterate by. Heap backing returns the whole array; mapped
// returns the (cached) decoded block. Not supported on run-fill columns
// (permutation code walks their run directory instead).
func (c *column) block(i int) (vals []dict.ID, base int) {
	if c.arr != nil {
		return c.arr, 0
	}
	return c.mc.block(i)
}

// search returns the first index in [lo, hi) with value >= v; the range
// must be sorted ascending.
func (c *column) search(lo, hi int, v dict.ID) int {
	if c.arr != nil {
		arr := c.arr
		return lo + sort.Search(hi-lo, func(i int) bool { return arr[lo+i] >= v })
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return c.at(lo+i) >= v })
}

// searchAbove returns the first index in [lo, hi) with value > v.
func (c *column) searchAbove(lo, hi int, v dict.ID) int {
	if c.arr != nil {
		arr := c.arr
		return lo + sort.Search(hi-lo, func(i int) bool { return arr[lo+i] > v })
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return c.at(lo+i) > v })
}

// gallop returns the first index in [lo, hi) with value >= v via
// exponential probing from lo capped by a binary search — O(log gap),
// the cursor Seek workhorse. The range must be sorted ascending.
func (c *column) gallop(lo, hi int, v dict.ID) int {
	if c.arr != nil {
		return gallopIDs(c.arr, lo, hi, v)
	}
	if lo >= hi || c.at(lo) >= v {
		return lo
	}
	step := 1
	for lo+step < hi && c.at(lo+step) < v {
		lo += step
		step <<= 1
	}
	lo++ // at(old lo) < v
	if bound := lo + step; bound < hi {
		hi = bound
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return c.at(lo+i) >= v })
}

// copyRange copies values [lo, hi) into dst (len(dst) == hi-lo).
func (c *column) copyRange(dst []dict.ID, lo, hi int) {
	if c.arr != nil {
		copy(dst, c.arr[lo:hi])
		return
	}
	for i := lo; i < hi; {
		vals, base := c.block(i)
		end := min(hi, base+len(vals))
		copy(dst[i-lo:], vals[i-base:end-base])
		i = end
	}
}

// distinctTo appends the distinct values of the sorted range [lo, hi)
// to out via a run walk.
func (c *column) distinctTo(out []dict.ID, lo, hi int) []dict.ID {
	if c.arr != nil {
		return distinctRuns(out, c.arr, lo, hi)
	}
	var prev dict.ID
	for i := lo; i < hi; {
		vals, base := c.block(i)
		end := min(hi, base+len(vals))
		for ; i < end; i++ {
			v := vals[i-base]
			if i == lo || v != prev {
				out = append(out, v)
			}
			prev = v
		}
	}
	return out
}

func errBadSnapshotf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
}

// runFill reconstructs a permutation's first column from its offset
// directory: rows off[j]..off[j+1] all hold keys[j].
type runFill struct {
	keys []dict.ID
	off  []int
	n    int
}

func (r *runFill) at(i int) dict.ID {
	return r.keys[r.runIndex(i)]
}

// runIndex returns j such that off[j] <= i < off[j+1].
func (r *runFill) runIndex(i int) int {
	return sort.Search(len(r.keys), func(j int) bool { return r.off[j+1] > i })
}

// mappedCol is a varint-delta block-coded column over mapped bytes.
type mappedCol struct {
	id    uint32 // cache key (unique per column within one mapping)
	n     int
	data  []byte // the raw block payload, aliasing the mapping
	offs  []uint32
	first []dict.ID // value of row b<<colBlockShift, per block
	maxID uint64    // IDs must fall in (0, maxID]
	cache *blockCache
	path  string // error context
}

// blockLen returns the value count of block b.
func (m *mappedCol) blockLen(b int) int {
	if b == len(m.first)-1 {
		if tail := m.n & colBlockMask; tail != 0 {
			return tail
		}
	}
	return colBlock
}

// block returns the decoded block containing row i and its base row,
// through the cache.
func (m *mappedCol) block(i int) (vals []dict.ID, base int) {
	b := i >> colBlockShift
	return m.cache.get(m, b), b << colBlockShift
}

// decodeBlock decodes block b, validating every value against the
// dictionary range. It is the only place mapped column bytes are
// interpreted.
func (m *mappedCol) decodeBlock(b int) ([]dict.ID, error) {
	bn := m.blockLen(b)
	lo := int(m.offs[b])
	hi := len(m.data)
	if b+1 < len(m.offs) {
		hi = int(m.offs[b+1])
	}
	d := persist.NewDec(m.data[lo:hi])
	vals := make([]dict.ID, bn)
	acc := int64(m.first[b])
	vals[0] = m.first[b]
	for j := 1; j < bn; j++ {
		acc += d.Varint()
		if acc <= 0 || uint64(acc) > m.maxID {
			return nil, &persist.ArtifactError{
				Path: m.path, Kind: "snapshot", Offset: -1,
				Err: errBadSnapshotf("mapped column value %d out of dictionary range at block %d", acc, b),
			}
		}
		vals[j] = dict.ID(acc)
	}
	if err := d.Err(); err != nil {
		return nil, &persist.ArtifactError{Path: m.path, Kind: "snapshot", Offset: -1, Err: err}
	}
	if d.Remaining() != 0 {
		return nil, &persist.ArtifactError{
			Path: m.path, Kind: "snapshot", Offset: -1,
			Err: errBadSnapshotf("trailing bytes after block %d", b),
		}
	}
	return vals, nil
}

// blockCache is a fixed-size direct-mapped cache of decoded column
// blocks shared by all columns of one mapped snapshot. Reads are
// lock-free (one atomic pointer load); a miss decodes and overwrites
// whatever occupied the slot — eviction is collision. The worst case is
// therefore re-decoding a block (correctness never depends on
// residency), and the cache size bounds decoded-block heap exactly.
type blockCache struct {
	slots []atomic.Pointer[cacheBlock]
	mask  uint32

	hits   atomic.Uint64
	misses atomic.Uint64
	// decodeNanos accumulates wall time spent decoding blocks on cache
	// misses — the first decode of a cold block includes the page-in
	// fault, so this doubles as the page-in-stall proxy /statsz exposes.
	decodeNanos atomic.Uint64
}

type cacheBlock struct {
	col  *mappedCol
	idx  int
	vals []dict.ID
}

// defaultBlockCacheSlots bounds the decoded-block footprint of one
// mapped snapshot at slots * colBlock * 8 bytes — 8 MiB.
const defaultBlockCacheSlots = 1024

func newBlockCache(slots int) *blockCache {
	if slots <= 0 {
		slots = defaultBlockCacheSlots
	}
	size := 1
	for size < slots {
		size <<= 1
	}
	return &blockCache{slots: make([]atomic.Pointer[cacheBlock], size), mask: uint32(size - 1)}
}

// get returns the decoded block idx of col, decoding on miss. A decode
// failure panics with *persist.ArtifactError (see package comment on
// column).
func (bc *blockCache) get(col *mappedCol, idx int) []dict.ID {
	slot := (col.id*0x9E3779B1 ^ uint32(idx)*0x85EBCA77) & bc.mask
	if e := bc.slots[slot].Load(); e != nil && e.col == col && e.idx == idx {
		bc.hits.Add(1)
		return e.vals
	}
	bc.misses.Add(1)
	start := time.Now()
	vals, err := col.decodeBlock(idx)
	bc.decodeNanos.Add(uint64(time.Since(start)))
	if err != nil {
		panic(err)
	}
	bc.slots[slot].Store(&cacheBlock{col: col, idx: idx, vals: vals})
	return vals
}

// counts returns the accumulated hit/miss counters.
func (bc *blockCache) counts() (hits, misses uint64) {
	return bc.hits.Load(), bc.misses.Load()
}
