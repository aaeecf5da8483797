// Package store implements an in-memory, dictionary-encoded RDF triple
// store over sorted permutation indexes.
//
// Every store is one representation: a sorted columnar base (four
// permutations SPO/POS/OSP/PSO, see index.go) plus a small sorted delta
// overlay of the writes accepted since the base was built (delta.go).
// The store answers the eight triple-pattern shapes (each of S, P, O
// either bound or free) by resolving the pattern to one contiguous range
// of the permutation whose prefix covers the bound positions, merged
// with the matching range of the overlay — a binary search, never a
// scan. Bulk loads go through AddBatch, which sorts the batch and merges
// it into a rebuilt base; AddID is the incremental write path into the
// overlay. Cardinality statistics (per-predicate counts, distinct
// subjects/objects per predicate) feed the BGP evaluator's join
// ordering.
//
// The store is safe for concurrent readers; writes must not be concurrent
// with reads or other writes (the usual load-then-query lifecycle of an
// analytical system).
package store

import (
	"slices"
	"sync/atomic"

	"rdfcube/internal/dict"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/rdf"
)

// IDTriple is a dictionary-encoded triple.
type IDTriple struct {
	S, P, O dict.ID
}

// Store is an indexed triple store over a term dictionary.
//
// The store is layered: frz is the read-optimized sorted columnar base
// of index.go, and dlt a small sorted delta overlay (delta.go) holding
// the writes accepted since the base was built. The two are disjoint,
// and every read path merges them. The overlay is folded into a rebuilt
// base when it reaches the compaction threshold, on an explicit Freeze,
// or by the next AddBatch.
type Store struct {
	dict *dict.Dictionary

	// Per-predicate triple counts, maintained incrementally.
	predCount map[dict.ID]int

	// frz is the compacted sorted-array base (never nil; empty on a new
	// store); dlt overlays the writes accepted since it was built.
	frz *frozen
	dlt delta

	// compactThreshold is the delta size that triggers folding the
	// overlay into a rebuilt frozen base.
	compactThreshold int

	// noInlineCompact suppresses the threshold-triggered inline
	// compaction on the write path; the owner is then expected to fold
	// the overlay off the write path via PrepareCompaction /
	// InstallCompaction (the server's background compactor). Explicit
	// Freeze still compacts synchronously.
	noInlineCompact bool

	// Delta-spill configuration and state (see spill.go). spillDir == ""
	// means spilling is disabled.
	spillFS        faultfs.FS
	spillDir       string
	spillThreshold int
	spillSeq       int
	spillCount     uint64
	spillErr       error

	// mapped, when non-nil, owns the mmap'd snapshot the frozen base
	// aliases (see snapshot_mapped.go). The store must not outlive it.
	mapped *mappedSnapshot

	// ver packs the two-part write version (baseEpoch << 32 | deltaSeq).
	// deltaSeq counts the triples accepted into the current delta
	// overlay; baseEpoch advances whenever the base is rebuilt
	// (compaction, AddBatch) — exactly the events after which the delta
	// feed can no longer replay the difference. Concurrent readers (the
	// view registry, the server) use it to decide between maintaining a
	// materialization (same base, newer delta) and discarding it (base
	// moved); reading it never blocks. Writes themselves must still be
	// serialized against reads by the caller.
	ver atomic.Uint64
}

// Version is the decoded two-part write version of a store.
type Version struct {
	// Base counts base rebuilds.
	Base uint64
	// Seq counts the triples in the current delta overlay (0 right after
	// a rebuild).
	Seq uint64
}

// New returns an empty store over a fresh dictionary.
func New() *Store { return NewWithDict(dict.New()) }

// NewWithDict returns an empty store sharing the given dictionary.
// Sharing lets several graphs (base data, AnS instance, materialized
// cubes) use one ID space so results join without re-encoding.
func NewWithDict(d *dict.Dictionary) *Store {
	return &Store{
		dict:             d,
		predCount:        make(map[dict.ID]int),
		frz:              emptyFrozen(),
		compactThreshold: DefaultCompactThreshold,
	}
}

// installBase makes frz (loaded from a snapshot) the store's base at
// baseEpoch, deriving the per-predicate counts from its POS runs.
func (st *Store) installBase(frz *frozen, baseEpoch uint64) {
	st.frz = frz
	st.ver.Store(baseEpoch << 32)
	for i, p := range frz.pos.keys {
		st.predCount[p] = frz.pos.off[i+1] - frz.pos.off[i]
	}
}

// Dict returns the store's term dictionary.
func (st *Store) Dict() *dict.Dictionary { return st.dict }

// Epoch returns the packed write version: it increases on every
// accepted write and on every base rebuild, so a materialized result
// tagged with the epoch at evaluation time reflects the store's
// contents exactly while Epoch() still returns that value. Callers that
// can maintain materializations should prefer Version, which separates
// "base rebuilt" (recompute) from "delta grew" (apply the feed). Safe to
// read concurrently with other reads.
func (st *Store) Epoch() uint64 { return st.ver.Load() }

// Version returns the decoded (baseEpoch, deltaSeq) write version.
func (st *Store) Version() Version {
	v := st.ver.Load()
	return Version{Base: v >> 32, Seq: v & 0xffffffff}
}

// bumpBase advances the base epoch and clears the delta sequence. Called
// under the caller's write serialization.
func (st *Store) bumpBase() {
	st.ver.Store(((st.ver.Load() >> 32) + 1) << 32)
}

// DeltaLen reports the number of triples in the delta overlay.
func (st *Store) DeltaLen() int { return st.dlt.len() }

// DeltaSince returns the delta-feed triples accepted after sequence
// number seq (a Version.Seq observed earlier under the same Base). The
// returned slice aliases the feed and must not be mutated; it is valid
// until the next compaction.
func (st *Store) DeltaSince(seq uint64) []IDTriple {
	if seq >= uint64(len(st.dlt.log)) {
		return nil
	}
	return st.dlt.log[seq:]
}

// SetCompactThreshold overrides the delta size at which a write compacts
// the overlay into a rebuilt frozen base (values < 1 restore the
// default).
func (st *Store) SetCompactThreshold(n int) {
	if n < 1 {
		n = DefaultCompactThreshold
	}
	st.compactThreshold = n
}

// CompactThreshold returns the current compaction threshold.
func (st *Store) CompactThreshold() int { return st.compactThreshold }

// SetInlineCompaction controls whether a write that grows the delta
// overlay past the compaction threshold folds it into a rebuilt base
// right there on the write path (the default). Passing false defers
// that work to an external compactor driving PrepareCompaction /
// InstallCompaction — the overlay then grows past the threshold until
// the compactor catches up (or an explicit Freeze compacts inline).
func (st *Store) SetInlineCompaction(inline bool) { st.noInlineCompact = !inline }

// NeedsCompaction reports whether the delta overlay has reached the
// compaction threshold — the signal a background compactor polls.
func (st *Store) NeedsCompaction() bool {
	return st.dlt.len() >= st.compactThreshold
}

// Len reports the number of distinct triples (base and overlay are
// disjoint, so their sizes add).
func (st *Store) Len() int { return st.frz.spo.len() + st.dlt.len() }

// EncodeTriple interns the terms of tr and returns its encoded triple —
// the staging step of a bulk load feeding AddBatch.
func (st *Store) EncodeTriple(tr rdf.Triple) IDTriple {
	s, p, o := st.dict.EncodeTriple(tr)
	return IDTriple{s, p, o}
}

// Add inserts the term triple tr, interning its terms, through the
// incremental path of AddID. It reports whether the triple was new.
// Bulk loads stage their triples and call AddBatch instead.
func (st *Store) Add(tr rdf.Triple) bool {
	return st.AddID(st.EncodeTriple(tr))
}

// AddID inserts an already-encoded triple — the incremental write path.
// It reports whether the triple was new. The triple lands in the delta
// overlay (the compacted base survives) and the delta sequence advances;
// past the compaction threshold the overlay is folded into a rebuilt
// base.
func (st *Store) AddID(t IDTriple) bool {
	if st.ContainsID(t) {
		return false
	}
	st.predCount[t.P]++
	st.dlt.add(t)
	st.ver.Add(1)
	if st.dlt.len() >= st.compactThreshold && !st.noInlineCompact {
		st.compact()
	} else {
		st.maybeSpill()
	}
	return true
}

// AddBatch is the bulk write path. It sorts and deduplicates ts in
// place, drops the triples already in the base or the delta overlay,
// and merges the rest — together with any pending overlay — into a
// rebuilt base: one sort and one linear merge per permutation. The base
// epoch advances once; the overlay is left empty. It returns the prefix
// of ts holding the triples that were new, in (S, P, O) order; a batch
// with nothing new changes nothing.
func (st *Store) AddBatch(ts []IDTriple) []IDTriple {
	slices.SortFunc(ts, permCmp(permSPO))
	ts = slices.Compact(ts)
	ts = slices.DeleteFunc(ts, st.ContainsID)
	if len(ts) == 0 {
		return ts
	}
	for _, t := range ts {
		st.predCount[t.P]++
	}
	st.frz = st.mergedFrozen(ts)
	st.dlt.reset()
	st.bumpBase()
	return ts
}

// Contains reports whether the term triple tr is in the store.
func (st *Store) Contains(tr rdf.Triple) bool {
	s, ok1 := st.dict.Lookup(tr.S)
	p, ok2 := st.dict.Lookup(tr.P)
	o, ok3 := st.dict.Lookup(tr.O)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	return st.ContainsID(IDTriple{s, p, o})
}

// ContainsID reports whether the encoded triple is in the store: binary
// searches of the frozen base and the delta overlay.
func (st *Store) ContainsID(t IDTriple) bool {
	return st.frz.spo.contains(t.S, t.P, t.O) || st.dlt.contains(t)
}
