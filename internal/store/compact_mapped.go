package store

// Mapped compaction: folding the delta overlay of an mmap-backed store
// into a NEW snapshot file, then atomically remapping — the counterpart
// of PrepareCompaction/InstallCompaction for stores opened with
// OpenFrozenSnapshotMapped, where "the base" is a file and rebuilding
// it in heap would defeat bigger-than-RAM serving.
//
// The split mirrors the heap compactor: PrepareMappedCompaction does
// the expensive work (merge base + overlay, serialize a v3 snapshot,
// atomic-rename it over the target path) under the caller's read lock,
// concurrent with queries; InstallMappedCompaction runs under the write
// lock, mmaps the file it wrote, swaps the frozen base and rebases the
// dictionary onto the new mapping, requeues post-prepare writes, and
// unmaps the old snapshot.
//
// The merge materializes the combined base in heap transiently (the
// same mergedFrozen the heap compactor uses, plus the full term list) —
// a deliberate simplicity/peak-RSS trade: the spike lasts for the
// serialization only, is bounded by one snapshot's decoded size, and
// compaction frequency is controlled by the compaction threshold.
// Steady-state resident memory stays cache-bounded.
//
// Crash safety: the snapshot written at prepare time carries the
// POST-install epoch, and the WAL keeps every delta batch until the
// next checkpoint trims it. Whatever window a crash hits, recovery
// replays the WAL over whichever snapshot is on disk — replay
// deduplicates against the base, so a folded-and-logged triple is
// harmless.

import (
	"fmt"
	"io"

	"rdfcube/internal/faultfs"
	"rdfcube/internal/persist"
)

// PreparedMappedCompaction is a merged v3 snapshot written to disk off
// the write path, awaiting InstallMappedCompaction.
type PreparedMappedCompaction struct {
	against  *frozen
	base     uint64
	consumed int
	path     string
	opts     MappedOptions
}

// Pending reports how many delta triples the prepared snapshot folded.
func (pm *PreparedMappedCompaction) Pending() int { return pm.consumed }

// PrepareMappedCompaction merges the mapped frozen base with the delta
// overlay and writes the result as a v3 snapshot over path (atomic
// temp-and-rename through fsys). Returns nil when there is nothing to
// compact or the store is not serving a clean mapped base. The caller
// must hold whatever lock serializes it against writes; queries may run
// concurrently. opts configures the mapping the install will open.
func (st *Store) PrepareMappedCompaction(fsys faultfs.FS, path string, opts MappedOptions) (*PreparedMappedCompaction, error) {
	if st.mapped == nil || st.frz != st.mapped.frz || st.dlt.len() == 0 {
		return nil, nil
	}
	pm := &PreparedMappedCompaction{
		against:  st.frz,
		base:     st.Version().Base,
		consumed: st.dlt.len(),
		path:     path,
		opts:     opts,
	}
	merged := st.mergedFrozen(nil)
	terms := st.dict.Terms()
	err := persist.AtomicWriteFS(fsys, path, func(w io.Writer) error {
		// Stamp the epoch the store will have once this base installs,
		// so a restart from the file resumes at the post-install version.
		return writeFrozenBaseV3(w, pm.base+1, merged, terms)
	})
	if err != nil {
		return nil, &persist.ArtifactError{Path: path, Kind: "snapshot", Err: err}
	}
	return pm, nil
}

// InstallMappedCompaction swaps the prepared snapshot in under the
// caller's write serialization: the file is mmap'd, the frozen base and
// block caches are replaced, the dictionary is rebased onto the new
// mapping's term blocks (IDs are stable — see Dictionary.Rebase), the
// delta overlay resets (discarding any spilled run) with post-prepare
// writes requeued in arrival order, and the old snapshot is unmapped.
// Reports false — leaving the store untouched, the written file stale —
// when the base moved since the prepare. The caller must guarantee no
// concurrent readers during the swap AND that none still hold cursors
// into the old mapping when this returns (the old file is unmapped).
func (st *Store) InstallMappedCompaction(pm *PreparedMappedCompaction) (bool, error) {
	if pm == nil || st.frz != pm.against || st.Version().Base != pm.base {
		return false, nil
	}
	nst, err := OpenFrozenSnapshotMapped(pm.path, pm.opts)
	if err != nil {
		return false, err
	}
	if !nst.Mapped() {
		// The path no longer holds a v3 snapshot — something else owns
		// the file; refuse rather than serve it.
		nst.CloseMapped()
		return false, fmt.Errorf("store: prepared snapshot %s is not mappable", pm.path)
	}
	if nst.mapped.epoch != pm.base+1 {
		// The file was rewritten since the prepare — a checkpoint ran
		// between our read-locked prepare and this write-locked install
		// and serialized the *unfolded* base (stamped with the current
		// epoch, not the post-install one). Installing it would drop the
		// delta overlay that only the prepared fold contained. Discard;
		// the next threshold write schedules a fresh prepare.
		nst.CloseMapped()
		return false, nil
	}
	tail := append([]IDTriple(nil), st.dlt.log[pm.consumed:]...)
	st.dict.Rebase(nst.mapped.md)
	old := st.mapped
	st.mapped = nst.mapped
	st.frz = nst.mapped.frz
	st.dlt.reset()
	st.bumpBase()
	for _, t := range tail {
		st.dlt.add(t)
		st.ver.Add(1)
	}
	st.maybeSpill()
	if old != nil {
		old.close()
	}
	return true, nil
}
