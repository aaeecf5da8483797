package server

// The data-dir lifecycle: open-or-recover startup, write-ahead logging
// of delta writes, and checkpointing.
//
// A durable server keeps, under Config.DataDir,
//
//	base.snap / base.wal   the base graph: frozen v2 snapshot + delta WAL
//	inst.snap / inst.wal   the serving instance, when a materialized
//	                       schema distinct from the base is installed
//	views.snap             the view registry over the serving instance
//
// Invariant: at every instant the on-disk state recovers the acknowledged
// writes. A delta write is fsynced into the graph's WAL before the HTTP
// 200 goes out; a checkpoint replaces the snapshot atomically and then
// swaps in a WAL holding exactly the still-pending delta tail
// (persist.ReplaceWAL), so every crash window replays to the same
// (baseEpoch, deltaSeq) state. Structural writes — materialize, snapshot
// load, freeze-compaction, a write that crossed the compaction
// threshold — are made durable by checkpointing instead of logging.
//
// Recovery (Open) is the reverse: load base.snap (or seed an empty
// graph), replay base.wal, ditto for inst.*, then warm the registry from
// views.snap — restored views are Sync'd through the recovered delta
// feed, so they answer without a direct evaluation. Restart cost is the
// snapshot read (sequential, no rebuild) plus the WAL tail, not the
// dataset.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rdfcube/internal/dict"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/obs"
	"rdfcube/internal/persist"
	"rdfcube/internal/store"
)

// durability is the persistent half of a Server. Counters are guarded by
// mu; the WALs and file operations are guarded by the server's write
// lock.
type durability struct {
	dir     string
	fsys    faultfs.FS // every durable file operation goes through here
	baseWAL *persist.WAL
	instWAL *persist.WAL // nil while the instance is the base graph

	// commitWG tracks in-flight group-commit waits (stageWrite commits
	// running outside the write lock). Checkpoints and Close wait on it
	// before swapping or closing WAL handles; new stages are fenced by
	// the write lock those callers hold.
	commitWG sync.WaitGroup

	// baseWALDict / instWALDict track how many dictionary terms are
	// already durable for each graph (in its snapshot or earlier WAL
	// records). Batch term tails are computed against THIS, not against
	// the dictionary length observed before a write: base and a
	// materialized instance share one live dictionary, so a write to one
	// graph can intern terms a later write to the other graph
	// references — each WAL must carry every term its own replay needs.
	baseWALDict int
	instWALDict int

	mu               sync.Mutex
	checkpoints      int64
	lastCheckpointNs int64
	lastViews        int
	walFailures      int64
	checkpointErrors int64
	recoveredTriples int64
	recoveredBatches int64
	recoveredViews   int64
	recoveredSnap    bool
}

func (d *durability) path(name string) string { return filepath.Join(d.dir, name) }

// HasState reports whether dir holds recoverable durable state (a base
// snapshot) — the single place the data-dir layout is known, so callers
// deciding between seeding and recovering (cmd/rdfcubed) need not
// hardcode file names.
func HasState(dir string) bool {
	if dir == "" {
		return false
	}
	_, err := os.Stat(filepath.Join(dir, "base.snap"))
	return err == nil
}

// Open returns a server over the durable state in cfg.DataDir, seeding
// an empty or missing directory from seed (which may be nil). With no
// DataDir it is exactly New. Recovery loads the snapshots, replays the
// write-ahead logs and warms the view registry; the returned server
// answers queries at the exact (baseEpoch, deltaSeq) version the state
// was persisted at.
func Open(seed *store.Store, cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return New(seed, cfg), nil
	}
	fsys := faultfs.OrOS(cfg.FS)
	if err := fsys.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	d := &durability{dir: cfg.DataDir, fsys: fsys}
	_, baseSnapErr := fsys.Stat(d.path("base.snap"))
	freshDir := baseSnapErr != nil

	base, baseWAL, err := d.recoverGraph("base.snap", "base.wal", seed, cfg, cfg.Mapped)
	if err != nil {
		return nil, err
	}
	d.baseWAL = baseWAL
	d.baseWALDict = base.Dict().Len()
	srv := New(base, cfg)
	srv.dur = d

	if _, err := fsys.Stat(d.path("inst.snap")); err == nil {
		inst, instWAL, err := d.recoverGraph("inst.snap", "inst.wal", nil, cfg, false)
		if err != nil {
			return nil, fmt.Errorf("recovering instance: %w", err)
		}
		d.instWAL = instWAL
		d.instWALDict = inst.Dict().Len()
		srv.installInstance(inst)
	}
	srv.armWALMetrics()

	// Warm the registry from the view snapshot, if one lines up with the
	// recovered instance. A corrupt or mismatched view snapshot only
	// costs warmth, never correctness: whatever was admitted before the
	// failure stays, the rest is re-evaluated on demand.
	if f, err := fsys.Open(d.path("views.snap")); err == nil {
		n, _ := srv.reg.Restore(f)
		f.Close()
		d.recoveredViews = int64(n)
	}

	d.mu.Lock()
	srv.slog().Info("recovered durable state",
		slog.String("data_dir", d.dir),
		slog.Bool("from_snapshot", d.recoveredSnap),
		slog.Int64("replayed_batches", d.recoveredBatches),
		slog.Int64("replayed_triples", d.recoveredTriples),
		slog.Int64("recovered_views", d.recoveredViews))
	d.mu.Unlock()

	// Converge: a fresh directory checkpoints immediately, so recovery
	// never depends on the seed file staying byte-identical (WAL term
	// IDs are only meaningful against the exact dictionary the snapshot
	// records). Likewise if a crash interleaved a checkpoint (snapshot
	// written, WAL not yet swapped) or replay itself compacted, the WAL
	// epochs trail the stores — rewrite a clean checkpoint so the next
	// recovery is single-pass.
	if freshDir ||
		d.baseWAL.Epoch() != srv.base.Version().Base ||
		(d.instWAL != nil && d.instWAL.Epoch() != srv.inst.Version().Base) {
		if err := srv.checkpointLocked(); err != nil {
			return nil, err
		}
	}
	// Mapped mode with a heap base — first boot, a seed, or a pre-mmap
	// snapshot: checkpoint (mapped mode writes the base snapshot in the
	// mappable format) and swap the serving base for a mapping of the
	// file just written, so bigger-than-RAM serving starts now rather
	// than at the next restart.
	if cfg.Mapped && !srv.base.Mapped() {
		if err := srv.remapBase(); err != nil {
			return nil, err
		}
	}
	return srv, nil
}

// remapBase (mapped mode, startup) replaces a heap-recovered base graph
// with an mmap of its freshly checkpointed snapshot. Falls back to heap
// serving silently if the snapshot is not mappable.
func (s *Server) remapBase() error {
	// Fold any delta overlay (a recovered WAL tail) into the heap base
	// first: base.snap serializes only the frozen base, and the swap
	// below replaces the whole store — an unfolded overlay would be
	// silently dropped.
	if pc := s.base.PrepareCompaction(); pc != nil {
		s.base.InstallCompaction(pc)
	}
	if err := s.checkpointLocked(); err != nil {
		return err
	}
	d := s.dur
	g, err := store.OpenFrozenSnapshotMapped(d.path("base.snap"), store.MappedOptions{})
	if err != nil {
		return &persist.ArtifactError{Path: d.path("base.snap"), Kind: "snapshot", Err: err}
	}
	if !g.Mapped() {
		g.CloseMapped()
		return nil // keep the heap base
	}
	if s.cfg.CompactThreshold > 0 {
		g.SetCompactThreshold(s.cfg.CompactThreshold)
	}
	if s.cfg.SpillThreshold > 0 {
		if err := d.armSpill(g, s.cfg.SpillThreshold); err != nil {
			g.CloseMapped()
			return err
		}
	}
	wasServing := s.inst == s.base
	s.base = g
	d.baseWALDict = g.Dict().Len()
	if wasServing {
		s.installInstance(g)
	}
	s.armWALMetrics()
	return nil
}

// recoverGraph loads one graph from its snapshot + WAL pair. A missing
// snapshot falls back to seed (frozen) or a fresh store. Failures are
// typed persist.ArtifactError values naming the artifact that broke —
// "snapshot" (unreadable/corrupt snapshot), "wal" (log framing), or
// "dict" (a replayed triple referencing a term the dictionary never
// assigned) — so operators know which file to restore.
//
// With mapped set (the base graph under Config.Mapped), the snapshot is
// served by mmap instead of loaded onto the heap: OpenFrozenSnapshotMapped
// maps the file directly (a pre-mmap v1/v2 snapshot transparently falls
// back to the heap loader — Open converges it to the mappable format
// afterwards), leftover spill runs are swept, and delta spill is armed
// before the WAL replays so a long replay tail never balloons memory.
func (d *durability) recoverGraph(snapName, walName string, seed *store.Store, cfg Config, mapped bool) (*store.Store, *persist.WAL, error) {
	var g *store.Store
	snapPath := d.path(snapName)
	if mapped {
		if _, err := d.fsys.Stat(snapPath); err == nil {
			g, err = store.OpenFrozenSnapshotMapped(snapPath, store.MappedOptions{})
			if err != nil {
				return nil, nil, &persist.ArtifactError{Path: snapPath, Kind: "snapshot", Err: err}
			}
			d.recoveredSnap = true
		}
	} else if f, err := d.fsys.Open(snapPath); err == nil {
		g, err = store.OpenFrozenSnapshot(f)
		f.Close()
		if err != nil {
			return nil, nil, &persist.ArtifactError{Path: snapPath, Kind: "snapshot", Err: err}
		}
		d.recoveredSnap = true
	}
	if g == nil {
		g = seed
		if g == nil {
			g = store.New()
		}
		g.Freeze()
	}
	if cfg.CompactThreshold > 0 {
		g.SetCompactThreshold(cfg.CompactThreshold)
	}
	if mapped && cfg.SpillThreshold > 0 {
		if err := d.armSpill(g, cfg.SpillThreshold); err != nil {
			return nil, nil, err
		}
	}
	w, batches, _, err := persist.OpenWALFS(d.fsys, d.path(walName), g.Version().Base)
	if err != nil {
		return nil, nil, err // already a typed "wal" artifact error
	}
	for i, b := range batches {
		n, err := applyBatch(g, b)
		if err != nil {
			w.Close()
			return nil, nil, &persist.ArtifactError{
				Path: d.path(walName),
				Kind: "dict",
				Err:  fmt.Errorf("replaying batch %d: %w", i, err),
			}
		}
		d.recoveredTriples += int64(n)
		d.recoveredBatches++
	}
	return g, w, nil
}

// armSpill sweeps leftover spill runs (transient serving state — their
// triples re-replay from the WAL) and points g's delta spill at the
// data-dir's spill subdirectory.
func (d *durability) armSpill(g *store.Store, threshold int) error {
	dir := d.path("spill")
	if err := d.fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := store.CleanSpillDir(d.fsys, dir); err != nil {
		return err
	}
	g.SetSpill(d.fsys, dir, threshold)
	return nil
}

// applyBatch replays one WAL batch into g: intern the batch's new terms
// (idempotently — replays of already-snapshotted batches re-encode to
// the existing IDs), then insert its triples. Triples referencing IDs
// the dictionary never assigned are corruption.
func applyBatch(g *store.Store, b persist.Batch) (added int, err error) {
	for _, t := range b.Terms {
		g.Dict().Encode(t)
	}
	dictLen := g.Dict().Len()
	for _, t := range b.Triples {
		if int(t.S) > dictLen || int(t.P) > dictLen || int(t.O) > dictLen {
			return added, fmt.Errorf("%w: triple references unknown term ID %d (dictionary has %d terms)",
				persist.ErrCorrupt, maxID(t.S, t.P, t.O), dictLen)
		}
		if g.AddID(store.IDTriple{S: t.S, P: t.P, O: t.O}) {
			added++
		}
	}
	return added, nil
}

// durable reports whether the server persists to a data-dir.
func (s *Server) durable() bool { return s.dur != nil }

// walFor returns the WAL backing graph g (nil when g has none yet).
func (s *Server) walFor(g *store.Store) *persist.WAL {
	if g == s.base {
		return s.dur.baseWAL
	}
	return s.dur.instWAL
}

// walDictFor returns a pointer to the durable-dictionary-length counter
// of graph g's WAL.
func (s *Server) walDictFor(g *store.Store) *int {
	if g == s.base {
		return &s.dur.baseWALDict
	}
	return &s.dur.instWALDict
}

// logWrite makes a just-applied write to g durable before returning —
// stageWrite plus the commit wait, for callers that keep the write lock
// across the acknowledgement anyway.
func (s *Server) logWrite(ctx context.Context, g *store.Store, before store.Version) error {
	commit, err := s.stageWrite(ctx, g, before)
	if err != nil || commit == nil {
		return err
	}
	return commit()
}

// stageWrite makes a just-applied write to g durable. Caller holds the
// write lock and captured the graph's version before applying. Delta
// writes append one fsynced WAL batch carrying every dictionary term
// not yet durable for this graph (terms may have been interned by
// writes to the *other* graph — the dictionary is shared while an
// instance is materialized in-process); a write that moved the base
// epoch (threshold compaction, bulk load, freeze) checkpoints
// instead — which also truncates the log across the base move, so it
// cannot grow unboundedly.
//
// Without WAL group commit the append (fsync included) happens inline
// and the returned commit is nil. With group commit armed, only the
// record *staging* happens here — under the write lock, so replay order
// matches apply order — and the returned commit function blocks until a
// (shared) fsync covers the record. The caller MUST invoke it before
// acknowledging the write, after releasing the write lock, and treat
// its error exactly like an append failure.
func (s *Server) stageWrite(ctx context.Context, g *store.Store, before store.Version) (func() error, error) {
	if !s.durable() {
		return nil, nil
	}
	after := g.Version()
	if after == before {
		return nil, nil // nothing accepted
	}
	w := s.walFor(g)
	if after.Base != before.Base || w == nil {
		_, span := obs.StartSpan(ctx, "persist.checkpoint")
		err := s.checkpointLocked()
		span.End()
		return nil, err
	}
	durableDict := s.walDictFor(g)
	batch := persist.Batch{
		DictLen: *durableDict,
		Terms:   g.Dict().TermsFrom(*durableDict),
		Triples: toPersistTriples(g.DeltaSince(before.Seq)),
	}
	_, span := obs.StartSpan(ctx, "wal.append")
	span.AttrInt("triples", int64(len(batch.Triples)))
	span.AttrInt("terms", int64(len(batch.Terms)))
	if !w.GroupCommit() {
		err := w.Append(batch)
		span.End()
		if err != nil {
			s.countWALFailure()
			return nil, fmt.Errorf("wal append: %w", err)
		}
		*durableDict = g.Dict().Len()
		return nil, nil
	}
	p, err := w.Stage(batch)
	span.End()
	if err != nil {
		s.countWALFailure()
		return nil, fmt.Errorf("wal append: %w", err)
	}
	// The record is in the log (though not yet durable): later batches
	// staged behind it may already reference these terms, so the durable
	// dictionary length advances now. If the commit fails, the server
	// degrades read-only and re-baselines everything before the next
	// write.
	*durableDict = g.Dict().Len()
	// Checkpoints (and Close) must not swap the WAL handle out from
	// under an in-flight commit: they wait on commitWG under the write
	// lock, which also fences new stages.
	s.dur.commitWG.Add(1)
	return func() error {
		defer s.dur.commitWG.Done()
		if err := p.Commit(); err != nil {
			s.countWALFailure()
			return fmt.Errorf("wal append: %w", err)
		}
		return nil
	}, nil
}

func (s *Server) countWALFailure() {
	s.dur.mu.Lock()
	s.dur.walFailures++
	s.dur.mu.Unlock()
}

// maxID returns the largest of a triple's three term IDs — the one a
// corruption report should name.
func maxID(ids ...dict.ID) dict.ID {
	m := ids[0]
	for _, id := range ids[1:] {
		if id > m {
			m = id
		}
	}
	return m
}

func toPersistTriples(ts []store.IDTriple) []persist.Triple {
	out := make([]persist.Triple, len(ts))
	for i, t := range ts {
		out[i] = persist.Triple{S: t.S, P: t.P, O: t.O}
	}
	return out
}

// Checkpoint takes the write lock and persists a full checkpoint:
// snapshots, trimmed WALs, view-registry snapshot. It is what POST
// /snapshot (?checkpoint), the periodic checkpointer and graceful
// shutdown call.
func (s *Server) Checkpoint() (CheckpointResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.durable() {
		return CheckpointResponse{}, fmt.Errorf("server has no data-dir")
	}
	t0 := time.Now()
	if err := s.checkpointLocked(); err != nil {
		return CheckpointResponse{}, err
	}
	s.dur.mu.Lock()
	views := s.dur.lastViews
	s.dur.mu.Unlock()
	return CheckpointResponse{
		Triples:   s.base.Len(),
		DeltaTail: s.base.DeltaLen(),
		Views:     views,
		ElapsedNs: time.Since(t0).Nanoseconds(),
	}, nil
}

// checkpointLocked persists the full durable state. Caller holds the
// write lock. The sequence per graph is crash-safe: the snapshot
// replaces atomically first, then the WAL is atomically swapped for one
// holding only the still-pending delta tail — every intermediate state
// recovers (an over-long WAL replays idempotently). Every failure is
// counted in checkpointErrors; callers additionally decide whether it
// trips read-only mode (failDurable / enterDegraded).
func (s *Server) checkpointLocked() error {
	d := s.dur
	if d == nil {
		return nil
	}
	err := s.checkpointFilesLocked()
	if err != nil {
		d.mu.Lock()
		d.checkpointErrors++
		d.mu.Unlock()
		s.met.checkpointErrors.Inc()
	}
	return err
}

// armWALMetrics points the current WAL handles at the server's
// append/fsync collectors and (re-)arms group commit. Must be re-run
// after every handle swap — checkpoints replace the WALs with fresh
// ones holding only the delta tail — or the new handles record nothing.
func (s *Server) armWALMetrics() {
	if s.dur == nil {
		return
	}
	if s.dur.baseWAL != nil {
		s.dur.baseWAL.SetMetrics(s.met.wal)
		s.dur.baseWAL.SetGroupCommit(s.cfg.WALGroupCommit)
	}
	if s.dur.instWAL != nil {
		s.dur.instWAL.SetMetrics(s.met.wal)
		s.dur.instWAL.SetGroupCommit(s.cfg.WALGroupCommit)
	}
}

func (s *Server) checkpointFilesLocked() error {
	d := s.dur
	// Fence in-flight group commits: they hold PendingAppend handles
	// into the WALs this checkpoint is about to replace. Their staged
	// records are covered either way — the snapshot below serializes the
	// store state those writes already mutated.
	d.commitWG.Wait()
	t0 := time.Now()
	var err error
	if d.baseWAL, err = checkpointGraph(d.fsys, s.base, d.path("base.snap"), d.baseWAL, s.cfg.Mapped || s.base.Mapped()); err != nil {
		return err
	}
	d.baseWALDict = s.base.Dict().Len() // the snapshot holds the full dictionary
	if s.inst != s.base {
		if d.instWAL, err = checkpointGraph(d.fsys, s.inst, d.path("inst.snap"), d.instWAL, false); err != nil {
			return err
		}
		d.instWALDict = s.inst.Dict().Len()
	} else {
		if d.instWAL != nil {
			d.instWAL.Close()
			d.instWAL = nil
		}
		d.instWALDict = 0
		d.fsys.Remove(d.path("inst.snap"))
		d.fsys.Remove(d.path("inst.wal"))
	}
	views := 0
	if err := persist.AtomicWriteFS(d.fsys, d.path("views.snap"), func(w io.Writer) error {
		n, err := s.reg.Save(w)
		views = n
		return err
	}); err != nil {
		return &persist.ArtifactError{Path: d.path("views.snap"), Kind: "views", Err: err}
	}
	s.armWALMetrics() // the swaps above installed fresh WAL handles
	elapsed := time.Since(t0).Nanoseconds()
	s.met.checkpoints.Inc()
	s.met.checkpointSec.Observe(elapsed)
	d.mu.Lock()
	d.checkpoints++
	d.lastCheckpointNs = elapsed
	d.lastViews = views
	d.mu.Unlock()
	return nil
}

// checkpointGraph persists one graph: snapshot the base columns, swap
// the WAL down to the delta tail.
//
// With v3 set (mapped mode), the snapshot is written in the mappable
// format — and skipped entirely when the graph's mmap'd file already IS
// its current frozen base (the common case after a mapped compaction:
// only the WAL needs trimming).
func checkpointGraph(fsys faultfs.FS, g *store.Store, snapPath string, wal *persist.WAL, v3 bool) (*persist.WAL, error) {
	switch {
	case g.MappedBaseClean():
		// base.snap is the mapping we serve from; rewriting it would be
		// a byte-identical no-op at best and would churn the page cache.
	case v3:
		if err := persist.AtomicWriteFS(fsys, snapPath, g.WriteFrozenBaseV3); err != nil {
			return wal, &persist.ArtifactError{Path: snapPath, Kind: "snapshot", Err: err}
		}
	default:
		if err := persist.AtomicWriteFS(fsys, snapPath, g.WriteFrozenBase); err != nil {
			return wal, &persist.ArtifactError{Path: snapPath, Kind: "snapshot", Err: err}
		}
	}
	var tail []persist.Batch
	if g.DeltaLen() > 0 {
		tail = []persist.Batch{{
			DictLen: g.Dict().Len(),
			Triples: toPersistTriples(g.DeltaSince(0)),
		}}
	}
	next, err := persist.ReplaceWALFS(fsys, walPathFor(snapPath), g.Version().Base, tail)
	if err != nil {
		return wal, err
	}
	if wal != nil {
		wal.Close()
	}
	return next, nil
}

// walPathFor maps a snapshot path to its WAL sibling (base.snap ->
// base.wal).
func walPathFor(snapPath string) string {
	return snapPath[:len(snapPath)-len(".snap")] + ".wal"
}

// Close releases the durable file handles (after a final checkpoint if
// requested by the caller). Safe on a non-durable server. Background
// compactions are fenced off first — the closed flag (set under the
// write lock, checked by maybeCompact under the same lock) stops new
// ones, and any in-flight one is awaited — because a compaction may
// checkpoint, which would otherwise reopen WAL handles and rewrite the
// data-dir after Close returned.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stopRetry() // after closed is set: a racing retry sees it and exits
	s.compactWG.Wait()
	if !s.durable() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dur.commitWG.Wait() // in-flight group commits finish before the handles close
	if s.dur.baseWAL != nil {
		s.dur.baseWAL.Close()
	}
	if s.dur.instWAL != nil {
		s.dur.instWAL.Close()
	}
	if s.base.Mapped() {
		s.base.CloseMapped()
	}
	return nil
}
