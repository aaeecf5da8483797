// Package server exposes the OLAP engine over HTTP/JSON: load or
// snapshot a graph, materialize an analytical schema, submit analytical
// queries and OLAP operations, and inspect server statistics. Every
// query is answered through a shared viewreg.Registry, so concurrent
// clients transparently reuse each other's materialized views — the
// paper's rewriting (Figure 2) as a multi-tenant service.
//
// Endpoints:
//
//	POST /load           N-Triples body → bulk-add to the base graph,
//	                     leaving no pending delta (?saturate=1 applies
//	                     RDFS entailment)
//	POST /insert         N-Triples body → delta write into the serving
//	                     instance (?graph=base targets the base graph):
//	                     the sorted base survives, registered views are
//	                     maintained through the delta feed
//	POST /load-snapshot  binary snapshot body → replace the base graph
//	GET  /snapshot       binary snapshot of the base graph (?graph=instance)
//	POST /materialize    SchemaRequest → serve the materialized instance
//	POST /freeze         compact base and instance onto the sorted indexes
//	POST /query          QueryRequest → QueryResponse
//	GET  /statsz         StatsResponse (strategies, latencies, registry)
//	GET  /healthz        liveness probe
//
// Concurrency model: queries run under a read lock (the store and the
// registry are concurrency-safe for readers); anything that writes the
// graphs — load, insert, load-snapshot, materialize, freeze — takes the
// write lock, so a mutation never races an evaluation. With
// Config.BackgroundCompaction, the threshold-triggered folding of the
// delta overlay into a rebuilt frozen base leaves the write path too:
// the merge runs under the read lock, concurrent with queries, and only
// the pointer swap takes the write lock. A write to the
// serving instance notifies the registry inside the critical section:
// views behind only on the delta sequence are *maintained* (the store's
// delta feed is applied to their pres(Q) via internal/incr), and only
// base-epoch moves (compaction, re-materialization) evict them — so
// rewrites keep being served from materialized views under a write-heavy
// workload.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdfcube/internal/algebra"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/nt"
	"rdfcube/internal/obs"
	"rdfcube/internal/obs/workload"
	"rdfcube/internal/rdf"
	"rdfcube/internal/rdfs"
	"rdfcube/internal/store"
	"rdfcube/internal/viewreg"
)

// Config parameterizes a server.
type Config struct {
	// MaxViewBytes bounds the shared view registry (0 = unbounded).
	MaxViewBytes int64
	// MaxViewEntries additionally bounds the entry count.
	MaxViewEntries int
	// MaxBodyBytes caps request bodies (default 1 GiB).
	MaxBodyBytes int64
	// CompactThreshold overrides the stores' delta-overlay size that
	// triggers compaction into a rebuilt frozen base (0 = store default).
	CompactThreshold int
	// BackgroundCompaction moves threshold-triggered compaction off the
	// write path: a write that fills the delta overlay returns
	// immediately, and a background goroutine merges base + overlay
	// (running concurrently with queries under the read lock) and swaps
	// the rebuilt base in under the write lock. Explicit POST /freeze
	// still compacts synchronously.
	BackgroundCompaction bool
	// DataDir enables durability: snapshots, write-ahead logs and the
	// view-registry snapshot live under this directory, written by
	// checkpoints and consulted by Open on startup. Empty means a purely
	// in-memory server.
	DataDir string
	// Mapped serves the base graph from an mmap'd snapshot
	// (store.OpenFrozenSnapshotMapped): frozen columns and the
	// dictionary stay on disk behind fixed-size block caches, so
	// steady-state resident memory is cache-bounded instead of
	// dataset-bounded. Snapshots are written in the mappable v3 format;
	// background compaction folds the delta overlay into a new snapshot
	// file and remaps atomically under the write lock. Requires DataDir
	// (the mapping needs a real file to serve from).
	Mapped bool
	// SpillThreshold, in mapped mode, spills the delta overlay's sorted
	// side to an on-disk run under DataDir/spill once it holds this many
	// triples, keeping write bursts between compactions off the heap.
	// Zero keeps the overlay fully in memory.
	SpillThreshold int
	// WALGroupCommit coalesces concurrent writers' WAL appends into
	// shared fsyncs: each record is staged under the write lock (replay
	// order = apply order) and the fsync happens outside it, with the
	// commit leader waiting up to this window for stragglers when
	// writers overlap. Zero disables (one fsync per write, the default).
	WALGroupCommit time.Duration
	// FS routes every durable file operation; nil means the real OS.
	// Fault-injection tests (and -fault-plan) pass a faultfs.Injector.
	FS faultfs.FS
	// QueryTimeout bounds each query evaluation; past it the evaluation
	// is cancelled cooperatively and the request answered 504 (0 = no
	// deadline).
	QueryTimeout time.Duration
	// MaxInFlight caps concurrently-admitted requests (0 = unlimited).
	// An excess request waits up to QueueTimeout (default 1s) for a
	// slot, then is shed with 503 + Retry-After. Health and stats
	// probes are exempt.
	MaxInFlight  int
	QueueTimeout time.Duration
	// RetryMin/RetryMax bound the exponential backoff of degraded-mode
	// durability re-arming (defaults 100ms / 5s).
	RetryMin time.Duration
	RetryMax time.Duration
	// TraceAll traces every query: per-stage span trees through
	// viewreg → bgp → store → persist, inspectable at GET
	// /debug/traces/last. ?explain=analyze traces its own request
	// regardless of this flag.
	TraceAll bool
	// SlowQuery arms the slow-query log: any query slower than this is
	// logged (Warn) with its trace ID and per-stage breakdown. Arming
	// it implies tracing every query — the trace is the log payload.
	// Zero disables.
	SlowQuery time.Duration
	// SlowQueryBurst bounds the slow-query log per query fingerprint: at
	// most this many records per shape initially, refilled at one per
	// second; suppressed records are counted onto the next emitted one.
	// Zero or negative means the default burst of 1.
	SlowQueryBurst int
	// WorkloadTopK sizes the workload profiler's top-K-by-cost sketch
	// (0 = default 20). The profiler itself is always on: it aggregates
	// the per-query cost accounting by canonical query fingerprint,
	// served at GET /debug/workload, in /statsz and as
	// rdfcube_workload_* series.
	WorkloadTopK int
	// AdmissionCost switches the view registry from admit-always to
	// cost-based admission: a directly evaluated view is materialized
	// only when its measured evaluation cost times the workload
	// profiler's observed reuse for the shape outweighs its byte
	// footprint, and eviction prefers the lowest benefit-per-byte entry
	// over plain LRU.
	AdmissionCost bool
	// AdmissionThreshold scales the byte price of cost-based admission
	// (0 = 1.0): admit when evalNs × reuse ≥ bytes × threshold.
	AdmissionThreshold float64
	// Logger receives the server's structured logs; nil means
	// slog.Default().
	Logger *slog.Logger
}

// Server is the HTTP facade over one base graph, one serving instance
// and one shared view registry.
type Server struct {
	cfg   Config
	start time.Time

	// mu orders graph mutations before queries: RLock for answering,
	// Lock for load/materialize/freeze.
	mu   sync.RWMutex
	base *store.Store
	inst *store.Store // == base until a schema is materialized
	reg  *viewreg.Registry
	// closed (guarded by mu) stops new background compactions from
	// being scheduled once Close has begun.
	closed bool

	// dur is the durable state (persist.go); nil for in-memory servers.
	dur *durability

	// Background compaction state: one in-flight compaction at a time,
	// counted in the metric registry; Close waits on the group so
	// shutdown never races a checkpointing compaction.
	compacting atomic.Bool
	compactWG  sync.WaitGroup

	// Resilience state (resilience.go): degraded read-only mode and the
	// admission semaphore. Shed/panic counts live in the registry.
	deg degraded
	sem chan struct{}

	// Observability (obs.go): the metric registry every subsystem
	// reports into, the per-route request collectors, the query tracer,
	// the workload profiler and the structured logger. The profiler is
	// server-owned (not per-registry): its per-shape reuse statistics
	// survive instance swaps, which is what makes cost-based admission
	// of the *next* registry informed.
	obs       *obs.Registry
	tracer    *obs.Tracer
	workload  *workload.Registry
	logger    *slog.Logger
	met       serverMetrics
	epMu      sync.Mutex
	endpoints map[string]*endpointMetrics
}

// New returns a server over the given base graph (nil for an empty one).
// The graph is served as-is until /materialize installs an instance.
func New(base *store.Store, cfg Config) *Server {
	if base == nil {
		base = store.New()
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 1 << 30
	}
	s := &Server{
		cfg:       cfg,
		start:     time.Now(),
		base:      base,
		logger:    cfg.Logger,
		obs:       obs.NewRegistry(),
		tracer:    &obs.Tracer{},
		endpoints: map[string]*endpointMetrics{},
	}
	s.met = newServerMetrics(s.obs)
	s.workload = workload.New(workload.Config{
		TopK:    cfg.WorkloadTopK,
		Metrics: s.obs,
	})
	s.tracer.SetEnabled(cfg.TraceAll)
	s.tracer.SetSlowThreshold(cfg.SlowQuery)
	s.tracer.SetSlowQueryBurst(cfg.SlowQueryBurst)
	s.tracer.SetLogger(s.slog())
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	s.installInstance(base) // also applies the background-compaction mode
	s.wireGauges()
	return s
}

// maybeCompact schedules a background compaction of g when its delta
// overlay has reached the threshold and none is in flight. Caller holds
// the write lock (the check reads the store and the closed flag).
func (s *Server) maybeCompact(g *store.Store) {
	if s.closed || !s.cfg.BackgroundCompaction || !g.NeedsCompaction() {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return // one at a time; the next write re-triggers
	}
	s.compactWG.Add(1)
	go s.compactAsync(g)
}

// compactAsync folds g's delta overlay into a rebuilt frozen base off
// the write path: the merge runs under the read lock, concurrent with
// queries, and only the swap takes the write lock. A prepare raced by a
// structural change (explicit freeze, re-materialization) is discarded
// — the next threshold write schedules a fresh one.
//
// A durable mapped base graph compacts through the mapped path instead:
// the merge is serialized straight into a new snapshot file (atomic
// rename over base.snap) and the install remaps it, so the folded base
// never becomes a resident heap structure. A mapped store that is
// serving a diverged heap base (explicit /freeze folded it) falls back
// to the heap compactor.
func (s *Server) compactAsync(g *store.Store) {
	defer s.compactWG.Done()
	defer s.compacting.Store(false)
	var (
		pc *store.PreparedCompaction
		pm *store.PreparedMappedCompaction
	)
	s.mu.RLock()
	if g.Mapped() && g == s.base && s.durable() {
		var err error
		pm, err = g.PrepareMappedCompaction(s.dur.fsys, s.dur.path("base.snap"), store.MappedOptions{})
		if err != nil {
			s.mu.RUnlock()
			// The fold could not be written (disk full, I/O error): the
			// durability contract for the *next* compaction checkpoint is
			// already in doubt, so degrade now, like a failed checkpoint.
			s.enterDegraded("compaction prepare", err)
			return
		}
	}
	if pm == nil {
		pc = g.PrepareCompaction()
	}
	s.mu.RUnlock()
	if pm == nil && pc == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if pm != nil {
		ok, err := g.InstallMappedCompaction(pm)
		if err != nil {
			s.enterDegraded("compaction install", err)
			return
		}
		if !ok {
			return
		}
	} else if !g.InstallCompaction(pc) {
		return
	}
	s.met.bgCompactions.Inc()
	if g == s.inst {
		// The base epoch moved: sweep the registry eagerly, exactly as an
		// inline compaction would have inside the write critical section.
		s.reg.NotifyWrite()
	}
	if s.durable() {
		// The WAL must re-baseline across every base-epoch move. There is
		// no request to report a failure through, so it is counted and the
		// server goes read-only until the backoff retry re-arms.
		if err := s.checkpointLocked(); err != nil {
			s.enterDegraded("compaction checkpoint", err)
		}
	}
}

// installInstance swaps the serving instance and resets the registry.
// Caller must hold the write lock (or be the constructor).
func (s *Server) installInstance(inst *store.Store) {
	if s.cfg.CompactThreshold > 0 {
		inst.SetCompactThreshold(s.cfg.CompactThreshold)
	}
	if s.cfg.BackgroundCompaction {
		inst.SetInlineCompaction(false)
	}
	s.inst = inst
	s.reg = viewreg.New(inst, viewreg.Config{
		MaxBytes:           s.cfg.MaxViewBytes,
		MaxEntries:         s.cfg.MaxViewEntries,
		Metrics:            s.obs,
		AdmissionCost:      s.cfg.AdmissionCost,
		AdmissionThreshold: s.cfg.AdmissionThreshold,
		Workload:           s.workload,
	})
}

// Registry exposes the shared view registry (tests, diagnostics).
func (s *Server) Registry() *viewreg.Registry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.reg
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /load", s.instrument("/load", s.handleLoad))
	mux.Handle("POST /insert", s.instrument("/insert", s.handleInsert))
	mux.Handle("POST /load-snapshot", s.instrument("/load-snapshot", s.handleLoadSnapshot))
	mux.Handle("GET /snapshot", s.instrument("/snapshot", s.handleSnapshot))
	mux.Handle("POST /snapshot", s.instrument("/checkpoint", s.handleCheckpoint))
	mux.Handle("POST /materialize", s.instrument("/materialize", s.handleMaterialize))
	mux.Handle("POST /freeze", s.instrument("/freeze", s.handleFreeze))
	mux.Handle("POST /query", s.instrument("/query", s.handleQuery))
	mux.Handle("GET /statsz", s.instrument("/statsz", s.handleStatsz))
	mux.Handle("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	mux.Handle("GET /debug/traces/last", s.instrument("/debug/traces/last", s.handleTraces))
	mux.Handle("GET /debug/workload", s.instrument("/debug/workload", s.handleWorkload))
	mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	return mux
}

// handlerFunc is a handler returning an HTTP status and optional error.
// A non-nil error with a zero status is counted in the endpoint metrics
// but rendered by the handler itself (or not at all — e.g. a failure
// mid-stream, after the response headers have gone out).
type handlerFunc func(w http.ResponseWriter, r *http.Request) (int, error)

// instrument wraps a handler with admission control, panic containment,
// body capping, latency/error metrics and uniform error rendering. The
// collectors are resolved once, at wiring time; the request path itself
// takes no lock — counters are striped atomics, the histogram a fixed
// bucket array (the old version funneled every request through one
// process-wide mutex).
func (s *Server) instrument(route string, h handlerFunc) http.Handler {
	m := s.endpoint(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !exemptFromAdmission(route) {
			release, ok := s.acquire(w, r)
			if !ok {
				return
			}
			defer release()
		}
		m.inFlight.Inc()
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		var status int
		var err error
		func() {
			// A panicking handler must not take the process down with it:
			// the connection gets a 500 (when still writable) and the
			// panic is surfaced in /statsz instead of a crash loop. State
			// corruption is not a worry here — mutations happen under
			// s.mu, whose Unlock is deferred, and the stores append-only.
			defer func() {
				if p := recover(); p != nil {
					s.met.panics.Inc()
					s.slog().Error("handler panic",
						slog.String("route", route), slog.Any("panic", p))
					status, err = 0, fmt.Errorf("panic: %v", p)
					if !sw.wrote {
						s.writeJSON(sw, http.StatusInternalServerError,
							errorResponse{Error: fmt.Sprintf("internal error: %v", p)})
					}
				}
			}()
			status, err = h(sw, r)
		}()
		elapsed := time.Since(t0).Nanoseconds()
		if err != nil && status != 0 {
			s.writeJSON(sw, status, errorResponse{Error: err.Error()})
		}
		m.count.Inc()
		if err != nil {
			m.errors.Inc()
		}
		m.latency.Observe(elapsed)
		m.lastNs.Store(elapsed)
		m.inFlight.Dec()
	})
}

// boolParam reads a query parameter as a boolean with a default.
func boolParam(r *http.Request, name string, def bool) bool {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def
	}
	switch strings.ToLower(v) {
	case "1", "true", "yes", "on":
		return true
	default:
		return false
	}
}

// readNTBody parses an N-Triples request body into a staging batch.
// Parsing happens *before* the write lock is taken, so a slow upload
// never stalls concurrent queries.
func readNTBody(r io.Reader) ([]rdf.Triple, error) {
	var batch []rdf.Triple
	rd := nt.NewReader(r)
	for {
		t, err := rd.Next()
		if err == io.EOF {
			return batch, nil
		}
		if err != nil {
			return nil, fmt.Errorf("parse: %v (after %d triples)", err, len(batch))
		}
		batch = append(batch, t)
	}
}

// handleLoad streams an N-Triples body into the base graph as one bulk
// batch; only the in-memory apply/saturate/freeze happens inside the
// critical section.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) (int, error) {
	if st, err := s.refuseIfDegraded(w); st != 0 {
		return st, err
	}
	saturate := boolParam(r, "saturate", false)

	batch, err := readNTBody(r.Body)
	if err != nil {
		return http.StatusBadRequest, err
	}

	s.mu.Lock()
	ver0 := s.base.Version()
	instVer0 := s.inst.Version()
	ts := make([]store.IDTriple, len(batch))
	for i, t := range batch {
		ts[i] = s.base.EncodeTriple(t)
	}
	added := len(s.base.AddBatch(ts))
	if saturate {
		added += rdfs.Saturate(s.base)
	}
	// AddBatch folded any pending delta of the base unless the body held
	// nothing new; compact both graphs so the load leaves no overlay.
	s.base.Freeze()
	if s.inst != s.base {
		s.inst.Freeze()
	}
	if s.inst == s.base {
		// The serving instance may have changed — by the new triples, or
		// by a freeze-compaction of a previously pending delta even when
		// this body added nothing: maintain (or sweep) the registered
		// views before queries resume. A no-op when the version is
		// unchanged.
		s.reg.NotifyWrite()
	}
	var commit func() error
	if s.durable() && s.inst != s.base && s.inst.Version() != instVer0 {
		// The freeze also compacted the serving instance: its WAL must
		// re-baseline with it, so checkpoint everything (covers the base
		// write too).
		if err := s.checkpointLocked(); err != nil {
			s.mu.Unlock()
			return s.failDurable(w, "checkpoint", err)
		}
	} else {
		var err error
		if commit, err = s.stageWrite(r.Context(), s.base, ver0); err != nil {
			s.mu.Unlock()
			return s.failDurable(w, "wal append", err)
		}
	}
	resp := LoadResponse{
		Added:   added,
		Triples: s.base.Len(),
	}
	s.mu.Unlock()
	// With group commit the fsync wait runs outside the write lock, so
	// concurrent loads share it; the 200 still only goes out once the
	// record is durable.
	if commit != nil {
		if err := commit(); err != nil {
			return s.failDurable(w, "wal append", err)
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// handleInsert streams an N-Triples body into the serving instance (or
// the base graph with ?graph=base) as a delta write: the sorted base
// survives, the triples land in the sorted overlay,
// and the registered views are maintained through the delta feed inside
// the same critical section. This is the paper's maintenance economy as
// an endpoint — concurrent readers keep being served rewrites from
// materialized views across the write.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) (int, error) {
	if st, err := s.refuseIfDegraded(w); st != 0 {
		return st, err
	}
	batch, err := readNTBody(r.Body)
	if err != nil {
		return http.StatusBadRequest, err
	}

	// Writes are traced too (when armed): the spans cover the registry
	// maintenance and the WAL append + fsync.
	ctx := r.Context()
	var tr *obs.Trace
	if s.tracer.ShouldTrace() {
		ctx, tr = s.tracer.Start(ctx, "/insert")
		defer func() {
			if s.tracer.Finish(tr, slog.String("endpoint", "/insert")) {
				s.met.querySlo.Inc()
			}
		}()
	}

	s.mu.Lock()
	target := s.inst
	if r.URL.Query().Get("graph") == "base" {
		target = s.base
	}
	ver0 := target.Version()
	added := 0
	for _, t := range batch {
		if target.Add(t) {
			added++
		}
	}
	var maintained, invalidated int64
	if added > 0 && target == s.inst {
		nctx, nspan := obs.StartSpan(ctx, "viewreg.notify")
		before := s.reg.Stats()
		s.reg.NotifyWriteCtx(nctx)
		after := s.reg.Stats()
		maintained = after.Maintained - before.Maintained
		invalidated = after.Invalidations - before.Invalidations
		if nspan != nil {
			nspan.AttrInt("maintained", maintained)
			nspan.AttrInt("invalidated", invalidated)
			nspan.End()
		}
	}
	commit, err := s.stageWrite(ctx, target, ver0)
	if err != nil {
		s.mu.Unlock()
		return s.failDurable(w, "wal append", err)
	}
	s.maybeCompact(target)
	resp := InsertResponse{
		Added:       added,
		Triples:     target.Len(),
		Delta:       target.DeltaLen(),
		Maintained:  maintained,
		Invalidated: invalidated,
	}
	s.mu.Unlock()
	// The fsync wait runs outside the write lock when group commit is
	// armed — concurrent inserts stage in lock order and share one
	// fsync — and the 200 is still withheld until the record is durable.
	if commit != nil {
		if err := commit(); err != nil {
			return s.failDurable(w, "wal append", err)
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// handleLoadSnapshot replaces the base graph from a binary snapshot.
// The serving instance and the view registry reset with it.
func (s *Server) handleLoadSnapshot(w http.ResponseWriter, r *http.Request) (int, error) {
	if st, err := s.refuseIfDegraded(w); st != 0 {
		return st, err
	}
	st, err := store.ReadSnapshot(r.Body)
	if err != nil {
		return http.StatusBadRequest, err
	}
	s.mu.Lock()
	s.base = st
	s.installInstance(st)
	triples := st.Len()
	var err2 error
	if s.durable() {
		err2 = s.checkpointLocked() // structural replacement: re-baseline
	}
	s.mu.Unlock()
	if err2 != nil {
		return s.failDurable(w, "checkpoint", err2)
	}
	s.writeJSON(w, http.StatusOK, LoadResponse{Added: triples, Triples: triples})
	return http.StatusOK, nil
}

// handleSnapshot streams a binary snapshot of the base graph (or the
// serving instance with ?graph=instance).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g := s.base
	if r.URL.Query().Get("graph") == "instance" {
		g = s.inst
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := g.WriteSnapshot(w); err != nil {
		// Headers are gone: abort the stream, but surface the failure in
		// the endpoint error metrics (zero status = do not render JSON).
		return 0, fmt.Errorf("snapshot stream: %w", err)
	}
	return http.StatusOK, nil
}

// handleMaterialize materializes an analytical schema over the base
// graph and installs the result as the serving instance. Saturation and
// freezing of the base happen before materialization can fail, so an
// errored request may still have grown the base graph by (monotone,
// semantically redundant) RDFS-entailed triples; re-POSTing after
// fixing the schema is always safe.
func (s *Server) handleMaterialize(w http.ResponseWriter, r *http.Request) (int, error) {
	if st, err := s.refuseIfDegraded(w); st != 0 {
		return st, err
	}
	var req SchemaRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return http.StatusBadRequest, err
	}
	schema, err := buildSchema(&req)
	if err != nil {
		return http.StatusBadRequest, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	satAdded := 0
	if req.Saturate {
		satAdded = rdfs.Saturate(s.base)
	}
	s.base.Freeze() // materialization queries run on the fast path
	inst, err := schema.Materialize(s.base)
	if err != nil {
		return http.StatusBadRequest, err
	}
	s.installInstance(inst)
	if s.durable() {
		// The serving instance changed shape: re-baseline everything
		// (base may have gained saturation triples and was frozen).
		if err := s.checkpointLocked(); err != nil {
			return s.failDurable(w, "checkpoint", err)
		}
	}
	s.writeJSON(w, http.StatusOK, MaterializeResponse{
		Name:            req.Name,
		InstanceTriples: inst.Len(),
		SaturationAdded: satAdded,
	})
	return http.StatusOK, nil
}

// handleFreeze compacts both graphs onto the read-optimized indexes. A
// compaction of a pending delta moves the serving instance's base epoch,
// so the registry is notified to sweep the now-unmaintainable views
// eagerly — keeping the byte accounting honest instead of waiting for
// lookups to prune them.
func (s *Server) handleFreeze(w http.ResponseWriter, r *http.Request) (int, error) {
	if st, err := s.refuseIfDegraded(w); st != 0 {
		return st, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.base.Freeze()
	if s.inst != s.base {
		s.inst.Freeze()
	}
	s.reg.NotifyWrite()
	if s.durable() {
		// A compaction moved a base epoch: the WALs must re-baseline so
		// the log does not outlive the feed it describes.
		if err := s.checkpointLocked(); err != nil {
			return s.failDurable(w, "checkpoint", err)
		}
	}
	s.writeJSON(w, http.StatusOK, LoadResponse{Triples: s.base.Len()})
	return http.StatusOK, nil
}

// handleCheckpoint (POST /snapshot) persists a full checkpoint to the
// data-dir: graph snapshots in the frozen v2 format, WALs trimmed to the
// pending delta tails, and the view-registry snapshot — the durable
// counterpart of GET /snapshot's byte stream.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) (int, error) {
	if !s.durable() {
		return http.StatusPreconditionFailed, fmt.Errorf("server has no data-dir (start with -data-dir)")
	}
	// Deliberately NOT refused while degraded: a manual checkpoint is an
	// operator-triggered re-arm attempt.
	resp, err := s.Checkpoint()
	if err != nil {
		return s.failDurable(w, "checkpoint", err)
	}
	s.deg.mu.Lock()
	if s.deg.active {
		// The checkpoint rewrote every durable artifact: durability is
		// re-armed, lift read-only mode without waiting for the timer.
		s.deg.active = false
		s.deg.reason, s.deg.lastErr = "", ""
	}
	s.deg.mu.Unlock()
	s.writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// StatusClientClosedRequest is the non-standard (nginx-originated)
// status for a request whose client went away mid-evaluation.
const StatusClientClosedRequest = 499

// queryStatus maps an evaluation error to an HTTP status: deadline →
// 504 (the server gave up), client cancellation → 499 (the client did),
// anything else → 422.
func queryStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	default:
		return http.StatusUnprocessableEntity
	}
}

// handleQuery answers an analytical query through the shared registry
// (or directly, when requested). The evaluation runs under the request
// context, bounded by Config.QueryTimeout: a disconnecting client or an
// elapsed deadline cancels the operator pipeline cooperatively.
//
// The body is QueryResponse as encoding/json would write it, appended
// straight from the cube into a pooled buffer (appendQueryBody) and sent
// with one Write. The registry sorts each cube it evaluates or derives
// once, before publishing it, so a cached hit renders without a sort;
// a direct answer, or a maintained view whose rows incr keeps
// positional, is sorted through a copy of its row list.
//
// ?explain=analyze traces this request (regardless of Config.TraceAll)
// and attaches the finished span tree — per-operator timings, row and
// seek counts — to the response. The result rows are the ones the
// evaluation produced either way; explain only observes.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) (int, error) {
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return http.StatusBadRequest, err
	}
	q, err := buildQuery(&req)
	if err != nil {
		return http.StatusBadRequest, err
	}
	explain := strings.EqualFold(r.URL.Query().Get("explain"), "analyze")
	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	var tr *obs.Trace
	if explain || s.tracer.ShouldTrace() {
		ctx, tr = s.tracer.Start(ctx, "/query")
	}
	finish := func(attrs ...slog.Attr) {
		if s.tracer.Finish(tr, attrs...) {
			s.met.querySlo.Inc()
		}
	}
	// Every query carries a cost accumulator — with or without tracing —
	// so the workload profiler and cost-based admission always see real
	// numbers. The accumulator is context-keyed; evaluation paths that
	// never look it up pay nothing.
	ctx, qcost := obs.WithCost(ctx)
	fp := viewreg.Fingerprint(q)
	tr.SetFingerprint(fp)

	s.mu.RLock()
	defer s.mu.RUnlock()
	t0 := time.Now()
	var (
		cube     *algebra.Relation
		strategy viewreg.Strategy
	)
	if req.Direct {
		c, err := s.reg.Evaluator().WithContext(ctx).Answer(q)
		if err != nil {
			st := queryStatus(err)
			finish(slog.String("endpoint", "/query"), slog.Int("status", st),
				slog.String("err", err.Error()))
			return st, err
		}
		cube, strategy = c, viewreg.StrategyDirect
	} else {
		c, strat, err := s.reg.AnswerCtx(ctx, q)
		if err != nil {
			st := queryStatus(err)
			finish(slog.String("endpoint", "/query"), slog.Int("status", st),
				slog.String("err", err.Error()))
			return st, err
		}
		cube, strategy = c, strat
	}
	_, rspan := obs.StartSpan(ctx, "render")
	elapsed := time.Since(t0).Nanoseconds()
	s.met.queries[strategy].Observe(elapsed)
	body := getQueryBody()
	defer putQueryBody(body)
	body.buf = appendQueryBody(body.buf, body.terms, cube, s.inst.Dict(), strategy, elapsed)
	rspan.End()
	qcost.AddWallNs(elapsed)
	snap := qcost.Snapshot()
	s.workload.Record(fp, q.String(), string(strategy), snap)
	finish(slog.String("endpoint", "/query"), slog.String("strategy", string(strategy)),
		slog.Int64("rows_scanned", snap.RowsScanned),
		slog.Int64("rows_produced", snap.RowsProduced),
		slog.Int64("seeks", snap.Seeks),
		slog.Int64("batches", snap.Batches),
		slog.Int64("bytes", snap.Bytes))
	if explain && tr != nil {
		if body.buf, err = appendExplain(body.buf, tr.Dump(), &snap); err != nil {
			s.encodeFailed(err, http.StatusInternalServerError, tr)
			return http.StatusInternalServerError, err
		}
	}
	h := w.Header()
	h.Set("X-RDFCube-Cost", snap.HeaderString())
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body.buf)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body.buf); err != nil {
		s.encodeFailed(err, http.StatusOK, tr)
	}
	return http.StatusOK, nil
}

// handleStatsz reports registry, graph and endpoint statistics.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) (int, error) {
	// Store fields (size, versions) are written by the load/
	// materialize endpoints, so they must be read under the lock; the
	// registry snapshot is internally synchronized.
	s.mu.RLock()
	graphStats := func(g *store.Store) GraphStats {
		v := g.Version()
		return GraphStats{
			Triples:      g.Len(),
			Epoch:        g.Epoch(),
			BaseEpoch:    v.Base,
			DeltaSeq:     v.Seq,
			DeltaTriples: g.DeltaLen(),
		}
	}
	baseStats := graphStats(s.base)
	instStats := graphStats(s.inst)
	var mmap *MmapStats
	if ms, ok := s.base.MappedStats(); ok {
		runTriples, runBytes, spills, _ := s.base.SpillStats()
		mmap = &MmapStats{
			Path:             ms.Path,
			MappedBytes:      ms.MappedBytes,
			BlockCacheHits:   ms.BlockCacheHits,
			BlockCacheMisses: ms.BlockCacheMisses,
			TermCacheHits:    ms.TermCacheHits,
			TermCacheMisses:  ms.TermCacheMisses,
			DecodeStallNs:    ms.DecodeStallNanos,
			SpillRunTriples:  runTriples,
			SpillRunBytes:    runBytes,
			Spills:           spills,
		}
	}
	reg := s.reg
	s.mu.RUnlock()
	rs := reg.Stats()
	strategies := make(map[string]int64, len(rs.ByStrategy))
	for k, v := range rs.ByStrategy {
		strategies[string(k)] = v
	}
	for _, k := range viewreg.Strategies {
		if _, ok := strategies[string(k)]; !ok {
			strategies[string(k)] = 0
		}
	}
	resp := StatsResponse{
		UptimeNs: time.Since(s.start).Nanoseconds(),
		Base:     baseStats,
		Instance: instStats,
		Registry: RegStats{
			Entries:           rs.Entries,
			Bytes:             rs.Bytes,
			MaxBytes:          s.cfg.MaxViewBytes,
			Evictions:         rs.Evictions,
			Invalidations:     rs.Invalidations,
			Released:          rs.Released,
			Coalesced:         rs.Coalesced,
			CoalescedRewrites: rs.CoalescedRewrites,
			Maintained:        rs.Maintained,
			LazyUpgrades:      rs.LazyUpgrades,
			NegSkips:          rs.NegSkips,
			Admitted:          rs.Admitted,
			Refused:           rs.Refused,
			Strategies:        strategies,
		},
		Workload:              s.workload.Snapshot(),
		BackgroundCompactions: s.met.bgCompactions.Value(),
		Panics:                s.met.panics.Value(),
		Shed:                  s.met.shed.Value(),
		Mmap:                  mmap,
		Endpoints:             map[string]EndpointStats{},
	}
	if s.durable() {
		d := s.dur
		d.mu.Lock()
		ds := &DurabilityStats{
			DataDir:          d.dir,
			Checkpoints:      d.checkpoints,
			LastCheckpointNs: d.lastCheckpointNs,
			PersistedViews:   d.lastViews,
			WALAppendErrors:  d.walFailures,
			CheckpointErrors: d.checkpointErrors,
			RecoveredSnap:    d.recoveredSnap,
			RecoveredBatches: d.recoveredBatches,
			RecoveredTriples: d.recoveredTriples,
			RecoveredViews:   d.recoveredViews,
		}
		d.mu.Unlock()
		s.deg.mu.Lock()
		ds.Degraded = s.deg.active
		ds.DegradedReason = s.deg.reason
		ds.DegradedRetries = s.deg.retries
		ds.LastError = s.deg.lastErr
		if s.deg.active {
			ds.NextRetryNs = time.Until(s.deg.nextRetry).Nanoseconds()
		}
		s.deg.mu.Unlock()
		s.mu.RLock()
		if d.baseWAL != nil {
			ds.WALBatches += d.baseWAL.Batches()
			ds.WALBytes += d.baseWAL.Bytes()
			gs, gc := d.baseWAL.GroupStats()
			ds.WALGroupSyncs += gs
			ds.WALGroupCoalesced += gc
		}
		if d.instWAL != nil {
			ds.WALBatches += d.instWAL.Batches()
			ds.WALBytes += d.instWAL.Bytes()
			gs, gc := d.instWAL.GroupStats()
			ds.WALGroupSyncs += gs
			ds.WALGroupCoalesced += gc
		}
		s.mu.RUnlock()
		resp.Durability = ds
	}
	// /statsz is a JSON view over the same registry /metrics exposes:
	// the per-endpoint numbers come straight from the lock-free
	// collectors, with the histogram supplying the latency quantiles
	// the old avg-only bookkeeping could not.
	s.epMu.Lock()
	routes := make(map[string]*endpointMetrics, len(s.endpoints))
	for route, m := range s.endpoints {
		routes[route] = m
	}
	s.epMu.Unlock()
	for route, m := range routes {
		count := m.count.Value()
		es := EndpointStats{
			Count:    count,
			Errors:   m.errors.Value(),
			TotalNs:  m.latency.Sum(),
			MaxNs:    m.latency.Max(),
			LastNs:   m.lastNs.Load(),
			P50Ns:    m.latency.Quantile(0.50),
			P90Ns:    m.latency.Quantile(0.90),
			P99Ns:    m.latency.Quantile(0.99),
			InFlight: int64(m.inFlight.Value()),
		}
		if count > 0 {
			es.AvgNs = es.TotalNs / count
		}
		resp.Endpoints[route] = es
	}
	s.writeJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) (int, error) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	return http.StatusOK, nil
}
