// Command rdfcubed is the OLAP cube server daemon: it loads a graph
// (N-Triples or binary snapshot), freezes it onto the read-optimized
// indexes, and serves the HTTP/JSON API of internal/server — analytical
// queries, OLAP operations, schema materialization, snapshots and
// statistics — with every client's materialized views shared through
// one registry, so one analyst's cube answers another analyst's
// drill-out.
//
// Usage:
//
//	rdfcubed [-addr :8344] [-data graph.nt | -snapshot graph.rdfc]
//	         [-data-dir DIR] [-checkpoint-every 0]
//	         [-mmap] [-spill-threshold 0] [-wal-group-commit 0]
//	         [-saturate] [-max-view-mb 256] [-max-views 0]
//	         [-compact-threshold 0] [-background-compact]
//	         [-query-timeout 0] [-max-inflight 0] [-queue-timeout 1s]
//	         [-retry-min 100ms] [-retry-max 5s] [-fault-plan ""]
//	         [-shutdown-timeout 10s]
//	         [-log-format text] [-log-level info]
//	         [-trace] [-slow-query 0] [-slow-query-burst 1]
//	         [-workload-topk 20] [-admission always] [-pprof-addr ""]
//
// Writes accepted over POST /insert land in the store's delta overlay —
// the sorted base survives and registered views are maintained through
// the delta feed; -compact-threshold tunes how large the overlay may
// grow before it is folded into a rebuilt base (0 keeps the store
// default), and -background-compact (on by default) folds it in a
// background goroutine — concurrent with queries — instead of stalling
// the write that crossed the threshold.
//
// -data-dir makes the daemon durable: graphs are checkpointed there as
// frozen (v2) snapshots, every accepted write batch is fsynced to a
// write-ahead log before it is acknowledged, and the materialized-view
// registry is snapshotted alongside. On startup a non-empty data-dir
// wins over -data/-snapshot: the daemon recovers the exact
// (baseEpoch, deltaSeq) state — snapshot load, WAL replay, view warming
// — so restart cost is proportional to the WAL tail, not the dataset.
// Checkpoints happen on POST /snapshot, on structural writes
// (materialize, freeze, compaction), every -checkpoint-every when set,
// and once more on graceful shutdown.
//
// -mmap serves the base graph straight from the mmap'd durable snapshot
// (written in the v3 mapped layout): columns are zero-copy views over
// the file decoded block-at-a-time through a fixed block cache, and the
// dictionary pages term blocks in lazily, so resident memory stays
// cache-bounded regardless of dataset size — the bigger-than-RAM
// serving mode. Writes still land in the heap delta overlay;
// -spill-threshold bounds that overlay by spilling it to sorted
// on-disk runs, and compaction folds everything into a new snapshot
// that is remapped atomically. -wal-group-commit trades bounded commit
// latency for write throughput: concurrent writers share one fsync
// when their appends overlap (solo writers never wait).
//
// Serving is bounded and self-protecting: -query-timeout caps each
// analytical query (cancelled cooperatively mid-join, 504), -max-inflight
// caps concurrent requests with -queue-timeout bounding how long an
// excess request may queue before it is shed (503 + Retry-After), and a
// durability failure (disk full, fsync error) flips the daemon into
// read-only mode — writes 503, queries keep serving — until a
// backoff-retried checkpoint (between -retry-min and -retry-max) re-arms
// it. GET /readyz reflects read-only mode for load balancers; /healthz
// stays green while the process lives. -fault-plan arms deterministic
// filesystem fault injection (see internal/faultfs) for crash drills.
//
// Observability: GET /metrics serves the Prometheus exposition of every
// engine counter and latency histogram; GET /statsz is the JSON view
// over the same registry. -trace traces every query (per-operator span
// trees, inspectable at GET /debug/traces/last), ?explain=analyze on
// POST /query traces one request and returns its annotated plan tree,
// and -slow-query logs any query past the threshold with its trace ID
// and per-stage breakdown (rate-limited per query fingerprint to
// -slow-query-burst records, refilled at one per second). Every query
// is cost-accounted — rows scanned/produced, seeks, batches, bytes
// materialized — reported in the X-RDFCube-Cost response header and
// aggregated by canonical query fingerprint in the workload profiler
// (GET /debug/workload, rdfcube_workload_* series, top -workload-topk
// shapes by total cost). -admission=cost feeds those measurements back
// into the view registry: a direct evaluation is materialized only when
// its measured cost times the shape's observed reuse outweighs its byte
// footprint, and eviction prefers the lowest benefit-per-byte view.
// -log-format/-log-level shape the structured
// (slog) logs; -pprof-addr serves net/http/pprof on a separate listener
// (keep it private — it is deliberately not on the API address).
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests finish (bounded by -shutdown-timeout) before the process
// exits. An empty server (no -data/-snapshot) accepts data over
// POST /load and POST /load-snapshot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rdfcube"
	"rdfcube/internal/faultfs"
	"rdfcube/internal/rdfs"
	"rdfcube/internal/server"
	"rdfcube/internal/store"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	data := flag.String("data", "", "N-Triples file to load at startup")
	snapshot := flag.String("snapshot", "", "binary snapshot file to load at startup")
	saturate := flag.Bool("saturate", false, "apply RDFS saturation after loading -data")
	maxViewMB := flag.Int64("max-view-mb", 256, "materialized-view registry budget in MiB (0 = unbounded)")
	maxViews := flag.Int("max-views", 0, "materialized-view registry entry cap (0 = unbounded)")
	compactThreshold := flag.Int("compact-threshold", 0, "delta-overlay size that triggers compaction into a rebuilt frozen base (0 = store default)")
	backgroundCompact := flag.Bool("background-compact", true, "fold the delta overlay into a rebuilt base in a background goroutine instead of on the write path")
	dataDir := flag.String("data-dir", "", "durable state directory (snapshots + write-ahead logs + view registry); non-empty state there wins over -data/-snapshot")
	checkpointEvery := flag.Duration("checkpoint-every", 0, "periodic checkpoint interval with -data-dir (0 = only on demand/structural writes/shutdown)")
	mmap := flag.Bool("mmap", false, "serve the base graph from an mmap'd snapshot (zero-copy columns, lazy dictionary); requires -data-dir")
	spillThreshold := flag.Int("spill-threshold", 0, "with -mmap: delta-overlay triple count past which the overlay spills to sorted on-disk runs (0 = never spill)")
	walGroupCommit := flag.Duration("wal-group-commit", 0, "coalesce concurrent WAL appends into one fsync, waiting up to this window when writers overlap (0 = one fsync per batch)")
	queryTimeout := flag.Duration("query-timeout", 0, "per-query deadline; an evaluation past it is cancelled cooperatively and answered 504 (0 = unbounded)")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent-request admission cap; excess requests queue then shed 503 (0 = unbounded)")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "how long a request may wait for an admission slot before it is shed")
	retryMin := flag.Duration("retry-min", 100*time.Millisecond, "initial backoff between durability re-arm attempts in read-only mode")
	retryMax := flag.Duration("retry-max", 5*time.Second, "backoff ceiling for durability re-arm attempts")
	faultPlan := flag.String("fault-plan", "", "deterministic filesystem fault plan for crash drills, e.g. 'sync:base.wal@2x1,read:base.snap:corrupt' (see internal/faultfs)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown grace period")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	traceAll := flag.Bool("trace", false, "trace every query (per-operator span trees at GET /debug/traces/last)")
	slowQuery := flag.Duration("slow-query", 0, "log any query slower than this with its trace ID and per-stage breakdown (0 = off)")
	slowQueryBurst := flag.Int("slow-query-burst", 1, "slow-query log burst per query fingerprint (refilled at 1/s; suppressed records are counted onto the next emitted one)")
	workloadTopK := flag.Int("workload-topk", 20, "how many top-by-cost query shapes the workload profiler tracks (GET /debug/workload)")
	admission := flag.String("admission", "always", "view-registry admission policy: always (materialize every direct evaluation) or cost (admit only when measured evaluation cost times observed reuse beats the byte footprint)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off; keep it private)")
	flag.Parse()

	logger, err := buildLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfcubed:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	fatal := func(msg string, err error) {
		logger.Error(msg, slog.String("err", err.Error()))
		os.Exit(1)
	}

	// With a data-dir holding a snapshot, recovery wins; the seed graph
	// is only parsed when the directory is fresh.
	seedNeeded := true
	if server.HasState(*dataDir) {
		seedNeeded = false
		if *data != "" || *snapshot != "" {
			logger.Warn("data-dir holds state; ignoring -data/-snapshot",
				slog.String("data_dir", *dataDir))
		}
	}
	var base *store.Store
	if seedNeeded {
		if base, err = loadGraph(logger, *data, *snapshot, *saturate); err != nil {
			fatal("loading startup graph", err)
		}
	}

	if *mmap && *dataDir == "" {
		fatal("-mmap", fmt.Errorf("requires -data-dir (the mapped base IS the durable snapshot)"))
	}

	var admissionCost bool
	switch *admission {
	case "always":
	case "cost":
		admissionCost = true
	default:
		fatal("-admission", fmt.Errorf("%q: want always or cost", *admission))
	}

	var fsys faultfs.FS
	if *faultPlan != "" {
		faults, err := faultfs.ParsePlan(*faultPlan)
		if err != nil {
			fatal("-fault-plan", err)
		}
		in := faultfs.NewInjector(nil)
		in.ArmPlan(faults)
		fsys = in
		logger.Info("fault injection armed", slog.String("plan", *faultPlan))
	}

	t0 := time.Now()
	srv, err := server.Open(base, server.Config{
		MaxViewBytes:         *maxViewMB << 20,
		MaxViewEntries:       *maxViews,
		CompactThreshold:     *compactThreshold,
		BackgroundCompaction: *backgroundCompact,
		DataDir:              *dataDir,
		Mapped:               *mmap,
		SpillThreshold:       *spillThreshold,
		WALGroupCommit:       *walGroupCommit,
		FS:                   fsys,
		QueryTimeout:         *queryTimeout,
		MaxInFlight:          *maxInFlight,
		QueueTimeout:         *queueTimeout,
		RetryMin:             *retryMin,
		RetryMax:             *retryMax,
		TraceAll:             *traceAll,
		SlowQuery:            *slowQuery,
		SlowQueryBurst:       *slowQueryBurst,
		WorkloadTopK:         *workloadTopK,
		AdmissionCost:        admissionCost,
		Logger:               logger,
	})
	if err != nil {
		fatal("opening server", err)
	}
	if *dataDir != "" {
		logger.Info("data-dir opened",
			slog.String("data_dir", *dataDir),
			slog.Duration("elapsed", time.Since(t0).Round(time.Millisecond)))
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		// A dedicated mux on a dedicated listener: the profiling surface
		// never shares an address with the public API.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof serving", slog.String("addr", *pprofAddr))
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				logger.Error("pprof listener failed", slog.String("err", err.Error()))
			}
		}()
	}

	if *dataDir != "" && *checkpointEvery > 0 {
		go func() {
			ticker := time.NewTicker(*checkpointEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if cp, err := srv.Checkpoint(); err != nil {
						logger.Error("periodic checkpoint failed", slog.String("err", err.Error()))
					} else {
						logger.Info("checkpoint",
							slog.Int("triples", cp.Triples),
							slog.Int("delta_tail", cp.DeltaTail),
							slog.Int("views", cp.Views),
							slog.Duration("elapsed", time.Duration(cp.ElapsedNs).Round(time.Millisecond)))
					}
				}
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("serving",
			slog.String("addr", *addr),
			slog.Int64("view_budget_mib", *maxViewMB),
			slog.Bool("trace", *traceAll),
			slog.Duration("slow_query", *slowQuery))
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		fatal("listener failed", err)
	case <-ctx.Done():
	}
	logger.Info("shutting down", slog.Duration("grace", *shutdownTimeout))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("forced shutdown", slog.String("err", err.Error()))
	}
	if *dataDir != "" {
		// Final checkpoint: the next start recovers without replaying the
		// WAL tail.
		if cp, err := srv.Checkpoint(); err != nil {
			logger.Error("shutdown checkpoint failed", slog.String("err", err.Error()))
		} else {
			logger.Info("shutdown checkpoint",
				slog.Int("triples", cp.Triples), slog.Int("views", cp.Views))
		}
		srv.Close()
	}
	stats := srv.Registry().Stats()
	logger.Info("served",
		slog.Any("strategies", stats.ByStrategy),
		slog.Int("views", stats.Entries),
		slog.Int64("bytes", stats.Bytes),
		slog.Int64("maintained", stats.Maintained),
		slog.Int64("evictions", stats.Evictions),
		slog.Int64("invalidations", stats.Invalidations),
		slog.Int64("coalesced", stats.Coalesced),
		slog.Int64("neg_skips", stats.NegSkips))
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("listener failed", err)
	}
}

// buildLogger constructs the process slog.Logger from the -log-format
// and -log-level flags.
func buildLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

// loadGraph builds the startup graph: a binary snapshot, an N-Triples
// file (bulk-loaded, then optionally saturated — the load-to-serve
// boundary), or an empty store.
func loadGraph(logger *slog.Logger, data, snapshot string, saturate bool) (*store.Store, error) {
	switch {
	case data != "" && snapshot != "":
		return nil, fmt.Errorf("-data and -snapshot are mutually exclusive")
	case snapshot != "":
		f, err := os.Open(snapshot)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		t0 := time.Now()
		// OpenFrozenSnapshot sniffs the version: v2 frozen snapshots load
		// straight into the columnar layout, v1 flat files bulk-load.
		st, err := store.OpenFrozenSnapshot(f)
		if err != nil {
			return nil, fmt.Errorf("loading snapshot %s: %w", snapshot, err)
		}
		logger.Info("loaded snapshot",
			slog.String("file", snapshot),
			slog.Int("triples", st.Len()),
			slog.Duration("elapsed", time.Since(t0).Round(time.Millisecond)))
		return st, nil
	case data != "":
		f, err := os.Open(data)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		t0 := time.Now()
		st := store.New()
		n, err := rdfcube.ReadNTriples(st, f)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", data, err)
		}
		if saturate {
			n += rdfs.Saturate(st)
		}
		st.Freeze() // loading done: serve from the sorted indexes
		logger.Info("loaded triples",
			slog.String("file", data),
			slog.Int("triples", n),
			slog.Bool("saturate", saturate),
			slog.Duration("elapsed", time.Since(t0).Round(time.Millisecond)))
		return st, nil
	default:
		return store.New(), nil
	}
}
