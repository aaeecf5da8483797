package server

// Observability wiring: the server's obs.Registry (GET /metrics), the
// per-route request collectors that replaced the old mutex-guarded
// endpoint map (the request path now touches only striped atomics), the
// query tracer (?explain=analyze, the slow-query log, GET
// /debug/traces/last), and structured logging.

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"rdfcube/internal/obs"
	"rdfcube/internal/obs/workload"
	"rdfcube/internal/persist"
	"rdfcube/internal/store"
	"rdfcube/internal/viewreg"
)

// serverMetrics holds the server-level collectors. Everything is
// registered once in New; the WAL metrics are re-armed onto fresh WAL
// handles after every checkpoint swap (obs registration is idempotent,
// so the series survive the swaps).
type serverMetrics struct {
	shed          *obs.Counter
	panics        *obs.Counter
	bgCompactions *obs.Counter
	jsonErrors    *obs.Counter

	queries  map[viewreg.Strategy]*obs.Histogram
	querySlo *obs.Counter // slow queries past the armed threshold

	checkpoints      *obs.Counter
	checkpointErrors *obs.Counter
	checkpointSec    *obs.Histogram
	wal              *persist.WALMetrics
}

func newServerMetrics(m *obs.Registry) serverMetrics {
	sm := serverMetrics{
		shed: m.Counter("rdfcube_requests_shed_total",
			"Requests refused by admission control (queue timeout past the in-flight cap)."),
		panics: m.Counter("rdfcube_handler_panics_total",
			"Handler panics contained by the recovery middleware."),
		bgCompactions: m.Counter("rdfcube_bg_compactions_total",
			"Delta overlays folded into a rebuilt frozen base off the write path."),
		jsonErrors: m.Counter("rdfcube_response_encode_errors_total",
			"JSON response bodies that failed to encode or write mid-stream."),
		querySlo: m.Counter("rdfcube_slow_queries_total",
			"Queries that crossed the slow-query threshold."),
		checkpoints: m.Counter("rdfcube_checkpoints_total",
			"Full durable checkpoints completed."),
		checkpointErrors: m.Counter("rdfcube_checkpoint_errors_total",
			"Failed checkpoints (including background-compaction checkpoints)."),
		checkpointSec: m.Histogram("rdfcube_checkpoint_seconds",
			"Latency of a full durable checkpoint."),
		queries: make(map[viewreg.Strategy]*obs.Histogram, len(viewreg.Strategies)),
		wal: &persist.WALMetrics{
			AppendSeconds: m.Histogram("rdfcube_wal_append_seconds",
				"Full WAL append latency per batch (encode, write, fsync)."),
			SyncSeconds: m.Histogram("rdfcube_wal_sync_seconds",
				"The fsync portion of a WAL append."),
			AppendedBytes: m.Counter("rdfcube_wal_appended_bytes_total",
				"Record bytes durably appended to the write-ahead logs."),
			AppendErrors: m.Counter("rdfcube_wal_append_errors_total",
				"WAL appends that failed (rolled back or log marked broken)."),
			GroupSyncs: m.Counter("rdfcube_wal_group_commit_syncs_total",
				"Fsyncs issued by WAL group-commit leaders (one may cover many batches)."),
			GroupCoalesced: m.Counter("rdfcube_wal_group_commit_coalesced_total",
				"WAL batches made durable by another writer's fsync."),
		},
	}
	for _, st := range viewreg.Strategies {
		sm.queries[st] = m.Histogram("rdfcube_query_seconds",
			"Query evaluation latency, by answering strategy.",
			"strategy", string(st))
	}
	return sm
}

// endpointMetrics is one route's request collectors plus the last
// observed latency (an atomic, for /statsz's last_ns field — the only
// per-endpoint number the histogram cannot reproduce). No locks: the
// old endpointMetrics map updated five int64 fields under a global
// mutex on every request.
type endpointMetrics struct {
	count    *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
	inFlight *obs.Gauge
	lastNs   atomic.Int64
}

// endpoint returns (registering on first use) the collectors for route.
// Called at handler wiring time, never on the request path.
func (s *Server) endpoint(route string) *endpointMetrics {
	s.epMu.Lock()
	defer s.epMu.Unlock()
	m, ok := s.endpoints[route]
	if !ok {
		m = &endpointMetrics{
			count: s.obs.Counter("rdfcube_http_requests_total",
				"Requests served, by route.", "route", route),
			errors: s.obs.Counter("rdfcube_http_request_errors_total",
				"Requests that ended in an error, by route.", "route", route),
			latency: s.obs.Histogram("rdfcube_http_request_seconds",
				"Request latency, by route.", "route", route),
			inFlight: s.obs.Gauge("rdfcube_http_in_flight",
				"Requests currently being handled, by route.", "route", route),
		}
		s.endpoints[route] = m
	}
	return m
}

// wireGauges registers the scrape-time gauges reading live server
// state. Registered once in New; every callback reads through the
// locked fields, so the gauges follow instance/registry swaps and a
// scrape never sees a half-swapped instance.
func (s *Server) wireGauges() {
	s.obs.GaugeFunc("rdfcube_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.obs.GaugeFunc("rdfcube_degraded",
		"1 while the server is in degraded read-only mode, else 0.",
		func() float64 {
			if active, _ := s.Degraded(); active {
				return 1
			}
			return 0
		})
	s.obs.GaugeFunc("rdfcube_viewreg_entries",
		"Materialized views currently registered.",
		func() float64 { return float64(s.Registry().Entries()) })
	s.obs.GaugeFunc("rdfcube_viewreg_bytes",
		"Estimated byte footprint of the registered views.",
		func() float64 { return float64(s.Registry().Bytes()) })
	graphGauge := func(graph string, read func() float64) {
		s.obs.GaugeFunc("rdfcube_graph_triples",
			"Triples in the graph.", read, "graph", graph)
	}
	graphGauge("base", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(s.base.Len())
	})
	graphGauge("instance", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(s.inst.Len())
	})
	s.obs.GaugeFunc("rdfcube_graph_delta_triples",
		"Triples pending in the instance's delta overlay.",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.inst.DeltaLen())
		}, "graph", "instance")
	// The mmap read path (Config.Mapped). Like the WAL gauges below,
	// registered unconditionally and reading 0 when the base graph is
	// not mapped — the mapping is installed after New returns.
	mmapGauge := func(name, help string, read func(store.MappedStats, *store.Store) float64) {
		s.obs.GaugeFunc(name, help, func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			ms, ok := s.base.MappedStats()
			if !ok {
				return 0
			}
			return read(ms, s.base)
		})
	}
	mmapGauge("rdfcube_mmap_mapped_bytes",
		"Bytes of base snapshot currently mmap'd (0 when not in mapped mode).",
		func(ms store.MappedStats, _ *store.Store) float64 { return float64(ms.MappedBytes) })
	mmapGauge("rdfcube_mmap_block_cache_hits_total",
		"Column block-cache hits on the mapped snapshot.",
		func(ms store.MappedStats, _ *store.Store) float64 { return float64(ms.BlockCacheHits) })
	mmapGauge("rdfcube_mmap_block_cache_misses_total",
		"Column block-cache misses (each decodes a block from the mapping).",
		func(ms store.MappedStats, _ *store.Store) float64 { return float64(ms.BlockCacheMisses) })
	mmapGauge("rdfcube_mmap_term_cache_hits_total",
		"Dictionary term block-cache hits on the mapped snapshot.",
		func(ms store.MappedStats, _ *store.Store) float64 { return float64(ms.TermCacheHits) })
	mmapGauge("rdfcube_mmap_term_cache_misses_total",
		"Dictionary term block-cache misses.",
		func(ms store.MappedStats, _ *store.Store) float64 { return float64(ms.TermCacheMisses) })
	mmapGauge("rdfcube_mmap_decode_stall_seconds_total",
		"Wall time spent decoding column blocks on cache misses (page-in stall proxy).",
		func(ms store.MappedStats, _ *store.Store) float64 { return float64(ms.DecodeStallNanos) / 1e9 })
	mmapGauge("rdfcube_mmap_spill_run_triples",
		"Delta triples resident in the on-disk spill run.",
		func(_ store.MappedStats, g *store.Store) float64 {
			n, _, _, _ := g.SpillStats()
			return float64(n)
		})
	mmapGauge("rdfcube_mmap_spills_total",
		"Delta spill runs written since startup.",
		func(_ store.MappedStats, g *store.Store) float64 {
			_, _, spills, _ := g.SpillStats()
			return float64(spills)
		})
	// Registered unconditionally: s.dur is armed by Open *after* New
	// returns, so gating on it here would skip durable servers. Reads 0
	// while (or forever, when) the server is purely in-memory.
	s.obs.GaugeFunc("rdfcube_wal_bytes",
		"On-disk size of the write-ahead logs (0 when not durable).",
		func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			if s.dur == nil {
				return 0
			}
			var b int64
			if s.dur.baseWAL != nil {
				b += s.dur.baseWAL.Bytes()
			}
			if s.dur.instWAL != nil {
				b += s.dur.instWAL.Bytes()
			}
			return float64(b)
		})
}

// slog returns the structured logger (Config.Logger or the process
// default).
func (s *Server) slog() *slog.Logger {
	if s.logger != nil {
		return s.logger
	}
	return slog.Default()
}

// Metrics exposes the server's metric registry (tests, embedding).
func (s *Server) Metrics() *obs.Registry { return s.obs }

// Tracer exposes the query tracer (tests, embedding).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// artifactAttrs renders a durability error's typed detail as slog
// attributes: persist.ArtifactError carries which file broke, what kind
// of artifact it is, and the byte offset of the damage.
func artifactAttrs(err error) []any {
	attrs := []any{slog.String("err", err.Error())}
	var ae *persist.ArtifactError
	if errors.As(err, &ae) {
		attrs = append(attrs,
			slog.String("artifact_kind", ae.Kind),
			slog.String("artifact_file", ae.Path),
			slog.Int64("artifact_offset", ae.Offset))
	}
	return attrs
}

// writeJSON renders v as the response body. Encode/write failures used
// to vanish; now they are counted and logged (mid-stream failures
// cannot be reported to the client — the headers are gone).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.encodeFailed(err, status, nil)
	}
}

// encodeFailed counts and logs a response body that failed to encode or
// write, with the request's trace ID when it was traced.
func (s *Server) encodeFailed(err error, status int, tr *obs.Trace) {
	s.met.jsonErrors.Inc()
	attrs := []any{slog.String("err", err.Error()), slog.Int("status", status)}
	if tr != nil {
		attrs = append(attrs, slog.String("trace_id", tr.ID))
	}
	s.slog().Warn("response encode failed", attrs...)
}

// handleMetrics serves the Prometheus text exposition of every
// registered metric.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) (int, error) {
	w.Header().Set("Content-Type", obs.ContentType)
	if err := s.obs.WritePrometheus(w); err != nil {
		return 0, err // mid-stream: headers are out, just count the error
	}
	return http.StatusOK, nil
}

// handleTraces serves the most recently finished traces, newest first
// (?n= bounds the count; default the whole ring).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) (int, error) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		n, _ = strconv.Atoi(v)
	}
	traces := s.tracer.Last(n)
	if traces == nil {
		traces = []*obs.TraceDump{}
	}
	s.writeJSON(w, http.StatusOK, traces)
	return http.StatusOK, nil
}

// handleWorkload serves the workload profiler's snapshot: every tracked
// query shape (canonical fingerprint, call counts by strategy,
// accumulated cost, wall-time quantiles) plus the top-K shapes by total
// cost from the Space-Saving sketch.
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) (int, error) {
	s.writeJSON(w, http.StatusOK, s.workload.Snapshot())
	return http.StatusOK, nil
}

// Workload exposes the workload profiler (tests, embedding).
func (s *Server) Workload() *workload.Registry { return s.workload }
