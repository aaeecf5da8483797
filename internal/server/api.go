package server

// Wire types of the HTTP/JSON API, and their translation to the core
// query model. Queries travel in the paper's datalog surface syntax;
// Σ restrictions and OLAP operation values as constant-term strings
// (see sparql.ParseTerm).

import (
	"fmt"

	"rdfcube/internal/agg"
	"rdfcube/internal/ans"
	"rdfcube/internal/core"
	"rdfcube/internal/obs"
	"rdfcube/internal/obs/workload"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
)

// QueryRequest submits an analytical query, optionally transformed by a
// sequence of OLAP operations (applied in order to the base query).
type QueryRequest struct {
	// Classifier and Measure are datalog-syntax BGP queries, e.g.
	// "c(x, age) :- x rdf:type :Blogger, x :hasAge age".
	Classifier string `json:"classifier"`
	Measure    string `json:"measure"`
	// Agg names the aggregation function: count, sum, avg, min, max,
	// countdistinct.
	Agg string `json:"agg"`
	// Sigma restricts dimensions to value sets (extended AnQ), values in
	// constant-term syntax.
	Sigma map[string][]string `json:"sigma,omitempty"`
	// Prefixes extends the default rdf/rdfs/xsd prefix table for this
	// request.
	Prefixes map[string]string `json:"prefixes,omitempty"`
	// Ops transforms the base query before answering.
	Ops []OpSpec `json:"ops,omitempty"`
	// Direct bypasses the view registry and evaluates from the instance
	// (differential testing, benchmarking). Direct answers are not
	// registered and do not touch strategy counters.
	Direct bool `json:"direct,omitempty"`
}

// OpSpec is one OLAP operation application.
type OpSpec struct {
	// Op is slice, dice, drillout or drillin.
	Op string `json:"op"`
	// Dim names the dimension for slice (existing) or drillin (new).
	Dim string `json:"dim,omitempty"`
	// Value is the slice value (constant-term syntax).
	Value string `json:"value,omitempty"`
	// Restrictions maps dimensions to allowed value sets for dice.
	Restrictions map[string][]string `json:"restrictions,omitempty"`
	// Dims lists the dimensions a drillout removes.
	Dims []string `json:"dims,omitempty"`
}

// QueryResponse is the /query response body. Rows are sorted
// lexicographically and rendered with terms in N-Triples syntax, so two
// equal cubes serialize byte-identically. The server appends this
// encoding straight from the cube (appendQueryBody) rather than
// building the struct; clients decode into it.
type QueryResponse struct {
	Strategy  string     `json:"strategy"`
	Cols      []string   `json:"cols"`
	Rows      [][]string `json:"rows"`
	Cells     int        `json:"cells"`
	ElapsedNs int64      `json:"elapsed_ns"`
	// TraceID, Explain and Cost are set by ?explain=analyze: the
	// request's finished span tree (per-operator timings, rows, seeks)
	// and its exact resource accounting. The result rows above are
	// unaffected by explaining; the same cost numbers travel on every
	// response — explained or not — in the X-RDFCube-Cost header.
	TraceID string            `json:"trace_id,omitempty"`
	Explain *obs.SpanDump     `json:"explain,omitempty"`
	Cost    *obs.CostSnapshot `json:"cost,omitempty"`
}

// LoadResponse reports a data load.
type LoadResponse struct {
	Added   int `json:"added"`
	Triples int `json:"triples"`
}

// InsertResponse reports a delta write. Maintained/Invalidated describe
// what the write notification did to the registered views so clients
// can observe the maintenance economy per request.
type InsertResponse struct {
	Added int `json:"added"`
	// Triples is the target graph's size after the write.
	Triples int `json:"triples"`
	// Delta is the size of the store's delta overlay: the write landed
	// there, leaving the sorted base in place (0 right after a write
	// that crossed the compaction threshold, which rebuilds the base).
	Delta int `json:"delta"`
	// Maintained and Invalidated are the registry-wide counter deltas
	// caused by this write's notification.
	Maintained  int64 `json:"maintained"`
	Invalidated int64 `json:"invalidated"`
}

// SchemaRequest declares an analytical schema to materialize over the
// base graph. The serving instance becomes the materialization and the
// view registry is reset.
type SchemaRequest struct {
	Name     string            `json:"name,omitempty"`
	Prefixes map[string]string `json:"prefixes,omitempty"`
	// Saturate applies RDFS entailment to the base graph first.
	Saturate bool         `json:"saturate,omitempty"`
	Nodes    []SchemaNode `json:"nodes"`
	Edges    []SchemaEdge `json:"edges"`
}

// SchemaNode declares an analysis class and its defining unary query.
type SchemaNode struct {
	Class string `json:"class"`
	Query string `json:"query"`
}

// SchemaEdge declares an analysis property, its endpoints, and its
// defining binary query.
type SchemaEdge struct {
	Property string `json:"property"`
	From     string `json:"from,omitempty"`
	To       string `json:"to,omitempty"`
	Query    string `json:"query"`
}

// MaterializeResponse reports a schema materialization.
type MaterializeResponse struct {
	Name            string `json:"name,omitempty"`
	InstanceTriples int    `json:"instance_triples"`
	SaturationAdded int    `json:"saturation_added,omitempty"`
}

// StatsResponse is the /statsz payload.
type StatsResponse struct {
	UptimeNs int64      `json:"uptime_ns"`
	Base     GraphStats `json:"base"`
	Instance GraphStats `json:"instance"`
	Registry RegStats   `json:"registry"`
	// BackgroundCompactions counts delta overlays folded into a rebuilt
	// frozen base off the write path (Config.BackgroundCompaction).
	BackgroundCompactions int64 `json:"background_compactions"`
	// Panics counts handler panics contained by the recovery middleware;
	// Shed counts requests refused by admission control (queue timeout
	// past the max-in-flight cap).
	Panics int64 `json:"panics"`
	Shed   int64 `json:"shed"`
	// Workload is the workload profiler's fingerprint-aggregated view of
	// the query mix: per-shape call counts and cost totals plus the
	// top-K shapes by total cost (the full detail lives at GET
	// /debug/workload).
	Workload *workload.Snapshot `json:"workload,omitempty"`
	// Durability describes the data-dir state; absent on in-memory
	// servers.
	Durability *DurabilityStats `json:"durability,omitempty"`
	// Mmap describes the mmap read path of the base graph; absent unless
	// the server serves a mapped snapshot (Config.Mapped / -mmap).
	Mmap *MmapStats `json:"mmap,omitempty"`
	// Endpoints maps route to request metrics.
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

// DurabilityStats describes the persistent state of a durable server.
type DurabilityStats struct {
	DataDir string `json:"data_dir"`
	// Checkpoints counts full checkpoints since startup; LastCheckpointNs
	// is the duration of the most recent one; PersistedViews how many
	// maintainable views it captured.
	Checkpoints      int64 `json:"checkpoints"`
	LastCheckpointNs int64 `json:"last_checkpoint_ns"`
	PersistedViews   int   `json:"persisted_views"`
	// WALBatches/WALBytes describe the current write-ahead logs (the
	// replay cost of a crash right now); WALAppendErrors counts writes
	// that could not be made durable; CheckpointErrors counts failed
	// checkpoints (including background-compaction checkpoints, which
	// have no request to report through).
	WALBatches       int64 `json:"wal_batches"`
	WALBytes         int64 `json:"wal_bytes"`
	WALAppendErrors  int64 `json:"wal_append_errors"`
	CheckpointErrors int64 `json:"checkpoint_errors"`
	// WALGroupSyncs/WALGroupCoalesced describe WAL group commit (both
	// zero unless Config.WALGroupCommit / -wal-group-commit): fsyncs
	// issued by commit leaders, and batches made durable by another
	// writer's fsync. batches/syncs is the coalescing factor.
	WALGroupSyncs     int64 `json:"wal_group_syncs,omitempty"`
	WALGroupCoalesced int64 `json:"wal_group_coalesced,omitempty"`
	// Recovered* describe what startup found: whether a snapshot was
	// loaded, and how many WAL batches/triples and registry views were
	// replayed or warmed.
	RecoveredSnap    bool  `json:"recovered_snapshot"`
	RecoveredBatches int64 `json:"recovered_batches"`
	RecoveredTriples int64 `json:"recovered_triples"`
	RecoveredViews   int64 `json:"recovered_views"`
	// Degraded reports read-only mode: writes are refused with 503 while
	// the durability path is broken; DegradedReason names what failed,
	// LastError the most recent failure, DegradedRetries how many re-arm
	// attempts ran, and NextRetryNs when the next one fires.
	Degraded        bool   `json:"degraded"`
	DegradedReason  string `json:"degraded_reason,omitempty"`
	LastError       string `json:"last_error,omitempty"`
	DegradedRetries int64  `json:"degraded_retries,omitempty"`
	NextRetryNs     int64  `json:"next_retry_ns,omitempty"`
}

// MmapStats describes the bigger-than-RAM read path: the mmap'd
// snapshot backing the base graph, its block caches, and the delta
// spill state.
type MmapStats struct {
	// Path is the mapped snapshot file; MappedBytes its mmap'd size —
	// address space, not resident memory, which stays bounded by the
	// block caches plus whatever the page cache keeps warm.
	Path        string `json:"path"`
	MappedBytes int64  `json:"mapped_bytes"`
	// BlockCache*: the column delta-block cache. TermCache*: the
	// front-coded dictionary block cache.
	BlockCacheHits   uint64 `json:"block_cache_hits"`
	BlockCacheMisses uint64 `json:"block_cache_misses"`
	TermCacheHits    uint64 `json:"term_cache_hits"`
	TermCacheMisses  uint64 `json:"term_cache_misses"`
	// DecodeStallNs accumulates wall time spent decoding column blocks
	// on cache misses — the page-in stall proxy: on a cold mapping this
	// is dominated by major faults against the snapshot file.
	DecodeStallNs uint64 `json:"decode_stall_ns"`
	// Spill state of the delta overlay (Config.SpillThreshold).
	SpillRunTriples int    `json:"spill_run_triples"`
	SpillRunBytes   int64  `json:"spill_run_bytes"`
	Spills          uint64 `json:"spills"`
}

// CheckpointResponse reports a POST /snapshot checkpoint.
type CheckpointResponse struct {
	// Triples is the base graph size; DeltaTail the delta triples still
	// pending in the (freshly trimmed) WAL; Views how many materialized
	// views were persisted.
	Triples   int   `json:"triples"`
	DeltaTail int   `json:"delta_tail"`
	Views     int   `json:"views"`
	ElapsedNs int64 `json:"elapsed_ns"`
}

// GraphStats describes one graph.
type GraphStats struct {
	Triples int `json:"triples"`
	// Epoch is the packed write version (legacy field); BaseEpoch and
	// DeltaSeq decompose it: BaseEpoch counts base rebuilds, DeltaSeq
	// the writes in the current delta overlay, whose size DeltaTriples
	// reports.
	Epoch        uint64 `json:"epoch"`
	BaseEpoch    uint64 `json:"base_epoch"`
	DeltaSeq     uint64 `json:"delta_seq"`
	DeltaTriples int    `json:"delta_triples"`
}

// RegStats describes the view registry.
type RegStats struct {
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	MaxBytes      int64 `json:"max_bytes,omitempty"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	// Released counts registered rewrite results (ans-only views)
	// released because a write moved the store past them; unlike an
	// invalidation, no maintainable view was lost.
	Released  int64 `json:"released"`
	Coalesced int64 `json:"coalesced"`
	// CoalescedRewrites counts queries that piggybacked on another
	// client's in-flight rewrite computation.
	CoalescedRewrites int64 `json:"coalesced_rewrites"`
	// Maintained counts delta-feed maintenance applications (views kept
	// alive across writes); LazyUpgrades counts entries upgraded to the
	// maintained form on their first write; NegSkips counts candidate
	// scans skipped by the negative cache.
	Maintained   int64 `json:"maintained"`
	LazyUpgrades int64 `json:"lazy_upgrades"`
	NegSkips     int64 `json:"neg_skips"`
	// Admitted/Refused count cost-based admission decisions (both zero
	// unless the server runs with -admission=cost).
	Admitted   int64            `json:"admitted"`
	Refused    int64            `json:"refused"`
	Strategies map[string]int64 `json:"strategies"`
}

// EndpointStats aggregates per-route request metrics.
type EndpointStats struct {
	Count    int64 `json:"count"`
	Errors   int64 `json:"errors"`
	TotalNs  int64 `json:"total_ns"`
	MaxNs    int64 `json:"max_ns"`
	AvgNs    int64 `json:"avg_ns"`
	LastNs   int64 `json:"last_ns"`
	P50Ns    int64 `json:"p50_ns"`
	P90Ns    int64 `json:"p90_ns"`
	P99Ns    int64 `json:"p99_ns"`
	InFlight int64 `json:"in_flight"`
}

// errorResponse is the uniform error payload.
type errorResponse struct {
	Error string `json:"error"`
}

// requestPrefixes merges the default prefix table with a request's.
func requestPrefixes(extra map[string]string) sparql.Prefixes {
	px := sparql.DefaultPrefixes()
	for name, iri := range extra {
		px[name] = iri
	}
	return px
}

// buildQuery translates a QueryRequest into a validated core.Query with
// all OLAP operations applied.
func buildQuery(req *QueryRequest) (*core.Query, error) {
	px := requestPrefixes(req.Prefixes)
	if req.Classifier == "" || req.Measure == "" {
		return nil, fmt.Errorf("classifier and measure are required")
	}
	c, err := sparql.ParseDatalog(req.Classifier, px)
	if err != nil {
		return nil, fmt.Errorf("classifier: %w", err)
	}
	m, err := sparql.ParseDatalog(req.Measure, px)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	aggName := req.Agg
	if aggName == "" {
		aggName = "count"
	}
	f, err := agg.ByName(aggName)
	if err != nil {
		return nil, err
	}
	q, err := core.New(c, m, f)
	if err != nil {
		return nil, err
	}
	if len(req.Sigma) > 0 {
		q.Sigma = core.Sigma{}
		for dim, vals := range req.Sigma {
			terms, err := parseTerms(vals, px)
			if err != nil {
				return nil, fmt.Errorf("sigma[%s]: %w", dim, err)
			}
			q.Sigma[dim] = terms
		}
		if err := q.Validate(); err != nil {
			return nil, err
		}
	}
	for i, op := range req.Ops {
		q, err = applyOp(q, op, px)
		if err != nil {
			return nil, fmt.Errorf("ops[%d] %s: %w", i, op.Op, err)
		}
	}
	return q, nil
}

// applyOp applies one OLAP operation to q.
func applyOp(q *core.Query, op OpSpec, px sparql.Prefixes) (*core.Query, error) {
	switch op.Op {
	case "slice":
		v, err := sparql.ParseTerm(op.Value, px)
		if err != nil {
			return nil, err
		}
		return core.Slice(q, op.Dim, v)
	case "dice":
		restrictions := make(map[string][]rdf.Term, len(op.Restrictions))
		for dim, vals := range op.Restrictions {
			terms, err := parseTerms(vals, px)
			if err != nil {
				return nil, fmt.Errorf("restrictions[%s]: %w", dim, err)
			}
			restrictions[dim] = terms
		}
		return core.Dice(q, restrictions)
	case "drillout":
		return core.DrillOut(q, op.Dims...)
	case "drillin":
		return core.DrillIn(q, op.Dim)
	default:
		return nil, fmt.Errorf("unknown op %q (want slice, dice, drillout or drillin)", op.Op)
	}
}

func parseTerms(vals []string, px sparql.Prefixes) ([]rdf.Term, error) {
	terms := make([]rdf.Term, len(vals))
	for i, v := range vals {
		t, err := sparql.ParseTerm(v, px)
		if err != nil {
			return nil, err
		}
		terms[i] = t
	}
	return terms, nil
}

// buildSchema translates a SchemaRequest into a validated ans.Schema.
func buildSchema(req *SchemaRequest) (*ans.Schema, error) {
	px := requestPrefixes(req.Prefixes)
	if len(req.Nodes) == 0 {
		return nil, fmt.Errorf("schema needs at least one node")
	}
	s := &ans.Schema{Name: req.Name}
	for i, n := range req.Nodes {
		class, err := sparql.ParseTerm(n.Class, px)
		if err != nil {
			return nil, fmt.Errorf("nodes[%d].class: %w", i, err)
		}
		q, err := sparql.ParseDatalog(n.Query, px)
		if err != nil {
			return nil, fmt.Errorf("nodes[%d].query: %w", i, err)
		}
		s.AddNode(class, q)
	}
	for i, e := range req.Edges {
		prop, err := sparql.ParseTerm(e.Property, px)
		if err != nil {
			return nil, fmt.Errorf("edges[%d].property: %w", i, err)
		}
		var from, to rdf.Term
		if e.From != "" {
			if from, err = sparql.ParseTerm(e.From, px); err != nil {
				return nil, fmt.Errorf("edges[%d].from: %w", i, err)
			}
		}
		if e.To != "" {
			if to, err = sparql.ParseTerm(e.To, px); err != nil {
				return nil, fmt.Errorf("edges[%d].to: %w", i, err)
			}
		}
		q, err := sparql.ParseDatalog(e.Query, px)
		if err != nil {
			return nil, fmt.Errorf("edges[%d].query: %w", i, err)
		}
		s.AddEdge(prop, from, to, q)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
