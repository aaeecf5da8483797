package viewreg

// Process-wide metrics for the registry, exported through an
// obs.Registry when Config.Metrics is set. These mirror the per-
// instance counters Stats() reports: Stats() stays per-registry (a
// server that swaps its registry after re-materialization starts the
// snapshot over, and tests rely on that), while the obs series are
// registered idempotently by name and therefore accumulate across
// instance swaps — counter semantics a Prometheus scraper can rate().
//
// Every collector pointer below is nil-safe (a zero regMetrics is a
// no-op), so the bump sites never branch on whether metrics are wired.

import "rdfcube/internal/obs"

type regMetrics struct {
	answers      map[Strategy]*obs.Counter
	evictions    *obs.Counter
	invalids     *obs.Counter
	released     *obs.Counter
	coalesced    *obs.Counter
	coalescedRw  *obs.Counter
	maintained   *obs.Counter
	lazyUpgrades *obs.Counter
	negSkips     *obs.Counter
	maintainSec  *obs.Histogram
	admitted     *obs.Counter
	refused      *obs.Counter
}

func wireMetrics(m *obs.Registry) regMetrics {
	if m == nil {
		return regMetrics{}
	}
	mx := regMetrics{answers: make(map[Strategy]*obs.Counter, len(Strategies))}
	for _, s := range Strategies {
		mx.answers[s] = m.Counter("rdfcube_viewreg_answers_total",
			"Queries answered by the view registry, by strategy.",
			"strategy", string(s))
	}
	mx.evictions = m.Counter("rdfcube_viewreg_evictions_total",
		"Materialized views evicted for the byte/count budget.")
	mx.invalids = m.Counter("rdfcube_viewreg_invalidations_total",
		"Maintainable views lost because the store's base epoch moved past them or their maintenance failed.")
	mx.released = m.Counter("rdfcube_viewreg_released_total",
		"Registered rewrite results (ans-only views) released because a write moved the store past them.")
	mx.coalesced = m.Counter("rdfcube_viewreg_coalesced_total",
		"Queries that piggybacked on another client's in-flight direct evaluation.")
	mx.coalescedRw = m.Counter("rdfcube_viewreg_coalesced_rewrites_total",
		"Queries that piggybacked on another client's in-flight rewrite computation.")
	mx.maintained = m.Counter("rdfcube_viewreg_maintained_total",
		"Delta-feed maintenance applications (views caught up instead of dropped).")
	mx.lazyUpgrades = m.Counter("rdfcube_viewreg_lazy_upgrades_total",
		"Registry entries upgraded to the maintained form on their first write.")
	mx.negSkips = m.Counter("rdfcube_viewreg_negcache_skips_total",
		"Candidate scans skipped by the negative cache.")
	mx.maintainSec = m.Histogram("rdfcube_viewreg_maintain_seconds",
		"Latency of one view's delta-feed maintenance.")
	mx.admitted = m.Counter("rdfcube_viewreg_admission_total",
		"Cost-based admission decisions for directly evaluated views.",
		"decision", "admitted")
	mx.refused = m.Counter("rdfcube_viewreg_admission_total",
		"Cost-based admission decisions for directly evaluated views.",
		"decision", "refused")
	return mx
}
