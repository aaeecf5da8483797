// Package session implements a materialized-cube manager that
// operationalizes the paper's problem statement (Figure 2): given a new
// analytical query Q_T, decide whether it can be answered from the
// materialized results (pres(Q), ans(Q)) of a previously answered query
// Q, and if so which rewriting applies:
//
//   - identical query          → return the cached ans(Q);
//   - SLICE/DICE refinement    → σ_dice over ans(Q) (Proposition 1);
//   - DRILL-OUT                → Algorithm 1 over pres(Q) (Proposition 2);
//   - DRILL-IN                 → Algorithm 2 over pres(Q) + q_aux
//     (Proposition 3);
//   - otherwise                → direct evaluation, after which the new
//     query's results are materialized for future reuse.
//
// The manager is a thin per-client façade over internal/viewreg, which
// holds the detection logic and the materialized views. A Manager owns a
// private registry, preserving the classic single-analyst session; to
// share materializations across many clients, point several frontends
// (or internal/server) at one viewreg.Registry instead.
package session

import (
	"io"

	"rdfcube/internal/algebra"
	"rdfcube/internal/core"
	"rdfcube/internal/rdf"
	"rdfcube/internal/store"
	"rdfcube/internal/viewreg"
)

// Strategy identifies how a query was answered.
type Strategy = viewreg.Strategy

// The five answering strategies, in preference order.
const (
	StrategyCached   = viewreg.StrategyCached
	StrategyDice     = viewreg.StrategyDice
	StrategyDrillOut = viewreg.StrategyDrillOut
	StrategyDrillIn  = viewreg.StrategyDrillIn
	StrategyDirect   = viewreg.StrategyDirect
)

// Manager answers analytical queries over one AnS instance, reusing
// materialized results of earlier queries whenever a rewriting applies.
// Unlike the historical implementation it is safe for concurrent use
// (the backing registry is), though a Manager models one client.
type Manager struct {
	reg *viewreg.Registry
	// MaxEntries bounds the cache (0 = unbounded). Least-recently-used
	// entries are evicted past it.
	MaxEntries int
}

// NewManager returns a manager over the given AnS instance, backed by a
// fresh private registry.
func NewManager(inst *store.Store) *Manager {
	return &Manager{reg: viewreg.New(inst, viewreg.Config{})}
}

// Registry exposes the backing view registry (e.g. to share it or to
// read its extended stats). The registry's *entry-count* bound is owned
// by this manager — set MaxEntries rather than calling SetLimits, which
// Answer would override; a *byte* budget set directly on the registry
// is preserved.
func (m *Manager) Registry() *viewreg.Registry { return m.reg }

// Evaluator exposes the underlying evaluator.
func (m *Manager) Evaluator() *core.Evaluator { return m.reg.Evaluator() }

// Entries returns the current number of materialized queries.
func (m *Manager) Entries() int { return m.reg.Entries() }

// Stats reports how many queries each strategy has answered.
func (m *Manager) Stats() map[Strategy]int {
	by := m.reg.Stats().ByStrategy
	out := make(map[Strategy]int, len(by))
	for k, v := range by {
		out[k] = int(v)
	}
	return out
}

// Answer answers q, choosing the cheapest applicable strategy. The
// returned cube has the canonical (dims..., measure) layout of
// Evaluator.Answer and is immutable (see viewreg.Registry.Answer): clone
// it before sorting or appending.
func (m *Manager) Answer(q *core.Query) (*algebra.Relation, Strategy, error) {
	// Forward the legacy count bound without touching any byte budget a
	// caller configured on the shared registry.
	m.reg.SetMaxEntries(m.MaxEntries)
	return m.reg.Answer(q)
}

// Insert appends triples to the managed AnS instance and keeps the
// materialized views alive: the writes land in the store's delta
// overlay and the registered pres(Q)/ans(Q) are maintained through the
// delta feed (internal/incr) rather than dropped, so the analyst keeps
// paying view-maintenance cost instead of recomputation cost across
// updates. It returns the number of new triples. Insert must
// not run concurrently with Answer (the store's write contract).
func (m *Manager) Insert(triples []rdf.Triple) int {
	inst := m.reg.Instance()
	added := 0
	for _, tr := range triples {
		if inst.Add(tr) {
			added++
		}
	}
	if added > 0 {
		m.reg.NotifyWrite()
	}
	return added
}

// Save snapshots the manager's materialized views to w (see
// viewreg.Registry.Save); it returns the number of views captured.
// Paired with the instance's frozen snapshot, a later Restore warms a
// new session without re-evaluating a single query.
func (m *Manager) Save(w io.Writer) (int, error) { return m.reg.Save(w) }

// Restore warms the manager from a snapshot written by Save against the
// same (recovered) instance, returning the number of views admitted.
func (m *Manager) Restore(r io.Reader) (int, error) { return m.reg.Restore(r) }

// Describe renders the manager state for diagnostics.
func (m *Manager) Describe() string {
	return "session: " + m.reg.Describe()
}
