// Package viewreg implements a concurrency-safe, cross-session registry
// of materialized analytical views — the paper's problem statement
// (Figure 2) lifted from a single interactive session to a shared
// server: the pres(Q)/ans(Q) of every directly-evaluated query are
// registered under canonicalized fingerprints, and *any* client's
// SLICE/DICE/DRILL-OUT/DRILL-IN can then be answered from *another*
// client's materialized results via the syntactic rewriting detection:
//
//   - identical query          → the registered ans(Q) ("cached");
//   - SLICE/DICE refinement    → σ_dice over ans(Q) (Proposition 1);
//   - DRILL-OUT                → Algorithm 1 over pres(Q) (Proposition 2);
//   - DRILL-IN                 → Algorithm 2 over pres(Q) + q_aux
//     (Proposition 3);
//   - otherwise                → direct evaluation, after which the new
//     query's results are registered for future reuse.
//
// The registry also remembers what it derived (semantic caching): the
// second time one exact fingerprint is answered by a rewrite (σ_dice,
// Algorithm 1 or Algorithm 2), the result is registered as an ans-only
// entry — no pres(Q), never maintained, never persisted, stamped with
// the store version the rewrite read. It serves exact repeats as
// "cached" and SLICE/DICE refinements of its ans(Q) by σ_dice, but never
// drives Algorithm 1 or 2 (those need pres). It is released, not
// maintained, once a write moves the store past it, and the byte budget
// evicts it before any entry that carries pres. Registering on the
// second touch rather than the first keeps one-off rewrites from
// pinning memory.
//
// Four properties make the registry serve concurrent traffic:
//
//   - Single-flight direct evaluation: concurrent clients asking the
//     same cube (by canonical fingerprint) trigger exactly one direct
//     evaluation; followers block until the leader publishes and then
//     reuse its result.
//   - Cost-aware bounded memory: entries are LRU-evicted by estimated
//     byte footprint (and optionally by count), not entry count alone,
//     so one huge pres(Q) cannot silently pin the budget.
//   - Delta-aware maintenance: every entry is tagged with the store's
//     two-part (baseEpoch, deltaSeq) version at evaluation time. A write
//     that lands in the store's delta overlay leaves the base epoch
//     alone, and entries behind only on the delta sequence are
//     *maintained* — internal/incr applies the store's delta feed to the
//     registered pres(Q) and the Δpres rows to ans(Q)'s per-cell
//     accumulators — instead of dropped, on lookup or on a write
//     notification (NotifyWrite).
//     Only a base-epoch move (compaction, bulk load, structural change)
//     or an unmaintainable entry falls back to eviction, so the registry
//     keeps paying view-maintenance cost instead of recomputation cost.
//   - Negative caching: a query that scanned its family and found no
//     applicable rewrite is remembered (by exact fingerprint, valid for
//     the store version it observed and until the next registration), so
//     repeated misses skip the candidate scan.
//
// Every relation the registry returns or registers is immutable: rewrites
// read registered relations concurrently without locks, one cube may be
// returned to several callers (coalesced followers, cached hits) and be
// registered at the same time, so callers must not mutate a returned
// cube (clone before sorting in place). Maintenance honors this by
// swapping fresh pres/ans snapshots into the entry rather than growing
// the published relations in place.
package viewreg

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"rdfcube/internal/algebra"
	"rdfcube/internal/core"
	"rdfcube/internal/incr"
	"rdfcube/internal/obs"
	"rdfcube/internal/store"
)

// Strategy identifies how a query was answered.
type Strategy string

// The five answering strategies, in preference order.
const (
	StrategyCached   Strategy = "cached"
	StrategyDice     Strategy = "dice-rewrite"
	StrategyDrillOut Strategy = "drillout-rewrite"
	StrategyDrillIn  Strategy = "drillin-rewrite"
	StrategyDirect   Strategy = "direct"
)

// Strategies lists every strategy, for stats iteration.
var Strategies = []Strategy{
	StrategyCached, StrategyDice, StrategyDrillOut, StrategyDrillIn, StrategyDirect,
}

// WorkloadStats supplies per-shape observed traffic — the expected-
// reuse signal cost-based admission weighs against a view's byte
// footprint. Implemented by internal/obs/workload.Registry; kept as an
// interface so viewreg does not depend on the profiler package.
type WorkloadStats interface {
	// ShapeCost reports how many times the fingerprinted shape was
	// answered and its summed wall nanoseconds. ok is false for shapes
	// the profiler has not seen.
	ShapeCost(fp uint64) (calls, totalWallNs int64, ok bool)
}

// Config bounds a registry. Zero values mean unbounded.
type Config struct {
	// MaxBytes caps the estimated byte footprint of registered views;
	// least-recently-used entries are evicted past it. An entry larger
	// than the whole budget is not retained at all.
	MaxBytes int64
	// MaxEntries additionally caps the entry count.
	MaxEntries int
	// Metrics, when non-nil, receives the registry's process-wide
	// counters (answers by strategy, evictions, maintenance, ...).
	// Registration is idempotent in obs, so a server that swaps its
	// registry keeps accumulating into the same series.
	Metrics *obs.Registry
	// AdmissionCost switches registration from admit-always to the
	// paper's economics: a directly evaluated view is registered only
	// when its measured evaluation cost times the shape's expected
	// reuse (its observed call count in Workload) beats its byte
	// footprint. Eviction then ranks by benefit-per-byte (measured
	// rebuild cost × hits / bytes) instead of raw LRU.
	AdmissionCost bool
	// Workload, when set with AdmissionCost, supplies the expected-
	// reuse counts. Nil means every shape looks never-seen (reuse 0):
	// views are admitted on their second evaluation at the earliest.
	Workload WorkloadStats
	// AdmissionThreshold is the break-even price in evaluation
	// nanoseconds per retained byte (default 1.0): admit when
	// evalNs × reuse ≥ bytes × threshold.
	AdmissionThreshold float64
}

// entry is one registered materialization.
//
// Locking: mu serializes maintenance (the only mutation after
// registration). The mutable fields ver/pres/ans/bytes are written while
// holding BOTH mu and the registry lock, so holding either one is enough
// to read them consistently; the expensive delta evaluation itself runs
// under mu alone.
type entry struct {
	fam, key uint64
	query    *core.Query

	mu sync.Mutex
	// mp maintains pres(Q) through the store's delta feed. Entries
	// register WITHOUT it (a plain evaluation — read-only entries never
	// pay for the maintained form's key indexes) and upgrade lazily on
	// the first write that leaves them behind, while upgradable is set.
	// nil with upgradable false means the upgrade failed or the query is
	// unmaintainable; the entry is then dropped once it falls behind.
	mp         *incr.MaintainedPres
	upgradable bool
	pres       *algebra.Relation // nil for an ansOnly entry
	ans        *algebra.Relation
	bytes      int64
	ver        store.Version

	// costNs is the measured direct-evaluation (or, for an ansOnly
	// entry, rewrite) cost at registration — what eviction would make
	// the next identical query pay again.
	// hits counts reuses (cached answers and rewrites) since
	// registration; both feed the benefit-per-byte eviction score.
	// Written under r.mu.
	costNs int64
	hits   int64

	// ansOnly marks a registered rewrite result: it keeps only ans(Q)
	// (pres, mp nil; upgradable false), is never maintained or persisted,
	// and is released once the store moves past it. Immutable.
	ansOnly bool

	elem *list.Element // position in the LRU list; nil once removed
}

// flight is one in-progress direct evaluation that followers wait on.
type flight struct {
	query *core.Query
	done  chan struct{}
	cube  *algebra.Relation
	err   error
}

// rewriteFlight is one in-progress rewrite scan (the candidate walk
// plus the σ_dice / Algorithm 1 / Algorithm 2 computation) that
// concurrent identical queries piggyback on instead of recomputing the
// same rewrite. A nil cube after done means the leader found no
// applicable rewrite (or failed); followers then fall through to the
// direct-evaluation phase, whose own single-flight coalesces them.
type rewriteFlight struct {
	query *core.Query
	epoch uint64
	done  chan struct{}
	// waiters counts parked followers; written under the registry lock
	// while the flight is still published, so it is final once the
	// leader unpublishes the flight. Each follower is one more ask of the
	// fingerprint answered by this rewrite (see deriveLocked).
	waiters  int
	cube     *algebra.Relation
	strategy Strategy
}

// Stats is a point-in-time snapshot of registry counters.
type Stats struct {
	// Entries and Bytes describe the current contents.
	Entries int
	Bytes   int64
	// ByStrategy counts answered queries per strategy.
	ByStrategy map[Strategy]int64
	// Evictions counts entries dropped for the byte/count budget;
	// Invalidations counts maintainable views lost because the store's
	// base epoch moved past them (or their maintenance failed);
	// Released counts ans-only entries (registered rewrite results)
	// dropped because a write moved the store past them — by design,
	// not a loss; Coalesced counts queries that piggybacked on another
	// client's in-flight direct evaluation.
	Evictions     int64
	Invalidations int64
	Released      int64
	Coalesced     int64
	// CoalescedRewrites counts queries that piggybacked on another
	// client's in-flight rewrite computation (e.g. N concurrent
	// identical DICEs computing σ_dice once).
	CoalescedRewrites int64
	// Maintained counts delta-feed maintenance applications: each is one
	// registered view caught up to the store's version instead of being
	// dropped and re-evaluated.
	Maintained int64
	// LazyUpgrades counts entries upgraded to the maintained form on
	// their first write (registration defers the costlier incremental
	// materialization until a write proves it is needed).
	LazyUpgrades int64
	// NegSkips counts candidate scans skipped by the negative cache.
	NegSkips int64
	// Admitted and Refused count cost-based admission decisions for
	// directly evaluated views (both zero when admission is admit-
	// always).
	Admitted int64
	Refused  int64
}

// Registry is a shared materialized-view registry over one AnS instance.
// All methods are safe for concurrent use; store *writes* must still be
// serialized against Answer calls by the caller (the server holds an
// RWMutex), with NotifyWrite maintaining or sweeping the registered
// views inside that write critical section.
type Registry struct {
	ev *core.Evaluator
	st *store.Store

	mu         sync.Mutex
	maxBytes   int64
	maxEntries int
	families   map[uint64][]*entry // per family, oldest first
	lru        *list.List          // *entry; front = most recently used
	bytes      int64
	inflight   map[uint64]*flight
	rwFlight   map[uint64]*rewriteFlight
	stats      map[Strategy]int64
	// negMiss remembers exact query fingerprints whose family scan found
	// no applicable rewrite, keyed to the packed store version observed;
	// cleared on registration.
	negMiss map[uint64]uint64
	// rewrites counts, per exact fingerprint, the asks answered by a
	// rewrite; the second registers the result (deriveLocked).
	rewrites map[uint64]int
	// ansOnly counts registered ansOnly entries, so eviction looks for
	// one only when there is one.
	ansOnly      int
	evictions    int64
	invalids     int64
	released     int64
	coalesced    int64
	coalescedRw  int64
	maintained   int64
	lazyUpgrades int64
	negSkips     int64
	admitted     int64
	refused      int64

	// Cost-based admission knobs (immutable after New).
	admissionCost  bool
	workload       WorkloadStats
	admissionPrice float64 // eval-ns per byte break-even

	// mx mirrors the counters above into an obs.Registry (zero value =
	// no-op; see metrics.go for the per-instance vs process-wide split).
	mx regMetrics
}

// fingerprintCap bounds the per-fingerprint maps (negMiss, rewrites);
// each resets past it. A reset costs one candidate scan or delays one
// registration by a rewrite.
const fingerprintCap = 4096

// notifyBatch bounds how many entries one NotifyWrite call sweeps or
// maintains; the rest catch up lazily at lookup.
const notifyBatch = 256

// New returns an empty registry over the given AnS instance.
func New(inst *store.Store, cfg Config) *Registry {
	price := cfg.AdmissionThreshold
	if price <= 0 {
		price = 1.0
	}
	return &Registry{
		ev:             core.NewEvaluator(inst),
		st:             inst,
		maxBytes:       cfg.MaxBytes,
		maxEntries:     cfg.MaxEntries,
		families:       map[uint64][]*entry{},
		lru:            list.New(),
		inflight:       map[uint64]*flight{},
		rwFlight:       map[uint64]*rewriteFlight{},
		stats:          map[Strategy]int64{},
		negMiss:        map[uint64]uint64{},
		rewrites:       map[uint64]int{},
		mx:             wireMetrics(cfg.Metrics),
		admissionCost:  cfg.AdmissionCost,
		workload:       cfg.Workload,
		admissionPrice: price,
	}
}

// Evaluator exposes the underlying evaluator (for direct, registry-
// bypassing evaluation and for decoding results).
func (r *Registry) Evaluator() *core.Evaluator { return r.ev }

// Instance returns the AnS instance the registry answers over.
func (r *Registry) Instance() *store.Store { return r.st }

// SetLimits adjusts the byte/count budgets, evicting immediately if the
// new bounds are exceeded. Zero means unbounded.
func (r *Registry) SetLimits(maxEntries int, maxBytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxEntries, r.maxBytes = maxEntries, maxBytes
	r.evictLocked()
}

// Entries returns the number of registered materializations.
func (r *Registry) Entries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

// Bytes returns the estimated byte footprint of registered views.
func (r *Registry) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytes
}

// Stats returns a snapshot of the registry counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	by := make(map[Strategy]int64, len(r.stats))
	for k, v := range r.stats {
		by[k] = v
	}
	return Stats{
		Entries:           r.lru.Len(),
		Bytes:             r.bytes,
		ByStrategy:        by,
		Evictions:         r.evictions,
		Invalidations:     r.invalids,
		Released:          r.released,
		Coalesced:         r.coalesced,
		CoalescedRewrites: r.coalescedRw,
		Maintained:        r.maintained,
		LazyUpgrades:      r.lazyUpgrades,
		NegSkips:          r.negSkips,
		Admitted:          r.admitted,
		Refused:           r.refused,
	}
}

// Answer answers q, choosing the cheapest applicable strategy. The
// returned cube has the (dims..., measure) layout of Evaluator.Answer,
// columns in q's dimension order, and is immutable whatever the
// strategy: it may be a registered view, a rewrite result shared with
// coalesced followers, or one about to be registered for later repeats.
// Clone it before mutating (sorting in place, appending).
func (r *Registry) Answer(q *core.Query) (*algebra.Relation, Strategy, error) {
	return r.AnswerCtx(context.Background(), q)
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// AnswerCtx is Answer honoring ctx. Cancellation aborts this caller's
// own evaluation and its waits on coalesced flights; a follower whose
// flight leader was cancelled (by the *leader's* context) re-evaluates
// privately rather than inheriting the leader's error. Registry
// maintenance (freshening stale views) deliberately stays off ctx: it
// serves every future caller, not just this one.
func (r *Registry) AnswerCtx(ctx context.Context, q *core.Query) (out *algebra.Relation, strat Strategy, rerr error) {
	if err := q.Validate(); err != nil {
		return nil, "", err
	}
	ctx, span := obs.StartSpan(ctx, "viewreg.answer")
	if span != nil {
		defer func() {
			if strat != "" {
				span.Attr("strategy", string(strat))
			}
			if out != nil {
				span.AddRows(int64(out.Len()))
			}
			span.End()
		}()
	}
	fam := familyKey(q)
	key := exactKey(fam, q)
	epoch := r.st.Epoch()
	ver := r.st.Version()

	// An exact repeat at the current version is a lookup, not a scan.
	r.mu.Lock()
	if cube := r.exactHitLocked(fam, key, q, ver); cube != nil {
		r.mu.Unlock()
		return cube, StrategyCached, nil
	}

	// Phase 1: scan the family's registered views, newest first, for an
	// applicable rewriting, maintaining delta-stale candidates through
	// the store's feed first. The rewrite itself runs outside the lock on
	// the freshened pres/ans snapshots; a concurrent eviction of the
	// entry is harmless (our reference keeps the snapshots alive). The
	// negative cache short-circuits families already known not to match
	// at this exact version, and concurrent identical queries coalesce on
	// one scan: the leader computes the rewrite (one σ_dice, not N),
	// followers wait and share the cube.
	scanned := false
	if r.negativeHitLocked(key, epoch) {
		r.mu.Unlock()
	} else if fl, ok := r.rwFlight[key]; ok && fl.epoch == epoch && sameAnswerShape(fl.query, q) {
		r.coalescedRw++
		r.mx.coalescedRw.Inc()
		fl.waiters++
		r.mu.Unlock()
		wait := span.NewChild("viewreg.flight.wait")
		wait.Attr("kind", "rewrite")
		select {
		case <-fl.done:
		case <-ctx.Done():
			wait.End()
			return nil, "", ctx.Err()
		}
		wait.End()
		if fl.cube != nil {
			r.bump(fl.strategy)
			return fl.cube, fl.strategy, nil
		}
		// The leader found no rewrite at this version: fall through to
		// the direct phase without rescanning.
	} else {
		fl := &rewriteFlight{query: q.Clone(), epoch: epoch, done: make(chan struct{})}
		r.rwFlight[key] = fl
		r.mu.Unlock()
		scanned = true
		cube, strat, err := r.leadRewrite(ctx, span, fl, fam, key, ver)
		if err != nil || cube != nil {
			return cube, strat, err
		}
	}

	// Phase 2: no reuse possible — direct evaluation, collapsed with any
	// concurrent identical evaluation.
	r.mu.Lock()
	if scanned {
		r.recordMissLocked(key, epoch)
	}
	// Re-check under the lock: a leader finishing between our phase-1
	// scan and here publishes its entry and removes its flight in one lock
	// hold, so an identical query must land on exactly one of the two —
	// without this, it would see neither and evaluate a second time.
	if cube := r.exactHitLocked(fam, key, q, ver); cube != nil {
		r.mu.Unlock()
		return cube, StrategyCached, nil
	}
	if fl, ok := r.inflight[key]; ok && sameAnswerShape(fl.query, q) {
		r.coalesced++
		r.mx.coalesced.Inc()
		r.mu.Unlock()
		wait := span.NewChild("viewreg.flight.wait")
		wait.Attr("kind", "direct")
		select {
		case <-fl.done:
		case <-ctx.Done():
			wait.End()
			return nil, "", ctx.Err()
		}
		wait.End()
		if fl.err != nil {
			if isCtxErr(fl.err) && ctx.Err() == nil {
				// The leader's caller walked away mid-evaluation; this
				// follower is still live, so answer it with a private
				// (unregistered) evaluation under its own context. It
				// registers nothing, so it needs no pres.
				cube, err := r.ev.WithContext(ctx).Answer(q)
				if err != nil {
					return nil, "", err
				}
				r.bump(StrategyDirect)
				return cube, StrategyDirect, nil
			}
			return nil, "", fl.err
		}
		r.bump(StrategyCached)
		return fl.cube, StrategyCached, nil
	}
	// Become the leader. If a fingerprint collision maps an unrelated
	// query to the same key, the displaced flight still completes on its
	// own (the guarded delete below keeps the table consistent).
	fl := &flight{query: q.Clone(), done: make(chan struct{})}
	r.inflight[key] = fl
	r.mu.Unlock()

	// Evaluate plainly: registration deliberately does NOT build the
	// incremental materialization (internal/incr) up front — its key
	// indexes cost extra time and memory that a read-only entry never
	// recoups. The entry registers as upgradable instead, and freshen
	// builds the maintained form lazily on the first write that leaves
	// the entry behind.
	var (
		pres, cube *algebra.Relation
		err        error
	)
	evalStart := time.Now()
	evalCtx, evalSpan := obs.StartSpan(ctx, "viewreg.direct")
	ev := r.ev.WithContext(evalCtx)
	if pres, err = ev.Pres(q); err == nil {
		cube, err = ev.AnswerFromPres(q, pres)
	}
	evalSpan.End()
	evalNs := time.Since(evalStart).Nanoseconds()

	if err == nil {
		// The cube is this leader's own until published: sort it now, so
		// no follower or later hit pays for canonical order at render.
		cube.Sort()
	}
	r.mu.Lock()
	if r.inflight[key] == fl {
		delete(r.inflight, key)
	}
	fl.cube, fl.err = cube, err
	if err == nil {
		r.stats[StrategyDirect]++
		r.mx.answers[StrategyDirect].Inc()
		// Register only if no write raced the evaluation: an epoch moved
		// past us means the cube may reflect superseded data.
		if r.st.Epoch() == epoch {
			e := &entry{
				fam:        fam,
				key:        key,
				query:      fl.query,
				upgradable: true,
				pres:       pres,
				ans:        cube,
				bytes:      relationBytes(pres) + relationBytes(cube) + entryOverhead,
				ver:        ver,
				costNs:     evalNs,
			}
			if r.admitLocked(key, e, evalNs) {
				r.insertLocked(e)
			}
		}
	}
	r.mu.Unlock()
	close(fl.done)
	if err != nil {
		return nil, "", err
	}
	return cube, StrategyDirect, nil
}

// exactHitLocked returns the registered ans(Q) of an entry answering q
// verbatim — same exact key, same answer shape (dimension order
// included) and fresh at ver — counting the hit, or nil. A repeat is
// then one bucket walk on a uint64 key, without candidates, freshen or
// tryRewrite. Caller holds r.mu.
func (r *Registry) exactHitLocked(fam, key uint64, q *core.Query, ver store.Version) *algebra.Relation {
	bucket := r.families[fam]
	for i := len(bucket) - 1; i >= 0; i-- {
		e := bucket[i]
		if e.key != key || e.ver != ver || !sameAnswerShape(e.query, q) {
			continue
		}
		r.lru.MoveToFront(e.elem)
		e.hits++
		r.stats[StrategyCached]++
		r.mx.answers[StrategyCached].Inc()
		return e.ans
	}
	return nil
}

// leadRewrite runs the phase-1 scan as fl's leader: it walks the
// family's live candidates for an applicable rewrite, then unpublishes
// fl, hands the result to its followers and, for a true rewrite, counts
// the asks towards registration. A nil cube with nil error means no
// candidate applied.
func (r *Registry) leadRewrite(ctx context.Context, span *obs.Span, fl *rewriteFlight, fam, key uint64, ver store.Version) (*algebra.Relation, Strategy, error) {
	var (
		cube  *algebra.Relation
		strat Strategy
		err   error
	)
	start := time.Now()
	scanSpan := span.NewChild("viewreg.rewrite.scan")
	cands := r.candidates(fam, ver)
	scanSpan.AttrInt("candidates", int64(len(cands)))
	scanCtx := obs.ContextWithSpan(ctx, scanSpan) // nests maintenance under the scan
	for _, e := range cands {
		pres, ans, ok := r.freshen(scanCtx, e, ver)
		if !ok {
			continue
		}
		strat, cube, err = r.tryRewrite(e.query, fl.query, pres, ans)
		if err != nil || cube != nil {
			if cube != nil {
				r.touch(e)
			}
			break
		}
	}
	scanSpan.End()
	if err == nil && cube != nil && strat != StrategyCached {
		// A rewrite's result is a fresh row list (σ, γ and π never hand
		// back their input's), so sorting it touches no entry; a cached
		// scan result is an entry's own ans, which may be incr's
		// positional rows, and is left alone.
		cube.Sort()
	}
	r.mu.Lock()
	if r.rwFlight[key] == fl {
		delete(r.rwFlight, key)
	}
	if err == nil && cube != nil {
		fl.cube, fl.strategy = cube, strat
		r.stats[strat]++
		r.mx.answers[strat].Inc()
		if strat != StrategyCached {
			r.deriveLocked(fl, fam, key, ver, 1+fl.waiters, time.Since(start).Nanoseconds())
		}
	}
	r.mu.Unlock()
	close(fl.done)
	if err != nil {
		return nil, "", err
	}
	return cube, strat, nil
}

// deriveLocked counts n more asks of fl's fingerprint answered by the
// rewrite fl just computed and, from the second ask on, registers the
// result as an ansOnly entry stamped with ver, the version the rewrite
// read. The second touch, not the first, so a one-off rewrite pins no
// memory; not registered if a write moved the store since fl started.
// Caller holds r.mu.
func (r *Registry) deriveLocked(fl *rewriteFlight, fam, key uint64, ver store.Version, n int, costNs int64) {
	if len(r.rewrites) >= fingerprintCap {
		r.rewrites = map[uint64]int{}
	}
	r.rewrites[key] += n
	if r.rewrites[key] < 2 || r.st.Epoch() != fl.epoch {
		return
	}
	r.insertLocked(&entry{
		fam:     fam,
		key:     key,
		query:   fl.query,
		ansOnly: true,
		ans:     fl.cube,
		bytes:   relationBytes(fl.cube) + entryOverhead,
		ver:     ver,
		costNs:  costNs,
	})
}

// NotifyWrite tells the registry the instance just changed. It sweeps a
// bounded batch of entries, most recently used first: views behind only
// on the delta sequence are maintained through the store's feed, views
// whose base epoch moved (or that cannot be maintained) are dropped
// eagerly — so the byte accounting in Stats stays honest between
// lookups instead of waiting for lookup-time pruning. Entries beyond the
// batch bound catch up lazily at their next lookup. Releasing an ansOnly
// entry is a pointer unlink, so it does not count against the batch:
// however many rewrite results are registered, the bound is spent on
// views that carry pres.
//
// Call it inside the same write critical section that mutated the store
// (the server does), so maintenance never races further writes.
func (r *Registry) NotifyWrite() { r.NotifyWriteCtx(context.Background()) }

// NotifyWriteCtx is NotifyWrite carrying a context, so maintenance
// triggered by a traced write shows up under the write's span tree (the
// context is trace propagation only — maintenance is not cancellable).
func (r *Registry) NotifyWriteCtx(ctx context.Context) {
	ver := r.st.Version()
	r.mu.Lock()
	var stale, behind []*entry
	n := 0
	for el := r.lru.Front(); el != nil && n < notifyBatch; el = el.Next() {
		e := el.Value.(*entry)
		switch {
		case e.ver == ver:
			n++
		case e.ansOnly:
			stale = append(stale, e)
		case e.ver.Base != ver.Base || (e.mp == nil && !e.upgradable):
			n++
			stale = append(stale, e)
		default:
			n++
			behind = append(behind, e)
		}
	}
	for _, e := range stale {
		r.dropLocked(e)
		r.removeFromFamilyLocked(e)
		r.countLossLocked(e)
	}
	r.mu.Unlock()
	for _, e := range behind {
		r.freshen(ctx, e, ver)
	}
}

// candidates prunes the family's base-stale entries and returns the live
// ones, newest first. Entries behind only on the delta sequence survive
// — freshen catches them up.
func (r *Registry) candidates(fam uint64, ver store.Version) []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	bucket := r.families[fam]
	live := bucket[:0]
	for _, e := range bucket {
		if e.ver.Base != ver.Base || (e.ver != ver && e.mp == nil && !e.upgradable) {
			r.dropLocked(e)
			r.countLossLocked(e)
			continue
		}
		live = append(live, e)
	}
	if len(live) == 0 {
		delete(r.families, fam)
	} else {
		r.families[fam] = live
	}
	out := make([]*entry, len(live))
	for i, e := range live {
		out[len(live)-1-i] = e
	}
	return out
}

// freshen brings e up to the store version through the delta feed and
// returns consistent pres/ans snapshots. ok is false when the entry had
// to be dropped instead (maintenance unavailable or failed). The delta
// evaluation runs under the entry lock only; the final swap also holds
// the registry lock so snapshot readers see consistent fields. ctx is
// trace propagation only — maintenance is never cancelled (it serves
// every future caller, not just this one).
//
// An entry registered without the maintained form (mp nil, upgradable)
// upgrades here, on the first write that leaves it behind: the
// incremental materialization is built at the current version and
// swapped in, and later writes take the cheap delta path. A failed
// upgrade drops the entry, like failed maintenance.
func (r *Registry) freshen(ctx context.Context, e *entry, ver store.Version) (pres, ans *algebra.Relation, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ver == ver {
		return e.pres, e.ans, true
	}
	if e.ver.Base != ver.Base || (e.mp == nil && !e.upgradable) {
		r.discard(e)
		return nil, nil, false
	}
	start := time.Now()
	_, span := obs.StartSpan(ctx, "viewreg.maintain")
	defer func() {
		r.mx.maintainSec.Observe(time.Since(start).Nanoseconds())
		span.Attr("ok", fmt.Sprintf("%t", ok))
		span.End()
	}()
	upgraded := false
	if e.mp == nil {
		span.Attr("upgrade", "lazy")
		mp, err := incr.NewCtx(ctx, r.ev, e.query)
		if err != nil {
			e.upgradable = false
			r.discard(e)
			return nil, nil, false
		}
		e.mp, e.upgradable, upgraded = mp, false, true
	} else if _, _, refreshed, err := e.mp.Sync(); err != nil || refreshed {
		// refreshed means the base moved underneath us after the check
		// above — the entry's materialization was recomputed, which is
		// exactly the cost this registry avoids; treat it as stale.
		r.discard(e)
		return nil, nil, false
	}
	newPres := e.mp.Pres()
	newAns, err := e.mp.Answer()
	if err != nil {
		r.discard(e)
		return nil, nil, false
	}
	work := e.mp.LastApply()
	span.AttrInt("delta_triples", int64(work.DeltaTriples))
	span.AttrInt("pres_rows_added", int64(work.PresRowsAdded))
	span.AttrInt("cells_touched", int64(work.CellsTouched))
	nb := relationBytes(newPres) + relationBytes(newAns) + entryOverhead
	r.mu.Lock()
	e.pres, e.ans, e.ver = newPres, newAns, ver
	if e.elem != nil {
		r.bytes += nb - e.bytes
	}
	e.bytes = nb
	r.maintained++
	r.mx.maintained.Inc()
	if upgraded {
		r.lazyUpgrades++
		r.mx.lazyUpgrades.Inc()
	}
	r.evictLocked()
	r.mu.Unlock()
	return newPres, newAns, true
}

// discard drops e from the registry (caller holds e.mu).
func (r *Registry) discard(e *entry) {
	r.mu.Lock()
	if e.elem != nil {
		r.dropLocked(e)
		r.removeFromFamilyLocked(e)
		r.countLossLocked(e)
	}
	r.mu.Unlock()
}

// countLossLocked counts e, just dropped because the store moved past
// it (or its maintenance failed): an ansOnly entry is released, by
// design; any other entry was a maintainable view, and its loss is an
// invalidation. Caller holds r.mu.
func (r *Registry) countLossLocked(e *entry) {
	if e.ansOnly {
		r.released++
		r.mx.released.Inc()
		return
	}
	r.invalids++
	r.mx.invalids.Inc()
}

// negativeHitLocked reports whether the negative cache remembers key
// missing at the given packed store version. Caller holds r.mu.
func (r *Registry) negativeHitLocked(key uint64, epoch uint64) bool {
	if v, ok := r.negMiss[key]; ok && v == epoch {
		r.negSkips++
		r.mx.negSkips.Inc()
		return true
	}
	return false
}

// recordMissLocked remembers that key's family scan found no applicable
// rewrite at the given packed version. Caller holds r.mu.
func (r *Registry) recordMissLocked(key uint64, epoch uint64) {
	if len(r.negMiss) >= fingerprintCap {
		r.negMiss = map[uint64]uint64{}
	}
	r.negMiss[key] = epoch
}

// tryRewrite attempts to answer q from a registered query's materialized
// pres/ans snapshots. A nil cube with nil error means "not applicable".
func (r *Registry) tryRewrite(eq *core.Query, q *core.Query, pres, ans *algebra.Relation) (Strategy, *algebra.Relation, error) {
	if !sameMeasure(eq, q) || eq.Agg.Name() != q.Agg.Name() {
		return "", nil, nil
	}
	if !sameBody(eq.Classifier, q.Classifier) {
		return "", nil, nil
	}
	switch headRelation(eq.Classifier.Head, q.Classifier.Head) {
	case headEqual:
		// eq may list the same dimensions in another order: answer in q's.
		if cols := answerCols(q); !slices.Equal(ans.Cols, cols) {
			ans = ans.Project(cols...)
		}
		if sigmaEqual(eq.Sigma, q.Sigma) {
			return StrategyCached, ans, nil
		}
		if sigmaRefines(eq.Sigma, q.Sigma) {
			cube, err := r.ev.DiceRewrite(q, ans)
			if err != nil {
				return "", nil, err
			}
			return StrategyDice, cube, nil
		}
	case headSubset:
		// q drops dimensions from eq. Algorithm 1 needs pres, so an
		// ansOnly entry never drives it. It applies when the
		// surviving dimensions carry identical restrictions and the
		// dropped dimensions were unrestricted in eq — DrillOut removes a
		// dropped dimension's Σ entry, so a restriction baked into
		// pres would over-filter q's answer.
		if pres == nil || !sigmaEqualOn(eq.Sigma, q.Sigma, q.Dims()) {
			return "", nil, nil
		}
		drop := missingDims(eq.Dims(), q.Dims())
		for _, d := range drop {
			if eq.Sigma.Restricts(d) {
				return "", nil, nil
			}
		}
		cube, err := r.ev.DrillOutRewrite(eq, pres, drop...)
		if err != nil {
			return "", nil, err
		}
		// Reorder to q's dimension order if needed.
		return StrategyDrillOut, cube.Project(answerCols(q)...), nil
	case headSuperset:
		// q adds dimensions; Algorithm 2 handles one added existential
		// dimension per application, and needs pres.
		added := missingDims(q.Dims(), eq.Dims())
		if pres == nil || len(added) != 1 {
			return "", nil, nil // ans-only entry or multi-dim drill-in
		}
		if !sigmaEqualOn(eq.Sigma, q.Sigma, eq.Dims()) || q.Sigma.Restricts(added[0]) {
			return "", nil, nil
		}
		cube, err := r.ev.DrillInRewrite(eq, pres, added[0])
		if err != nil {
			// The added variable may not be existential in eq's
			// classifier; treat as not applicable.
			return "", nil, nil
		}
		return StrategyDrillIn, cube.Project(answerCols(q)...), nil
	}
	return "", nil, nil
}

// answerCols is the column layout of q's answer: its dimensions in head
// order, then the measure.
func answerCols(q *core.Query) []string {
	return append(append([]string(nil), q.Dims()...), q.MeasureVar())
}

// touch marks e most recently used and counts the reuse, if it is
// still registered.
func (r *Registry) touch(e *entry) {
	r.mu.Lock()
	if e.elem != nil {
		r.lru.MoveToFront(e.elem)
		e.hits++
	}
	r.mu.Unlock()
}

// bump increments a strategy counter.
func (r *Registry) bump(s Strategy) {
	r.mu.Lock()
	r.stats[s]++
	r.mu.Unlock()
	r.mx.answers[s].Inc()
}

// admitLocked decides whether a freshly evaluated view earns its
// bytes. Admit-always mode says yes unconditionally (and counts
// nothing). Cost mode applies the paper's economics: the view is worth
// keeping when the evaluation cost it saves — measured evalNs times
// the shape's expected reuse, taken from the workload profiler's
// observed call count — meets the break-even price of its footprint.
// A shape's first-ever evaluation sees reuse 0 (the profiler records
// after answering) and is refused: views are admitted on the second
// touch, when the workload has proven repetition. Caller holds r.mu.
func (r *Registry) admitLocked(key uint64, e *entry, evalNs int64) bool {
	if !r.admissionCost {
		return true
	}
	var reuse int64
	if r.workload != nil {
		if calls, _, ok := r.workload.ShapeCost(key); ok {
			reuse = calls
		}
	}
	if float64(evalNs)*float64(reuse) >= float64(e.bytes)*r.admissionPrice {
		r.admitted++
		r.mx.admitted.Inc()
		return true
	}
	r.refused++
	r.mx.refused.Inc()
	return false
}

// insertLocked registers e and enforces the budgets. If the entry
// survives admission, the negative cache is invalidated — the candidate
// set grew, so previous misses may now rewrite; an entry evicted on
// arrival (oversized) cannot, and the recorded misses stay valid.
// Caller holds r.mu.
func (r *Registry) insertLocked(e *entry) {
	r.families[e.fam] = append(r.families[e.fam], e)
	e.elem = r.lru.PushFront(e)
	r.bytes += e.bytes
	if e.ansOnly {
		r.ansOnly++
	}
	r.evictLocked()
	if e.elem != nil && len(r.negMiss) > 0 {
		r.negMiss = map[uint64]uint64{}
	}
}

// evictLocked drops entries until the budgets hold. ansOnly entries go
// before any entry that carries pres: a rewrite re-derives one from a
// base in one pass, while a lost base costs a direct evaluation and the
// rewrites it fed. Within a class, admit-always mode evicts
// least-recently-used; cost mode evicts the lowest benefit-per-byte —
// measured rebuild cost × (hits+1) / bytes — so a cheap-to-rebuild,
// rarely-hit giant goes before a hot, expensive view, regardless of
// recency. The scan is O(entries) per eviction, bounded by the same
// budgets that triggered it.
func (r *Registry) evictLocked() {
	for r.lru.Len() > 0 &&
		((r.maxBytes > 0 && r.bytes > r.maxBytes) ||
			(r.maxEntries > 0 && r.lru.Len() > r.maxEntries)) {
		var victim *entry
		best := 0.0
		for el := r.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*entry)
			if r.ansOnly > 0 && !e.ansOnly {
				continue
			}
			if !r.admissionCost {
				victim = e
				break
			}
			if s := benefitPerByte(e); victim == nil || s < best {
				best, victim = s, e
			}
		}
		r.dropLocked(victim)
		r.removeFromFamilyLocked(victim)
		r.evictions++
		r.mx.evictions.Inc()
	}
}

// benefitPerByte scores an entry for cost-mode eviction: the
// evaluation nanoseconds retaining it saves per resident byte. hits+1
// counts the (certain) registration evaluation alongside observed
// reuses.
func benefitPerByte(e *entry) float64 {
	b := e.bytes
	if b < 1 {
		b = 1
	}
	return float64(e.costNs) * float64(e.hits+1) / float64(b)
}

// dropLocked unlinks e from the LRU list and the byte budget. The family
// bucket is cleaned separately (candidates prunes in place; evictLocked
// calls removeFromFamilyLocked).
func (r *Registry) dropLocked(e *entry) {
	if e.elem != nil {
		r.lru.Remove(e.elem)
		e.elem = nil
		r.bytes -= e.bytes
		if e.ansOnly {
			r.ansOnly--
		}
	}
}

func (r *Registry) removeFromFamilyLocked(e *entry) {
	bucket := r.families[e.fam]
	for i, cand := range bucket {
		if cand == e {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(r.families, e.fam)
	} else {
		r.families[e.fam] = bucket
	}
}

// Describe renders the registry contents for diagnostics, newest first.
func (r *Registry) Describe() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := fmt.Sprintf("%d materialized queries, ~%d bytes\n", r.lru.Len(), r.bytes)
	i := 0
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		pres := "ans-only"
		if !e.ansOnly {
			pres = fmt.Sprintf("pres=%d rows", e.pres.Len())
		}
		s += fmt.Sprintf("  [%d] dims=%v agg=%s %s ans=%d cells ver=%d.%d\n",
			i, e.query.Dims(), e.query.Agg.Name(), pres, e.ans.Len(), e.ver.Base, e.ver.Seq)
		i++
	}
	return s
}

// entryOverhead covers the entry struct, query clone and map slots on
// top of the relations' own footprint (algebra.Relation.EstimateBytes).
const entryOverhead = 256

// relationBytes estimates rel's resident size.
func relationBytes(rel *algebra.Relation) int64 { return rel.EstimateBytes() }
