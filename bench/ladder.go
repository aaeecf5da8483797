package main

// The layer ladder: the traced, in-process, single-threaded pass that
// attributes time to layers. Layers are measured from outside, through
// their public entry points only. For each op the same work is timed at
// each rung — the HTTP handler, the view registry, the core rewriting or
// direct evaluation, the BGP engine, the store's cursors — and a rung's
// self time is its span minus the spans of the rung below it. The rungs
// are separate executions of the same op, not one nested execution, so
// the attribution is an estimate: the residual and the number of
// negative self times (clamped to zero) are reported with it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"rdfcube/internal/algebra"
	"rdfcube/internal/bgp"
	"rdfcube/internal/core"
	"rdfcube/internal/dict"
	"rdfcube/internal/incr"
	"rdfcube/internal/nt"
	"rdfcube/internal/persist"
	"rdfcube/internal/rdf"
	"rdfcube/internal/server"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
	"rdfcube/internal/viewreg"
)

// span is one timed call into a layer. Parent names the span of the rung
// above in the same op ("" for a root or an off-path measurement).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the number of items the call handled (triples scanned,
	// parsed or added), where a per-item cost is derived from it.
	N int `json:"n,omitempty"`
	// Tag says what a registry span did: the strategy it answered with.
	Tag string `json:"tag,omitempty"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// recorder keeps spans in memory; they are written out when the run
// ends. With off set, do only calls f: the difference between the two
// modes is the recording overhead.
type recorder struct {
	t0  time.Time
	off bool
	// warm makes every call run once untimed before it is timed: the
	// first evaluation of a query shape on a store pays one-time costs
	// (lazily built permutations, cold caches, heap growth) of several
	// times the evaluation itself, which belong to no rung. Only for
	// calls that can be repeated, so not on the write ladder.
	warm  bool
	spans []span
}

func (rec *recorder) do(op int, name, parent string, f func() error) error {
	return rec.doN(op, name, parent, 0, f)
}

func (rec *recorder) doN(op int, name, parent string, n int, f func() error) error {
	if rec.off {
		return f()
	}
	if rec.warm {
		if err := f(); err != nil {
			return err
		}
	}
	start := time.Since(rec.t0)
	err := f()
	end := time.Since(rec.t0)
	layer, _, _ := strings.Cut(name, ".")
	rec.spans = append(rec.spans, span{Op: op, Name: name, Layer: layer, Parent: parent, Start: int64(start), End: int64(end), N: n})
	return err
}

// overheadPct is the share of the recorded time that went into
// recording it: the cost of one span, calibrated on calls that do
// nothing, times the spans recorded, over the time they cover. (Running
// the server rung again with recording off, and taking the difference,
// was tried first: on 40 ops the difference of two such passes is noise
// of ±10 %, a hundred times the quantity.)
func (rec *recorder) overheadPct() float64 {
	const calls = 20000
	noop := func() error { return nil }
	var cost [2]time.Duration
	for i, off := range []bool{false, true} {
		probe := &recorder{t0: rec.t0, off: off, spans: make([]span, 0, calls)}
		t0 := time.Now()
		for n := 0; n < calls; n++ {
			probe.do(n, "probe.noop", "", noop)
		}
		cost[i] = time.Since(t0)
	}
	perSpan := float64(cost[0]-cost[1]) / calls
	first, last := rec.spans[0].Start, rec.spans[len(rec.spans)-1].End
	return 100 * perSpan * float64(len(rec.spans)) / float64(last-first)
}

// perItem returns the nanoseconds per item over every span called name.
func (rec *recorder) perItem(name string) (float64, int) {
	var ns float64
	var items int
	for _, s := range rec.spans {
		if s.Name == name {
			ns += s.dur()
			items += s.N
		}
	}
	return ratio(ns, float64(items)), items
}

// durs returns the durations in nanoseconds of every span called name.
func (rec *recorder) durs(name string) []float64 {
	var out []float64
	for _, s := range rec.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// layerShare is one layer's row in the trace file.
type layerShare struct {
	// SelfP50Ms is the median over ops of the layer's self time.
	SelfP50Ms float64 `json:"self_p50_ms"`
	// ShareOfP50 is SelfP50Ms over the root rung's median inclusive
	// time. Medians of a mixed op stream do not add up, so these shares
	// leave a residual; ShareOfTotal, the layer's summed self time over
	// the root rung's summed time, does add up.
	ShareOfP50   float64 `json:"share_of_root_p50"`
	ShareOfTotal float64 `json:"share_of_root_total"`
}

// attribution is the reduction of one chain of rungs.
type attribution struct {
	Layers map[string]layerShare `json:"layers"`
	// RootP50Ms is the root rung's median inclusive time.
	RootP50Ms float64 `json:"root_p50_ms"`
	// UnattributedPct is what the layers' median self times leave of the
	// root's median, in percent of it.
	UnattributedPct float64 `json:"unattributed_pct"`
	// Clamped counts negative self times set to zero: a lower rung that
	// took longer than the rung above it.
	Clamped int `json:"clamped_negative_self_times"`
	Ops     int `json:"ops"`
}

// attribute reduces the ops whose root span is called root: a span's
// self time is its duration minus its child spans', a layer's self time
// in an op the sum over its spans on the chain.
func attribute(spans []span, root string) attribution {
	byOp := map[int][]span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	perLayer := map[string][]float64{}
	var roots []float64
	at := attribution{Layers: map[string]layerShare{}}
	for _, ss := range byOp {
		onChain := map[string]bool{}
		for _, s := range ss {
			if s.Name == root {
				onChain[s.Name] = true
				roots = append(roots, s.dur())
			}
		}
		if len(onChain) == 0 {
			continue
		}
		// Within an op a parent's span is recorded before its children's.
		for _, s := range ss {
			if onChain[s.Parent] {
				onChain[s.Name] = true
			}
		}
		self := map[string]float64{}
		for _, s := range ss {
			if !onChain[s.Name] {
				continue
			}
			d := s.dur()
			for _, c := range ss {
				if c.Parent == s.Name && onChain[c.Name] {
					d -= c.dur()
				}
			}
			if d < 0 {
				d = 0
				at.Clamped++
			}
			self[s.Layer] += d
		}
		for layer, d := range self {
			perLayer[layer] = append(perLayer[layer], d)
		}
	}
	at.Ops = len(roots)
	if at.Ops == 0 {
		return at
	}
	var rootTotal float64
	for _, d := range roots {
		rootTotal += d
	}
	rootP50 := median(roots)
	at.RootP50Ms = rootP50 / 1e6
	left := rootP50
	for layer, ds := range perLayer {
		var total float64
		for _, d := range ds {
			total += d
		}
		// An op that never reached a layer spent no time there.
		for len(ds) < len(roots) {
			ds = append(ds, 0)
		}
		p50 := median(ds)
		left -= p50
		at.Layers[layer] = layerShare{SelfP50Ms: p50 / 1e6, ShareOfP50: p50 / rootP50, ShareOfTotal: total / rootTotal}
	}
	at.UnattributedPct = 100 * left / rootP50
	return at
}

// ladderState is what the rungs share.
type ladderState struct {
	rec  *recorder
	ctx  context.Context
	main *store.Store // the store the registry, core and bgp rungs run on
	// mapped is the snapshot opened through mmap for the store rung
	// alone: a cursor drain evicts the decoded-block cache, which must
	// not be the cache the rungs above are timed with.
	mapped  *store.Store
	onMmap  bool // the workload serves -mmap: the store rung on the chain is the mapped one
	handler http.Handler
	twin    *viewreg.Registry
	ev      *core.Evaluator
	baseQ   map[int]*core.Query
	pres    map[int]*algebra.Relation
	ans     map[int]*algebra.Relation
}

// post runs one request through the in-process server's handler.
func (ls *ladderState) post(path string, body []byte) error {
	rec := httptest.NewRecorder()
	ls.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", path, rec.Code, rec.Body.Bytes())
	}
	return nil
}

// encodePattern maps a triple pattern's constants to IDs; ok is false
// when the data never mentions one of them, so nothing can match.
func encodePattern(d *dict.Dictionary, tp sparql.TriplePattern) (pat store.Pattern, ok bool) {
	pos := [3]*dict.ID{&pat.S, &pat.P, &pat.O}
	for i, n := range [3]sparql.Node{tp.S, tp.P, tp.O} {
		*pos[i] = store.Wild
		if !n.IsVar() {
			id, known := d.Lookup(n.Term)
			if !known {
				return pat, false
			}
			*pos[i] = id
		}
	}
	return pat, true
}

// storeRung times the store's access paths for every triple pattern of
// q: an exact count, a full cursor drain, and a seek to the middle key.
// Only the drain is on the chain below parent.
func (ls *ladderState) storeRung(op int, st *store.Store, prefix, parent string, q *sparql.Query) {
	for _, tp := range q.Patterns {
		pat, ok := encodePattern(st.Dict(), tp)
		if !ok {
			continue
		}
		var n int
		ls.rec.do(op, prefix+"count", "", func() error { n = st.Count(pat); return nil })
		var mid dict.ID
		ls.rec.doN(op, prefix+"scan", parent, n, func() error {
			c := st.NewCursor(pat)
			for i := 0; c.Valid(); c.Next() {
				if i == n/2 {
					mid = c.Key()
				}
				i++
			}
			return nil
		})
		ls.rec.do(op, prefix+"seek", "", func() error {
			c := st.NewCursor(pat)
			c.Seek(mid)
			return nil
		})
	}
}

// bgpRung evaluates q on the main store the way the evaluator does
// (set semantics for a classifier or auxiliary query, bag semantics for
// a measure), with the store rung below it.
func (ls *ladderState) bgpRung(op int, name, parent string, q *sparql.Query, bag bool) error {
	err := ls.rec.do(op, name, parent, func() error {
		var err error
		if bag {
			_, err = bgp.EvalBagCtx(ls.ctx, ls.main, q)
		} else {
			_, err = bgp.EvalSetCtx(ls.ctx, ls.main, q)
		}
		return err
	})
	if ls.onMmap {
		ls.storeRung(op, ls.mapped, "store.", name, q)
	} else {
		ls.storeRung(op, ls.main, "store.", name, q)
		ls.storeRung(op, ls.mapped, "store.mmap_", "", q)
	}
	return err
}

// directRung is direct evaluation of q: Answer, then the BGP rungs of
// its classifier and measure.
func (ls *ladderState) directRung(op int, parent string, q *core.Query) error {
	if err := ls.rec.do(op, "core.answer", parent, func() error {
		_, err := ls.ev.Answer(q)
		return err
	}); err != nil {
		return err
	}
	if err := ls.bgpRung(op, "bgp.classifier", "core.answer", q.Classifier, false); err != nil {
		return err
	}
	return ls.bgpRung(op, "bgp.measure", "core.answer", q.Measure, true)
}

// rewriteRung is the core rewriting the registry applies to an op of
// the given class over its materialized base cube. DRILL-IN alone
// touches the instance, through its auxiliary query.
func (ls *ladderState) rewriteRung(i int, o *op, parent string, q *core.Query) error {
	bq, pres, ans := ls.baseQ[o.base], ls.pres[o.base], ls.ans[o.base]
	switch o.class {
	case classSlice, classDice:
		return ls.rec.do(i, "core.dice_rewrite", parent, func() error {
			_, err := ls.ev.DiceRewrite(q, ans)
			return err
		})
	case classDrillOut:
		return ls.rec.do(i, "core.drillout_rewrite", parent, func() error {
			_, err := ls.ev.DrillOutRewrite(bq, pres, o.drop...)
			return err
		})
	case classDrillIn:
		if err := ls.rec.do(i, "core.drillin_rewrite", parent, func() error {
			_, err := ls.ev.DrillInRewrite(bq, pres, o.dim)
			return err
		}); err != nil {
			return err
		}
		aux, err := core.AuxQuery(bq.Classifier, o.dim)
		if err != nil {
			return err
		}
		return ls.bgpRung(i, "bgp.aux", "core.drillin_rewrite", aux, false)
	}
	return nil
}

// queryOp climbs the ladder for one op. On a registry workload the
// chain is server → viewreg → core rewrite (→ bgp → store for
// DRILL-IN); on a direct workload it is server → core answer → bgp →
// store, and the registry and rewrite rungs are still timed, off the
// chain, so that their cost on this op stream is known.
func (ls *ladderState) queryOp(i int, o *op, direct bool) error {
	if err := ls.rec.do(i, "server.query", "", func() error { return ls.post("/query", o.body) }); err != nil {
		return err
	}
	var q *core.Query
	if err := ls.rec.do(i, "sparql.parse", "server.query", func() (err error) {
		q, err = o.query()
		return err
	}); err != nil {
		return err
	}
	regParent, rewriteParent := "server.query", "viewreg.answer"
	if direct {
		if err := ls.directRung(i, "server.query", q); err != nil {
			return err
		}
		regParent, rewriteParent = "", ""
	}
	var strat viewreg.Strategy
	if err := ls.rec.do(i, "viewreg.answer", regParent, func() (err error) {
		_, strat, err = ls.twin.AnswerCtx(ls.ctx, q)
		return err
	}); err != nil {
		return err
	}
	ls.rec.spans[len(ls.rec.spans)-1].Tag = string(strat)
	if strat == viewreg.StrategyDirect && !direct {
		return ls.directRung(i, "viewreg.answer", q)
	}
	return ls.rewriteRung(i, o, rewriteParent, q)
}

// strategyDurs returns the registry span durations answered by strat.
func (rec *recorder) strategyDurs(strat viewreg.Strategy) []float64 {
	var out []float64
	for _, s := range rec.spans {
		if s.Name == "viewreg.answer" && s.Tag == string(strat) {
			out = append(out, s.dur())
		}
	}
	return out
}

// ladderBatches is the number of insert batches the write ladder climbs.
const ladderBatches = 4

// ladderOpList picks the ops the ladder replays: the first n of client
// 0's stream, taken class by class in turn so that every operation class
// is on the ladder however short it is.
func (r *run) ladderOpList(n int) []*op {
	byClass := make([][]*op, numClasses)
	for _, idx := range r.streams[0][:len(r.pool)] {
		o := r.pool[idx]
		byClass[o.class] = append(byClass[o.class], o)
	}
	var out []*op
	for i := 0; len(out) < n; i++ {
		for c := 0; c < numClasses && len(out) < n; c++ {
			if i < len(byClass[c]) {
				out = append(out, byClass[c][i])
			}
		}
	}
	return out
}

// traceFile is bench/out/trace_<workload>.json.
type traceFile struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Query       attribution `json:"query"`
	Write       attribution `json:"write"`
	OverheadPct float64     `json:"recording_overhead_pct"`
	Spans       []span      `json:"spans"`
}

// ladder runs the traced pass and adds its layer metrics to r.res. It
// stops replaying query ops when they have taken budget seconds (but
// not before every class has had one), so a slow machine shortens the
// ladder instead of overrunning the run.
func (r *run) ladder(budget float64) error {
	// The process holds gigabytes by now — stores, views, their twins —
	// and an op allocates a few hundred megabytes more, so the collector
	// would start a cycle every op or two and whichever span it overlapped
	// would read several times too long (a 100 ms rung was seen at 890 ms).
	// The oracle's instance is released, automatic collection is switched
	// off for the ladder, and collect runs a cycle between ops, outside
	// every span, whenever half a gigabyte has piled up.
	r.ds.inst = nil
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var lastHeap uint64
	collect := func() {
		var m runtime.MemStats
		if runtime.ReadMemStats(&m); m.HeapAlloc > lastHeap+512<<20 {
			runtime.GC()
			runtime.ReadMemStats(&m)
			lastHeap = m.HeapAlloc
		}
	}
	rec := &recorder{t0: time.Now()}
	ls := &ladderState{
		rec: rec, ctx: context.Background(),
		baseQ: map[int]*core.Query{}, pres: map[int]*algebra.Relation{}, ans: map[int]*algebra.Relation{},
	}
	dir := filepath.Join(r.dir, "ladder")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	// Stores, all opened from the snapshot the server was given: a heap
	// copy for the in-process server, a heap copy for the rungs below it,
	// and the file opened through mmap.
	var (
		srvStore, heap *store.Store
		err            error
	)
	for _, st := range []**store.Store{&srvStore, &heap} {
		if err := rec.do(-1, "store.open_heap", "", func() (err error) {
			*st, err = r.ds.openHeap()
			return err
		}); err != nil {
			return err
		}
	}
	if err := rec.do(-1, "store.open_mapped", "", func() (err error) {
		ls.mapped, err = store.OpenFrozenSnapshotMapped(r.ds.snapPath, store.MappedOptions{})
		return err
	}); err != nil {
		return err
	}
	defer ls.mapped.CloseMapped()
	ls.main, ls.onMmap = heap, r.w.mapped
	if ls.onMmap {
		if ls.main, err = store.OpenFrozenSnapshotMapped(r.ds.snapPath, store.MappedOptions{}); err != nil {
			return err
		}
		defer ls.main.CloseMapped()
	}
	// The in-process server mirrors rdfcubed's defaults and the
	// workload's durability.
	cfg := server.Config{
		MaxViewBytes: 256 << 20, BackgroundCompaction: true, Mapped: r.w.mapped,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if r.w.dataDir {
		cfg.DataDir = filepath.Join(dir, "data")
	}
	srv, err := server.Open(srvStore, cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	ls.handler = srv.Handler()
	ls.ev = core.NewEvaluator(ls.main)
	ls.twin = viewreg.New(ls.main, viewreg.Config{MaxBytes: 256 << 20})

	// Set-up rungs: materialize each base cube the way the warm-up pass
	// does, one layer at a time.
	var maintained []*incr.MaintainedPres
	for i, b := range r.w.bases {
		collect()
		op := -1 - i
		q, err := baseQuery(baseCubes[b])
		if err != nil {
			return err
		}
		ls.baseQ[b] = q
		if err := ls.post("/query", r.bases[i].body); err != nil {
			return err
		}
		if err := rec.do(op, "core.pres", "", func() (err error) {
			ls.pres[b], err = ls.ev.Pres(q)
			return err
		}); err != nil {
			return err
		}
		if err := rec.do(op, "core.ans_from_pres", "", func() (err error) {
			ls.ans[b], err = ls.ev.AnswerFromPres(q, ls.pres[b])
			return err
		}); err != nil {
			return err
		}
		if err := ls.bgpRung(op, "bgp.classifier", "", q.Classifier, false); err != nil {
			return err
		}
		if err := ls.bgpRung(op, "bgp.measure", "", q.Measure, true); err != nil {
			return err
		}
		if err := rec.do(op, "viewreg.miss", "", func() error {
			_, _, err := ls.twin.AnswerCtx(ls.ctx, q)
			return err
		}); err != nil {
			return err
		}
		mp, err := incr.New(ls.ev, q)
		if err != nil {
			return err
		}
		maintained = append(maintained, mp)
	}

	// Query ladder.
	ops := r.ladderOpList(r.w.ladderOps)
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	rec.warm = true
	for i, o := range ops {
		collect()
		if i >= numClasses && time.Now().After(deadline) {
			ops = ops[:i]
			break
		}
		if err := ls.queryOp(i, o, r.w.direct); err != nil {
			return fmt.Errorf("op %d (%s): %w", o.id, classNames[o.class], err)
		}
	}
	rec.warm = false
	if err := ls.writeLadder(r.w, dir, heap, maintained, collect); err != nil {
		return err
	}
	return ls.reduce(r, len(ops))
}

// writeLadder climbs the write path: each batch through the server
// rung, then through each layer the server's insert path calls; then the
// background work, one layer call each.
func (ls *ladderState) writeLadder(w workload, dir string, heap *store.Store, maintained []*incr.MaintainedPres, collect func()) error {
	rec := ls.rec
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	wal, err := persist.CreateWAL(filepath.Join(walDir, "ladder.wal"), ls.main.Version().Base)
	if err != nil {
		return err
	}
	defer wal.Close()
	// The server's insert path maintains the views its registry holds,
	// which on a direct workload is none: there the registry and
	// maintenance rungs are timed off the chain.
	onWritePath := "server.insert"
	if w.direct {
		onWritePath = ""
	}
	for n := 0; n < ladderBatches; n++ {
		collect()
		op := 1000 + n
		body := insertBody("lad", n)
		if err := rec.do(op, "server.insert", "", func() error { return ls.post("/insert", body) }); err != nil {
			return err
		}
		var triples []rdf.Triple
		if err := rec.doN(op, "nt.parse", "server.insert", triplesPerBatch, func() (err error) {
			triples, err = nt.NewReader(bytes.NewReader(body)).ReadAll()
			return err
		}); err != nil {
			return err
		}
		before, dictLen := ls.main.Version(), ls.main.Dict().Len()
		rec.doN(op, "store.add", "server.insert", len(triples), func() error {
			for _, t := range triples {
				ls.main.Add(t)
			}
			return nil
		})
		if ls.main != heap {
			for _, t := range triples { // kept level for the compaction rung
				heap.Add(t)
			}
		}
		rec.do(op, "viewreg.notify_write", onWritePath, func() error {
			ls.twin.NotifyWriteCtx(ls.ctx)
			return nil
		})
		if err := rec.doN(op, "incr.sync", "viewreg.notify_write", len(triples), func() error {
			for _, mp := range maintained {
				if _, _, _, err := mp.Sync(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		batch := persist.Batch{DictLen: dictLen, Terms: ls.main.Dict().TermsFrom(dictLen)}
		for _, t := range ls.main.DeltaSince(before.Seq) {
			batch.Triples = append(batch.Triples, persist.Triple{S: t.S, P: t.P, O: t.O})
		}
		walParent := ""
		if w.dataDir {
			walParent = "server.insert"
		}
		if err := rec.do(op, "persist.wal_append", walParent, func() error { return wal.Append(batch) }); err != nil {
			return err
		}
	}

	// Background work, one layer call each: fold the overlay the write
	// ladder left into a rebuilt base, and write the checkpoint snapshot
	// in the format the workload's server uses.
	rec.do(-1, "store.compaction", "", func() error {
		if pc := heap.PrepareCompaction(); pc != nil {
			heap.InstallCompaction(pc)
		}
		return nil
	})
	write := heap.WriteFrozenBase
	if w.mapped {
		write = heap.WriteFrozenBaseV3
	}
	for i := 0; i < 3; i++ {
		if err := rec.do(-1, "persist.checkpoint", "", func() error {
			return persist.AtomicWrite(filepath.Join(dir, "checkpoint.snap"), write)
		}); err != nil {
			return err
		}
	}

	return nil
}

// reduce turns the spans into layer metrics and writes the trace file.
func (ls *ladderState) reduce(r *run, ops int) error {
	rec, res := ls.rec, r.res
	// Reduce the spans to metrics.
	p50 := func(name string, span string, div float64, unit string) {
		ds := rec.durs(span)
		res.set(name, ratio(median(ds), div), unit, len(ds))
	}
	p50("sparql.parse_us_p50", "sparql.parse", 1e3, "us")
	p50("viewreg.miss_ms_p50", "viewreg.miss", 1e6, "ms")
	p50("viewreg.notify_write_us_p50", "viewreg.notify_write", 1e3, "us")
	p50("core.pres_ms_p50", "core.pres", 1e6, "ms")
	p50("core.ans_from_pres_ms_p50", "core.ans_from_pres", 1e6, "ms")
	p50("core.dice_rewrite_us_p50", "core.dice_rewrite", 1e3, "us")
	p50("core.drillout_rewrite_ms_p50", "core.drillout_rewrite", 1e6, "ms")
	p50("core.drillin_rewrite_ms_p50", "core.drillin_rewrite", 1e6, "ms")
	p50("bgp.classifier_ms_p50", "bgp.classifier", 1e6, "ms")
	p50("bgp.measure_ms_p50", "bgp.measure", 1e6, "ms")
	p50("store.count_ns_p50", "store.count", 1, "ns")
	p50("store.seek_ns_p50", "store.seek", 1, "ns")
	p50("store.compaction_ms", "store.compaction", 1e6, "ms")
	p50("store.open_heap_ms", "store.open_heap", 1e6, "ms")
	p50("store.open_mapped_ms", "store.open_mapped", 1e6, "ms")
	p50("persist.wal_append_us_p50", "persist.wal_append", 1e3, "us")
	p50("persist.checkpoint_ms_p50", "persist.checkpoint", 1e6, "ms")
	p50("server.query_ms_p50", "server.query", 1e6, "ms")
	p50("server.insert_ms_p50", "server.insert", 1e6, "ms")
	for strat, name := range map[viewreg.Strategy]string{
		viewreg.StrategyCached:   "viewreg.cached_us_p50",
		viewreg.StrategyDice:     "viewreg.dice_rewrite_us_p50",
		viewreg.StrategyDrillOut: "viewreg.drillout_rewrite_ms_p50",
		viewreg.StrategyDrillIn:  "viewreg.drillin_rewrite_ms_p50",
	} {
		ds := rec.strategyDurs(strat)
		div, unit := 1e3, "us"
		if strings.HasSuffix(name, "_ms_p50") {
			div, unit = 1e6, "ms"
		}
		res.set(name, ratio(median(ds), div), unit, len(ds))
	}
	perItem := func(name, span string) {
		v, n := rec.perItem(span)
		res.set(name, v, "ns", n)
	}
	perItem("nt.parse_ns_per_triple", "nt.parse")
	perItem("store.scan_ns_per_triple", "store.scan")
	perItem("store.add_ns_per_triple", "store.add")
	perItem("incr.sync_ns_per_triple", "incr.sync")

	// The mapped stores' caches, over everything the ladder read through
	// them.
	ms, _ := ls.mapped.MappedStats()
	if ls.onMmap {
		m2, _ := ls.main.MappedStats()
		ms.BlockCacheHits += m2.BlockCacheHits
		ms.BlockCacheMisses += m2.BlockCacheMisses
		ms.TermCacheHits += m2.TermCacheHits
		ms.TermCacheMisses += m2.TermCacheMisses
		ms.DecodeStallNanos += m2.DecodeStallNanos
	}
	res.set("store.mmap_block_hit_ratio", ratio(float64(ms.BlockCacheHits), float64(ms.BlockCacheHits+ms.BlockCacheMisses)), "ratio", int(ms.BlockCacheHits+ms.BlockCacheMisses))
	res.set("store.mmap_term_hit_ratio", ratio(float64(ms.TermCacheHits), float64(ms.TermCacheHits+ms.TermCacheMisses)), "ratio", int(ms.TermCacheHits+ms.TermCacheMisses))
	res.set("store.mmap_block_misses_per_op", ratio(float64(ms.BlockCacheMisses), float64(ops)), "count", ops)
	res.set("store.mmap_decode_stall_ms_per_op", ratio(float64(ms.DecodeStallNanos)/1e6, float64(ops)), "ms", ops)
	res.set("store.mmap_mapped_mb", float64(ms.MappedBytes)/(1<<20), "MB", 1)

	tf := traceFile{
		Workload: r.w.name, Seed: r.seed, Spans: rec.spans,
		Query:       attribute(rec.spans, "server.query"),
		Write:       attribute(rec.spans, "server.insert"),
		OverheadPct: rec.overheadPct(),
	}
	for _, layer := range []string{"server", "viewreg", "core", "bgp", "store"} {
		res.set(layer+".self_ms_p50", tf.Query.Layers[layer].SelfP50Ms, "ms", tf.Query.Ops)
		res.set(layer+".time_share", tf.Query.Layers[layer].ShareOfTotal, "ratio", tf.Query.Ops)
	}
	res.set("server.insert_self_ms_p50", tf.Write.Layers["server"].SelfP50Ms, "ms", tf.Write.Ops)
	res.set("trace.query_unattributed_pct", tf.Query.UnattributedPct, "%", tf.Query.Ops)
	res.set("trace.write_unattributed_pct", tf.Write.UnattributedPct, "%", tf.Write.Ops)
	res.set("trace.clamped_total", float64(tf.Query.Clamped+tf.Write.Clamped), "count", len(rec.spans))
	res.set("trace.overhead_pct", tf.OverheadPct, "%", tf.Query.Ops)

	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.env.outDir, "trace_"+r.w.name+".json"), data, 0o644)
}
