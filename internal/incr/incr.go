// Package incr maintains the materialized partial result pres(Q) of an
// analytical query incrementally as triples are added to the AnS
// instance, so the rewriting algorithms keep paying view-maintenance
// cost instead of recomputation cost.
//
// The paper materializes pres(Q) once, as a by-product of answering Q;
// its companion line of work (reference [5], dynamic RDF databases)
// motivates keeping such materializations alive under updates. The delta
// rules follow from Definition 4:
//
//	pres(Q) = c(I) ⋈_x m_k(I)
//	Δpres   = Δc ⋈ m_k(I ∪ Δ)  ∪  c(I) ⋈ Δm_k
//
// where Δc (Δm̄) are the classifier (measure) embeddings that use at
// least one inserted triple. Definition 3's bijection between the bag
// result of m and the set result of m̄ (the measure with all body
// variables distinguished) is what makes exact maintenance possible:
// new measure *tuples* are identified by new m̄ *embeddings*, each of
// which receives a fresh key continuing the newk() sequence.
//
// Δpres probes root-keyed indexes of c and m_k with the delta's roots,
// and ans(Q)'s per-cell accumulators (cube.go) are fed Δpres alone, so a
// delta costs time proportional to the delta, not to the view.
//
// A materialization can absorb insertions through two doors: Insert
// writes a triple batch to the instance itself and applies it, while
// Sync consumes the store's delta feed (store.DeltaSince) — the door the
// shared view registry uses when *someone else* already wrote to the
// instance. Both leave the store's representation alone: with the
// delta-layer store, writes land in the sorted overlay on top of the
// frozen base, so delta evaluations run on the merged fast path and no
// re-freeze heuristics are needed here.
//
// Deletions are out of scope (the paper's warehouse is append-oriented);
// Refresh recomputes from scratch when needed — Sync falls back to it
// when the store's base epoch moved (compaction folded the feed away, or
// an out-of-band structural change happened).
package incr

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"rdfcube/internal/algebra"
	"rdfcube/internal/bgp"
	"rdfcube/internal/core"
	"rdfcube/internal/dict"
	"rdfcube/internal/obs"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// MaintainedPres is a pres(Q) materialization that absorbs instance
// insertions incrementally.
type MaintainedPres struct {
	q    *core.Query
	ev   *core.Evaluator
	inst *store.Store

	// c is the current classifier result (root, dims…; set semantics, Σ
	// applied) and mk the keyed measure m_k (key, root, v). cByRoot and
	// mkByRoot map a root ID to its row positions in each.
	c, mk             *algebra.Relation
	cByRoot, mkByRoot map[dict.ID][]int32
	// mbarKeys indexes the current m̄ embeddings.
	mbarKeys map[string]struct{}
	mbarQ    *sparql.Query
	nextKey  uint64

	// c, mk and pres grow by swapping in a fresh *Relation header (rows
	// appended copy-on-write), so a caller that captured Pres() — or a
	// State — before an application keeps reading its snapshot
	// concurrently with the swap.
	pres *algebra.Relation
	// ans is ans(Q) as per-cell accumulators; nil until the first Answer
	// builds it from pres.
	ans *cube

	// ver is the instance version the materialization reflects; Sync
	// applies store.DeltaSince(ver.Seq) to catch up.
	ver  store.Version
	last ApplyStats
}

// ApplyStats is the work of the last Sync or Insert: the feed triples
// it read, the pres(Q) rows it added, and the ans(Q) cells it fed — or,
// when the Answer after it built the accumulators, every cell.
type ApplyStats struct {
	DeltaTriples, PresRowsAdded, CellsTouched int
}

// New fully evaluates q over the evaluator's instance and returns a
// maintained materialization.
func New(ev *core.Evaluator, q *core.Query) (*MaintainedPres, error) {
	return NewCtx(context.Background(), ev, q)
}

// NewCtx is New with the *initial* evaluation bound to ctx, so a caller
// can abandon an expensive materialization build. The returned
// materialization stores ev itself — not a ctx-bound copy — so later
// Sync/Refresh calls are not poisoned by an expired request context.
func NewCtx(ctx context.Context, ev *core.Evaluator, q *core.Query) (*MaintainedPres, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	mp := &MaintainedPres{
		q:        q.Clone(),
		ev:       ev,
		inst:     ev.Instance(),
		mbarKeys: map[string]struct{}{},
		mbarQ:    mbarQuery(q),
		ver:      ev.Instance().Version(),
	}

	cCtx, cSpan := obs.StartSpan(ctx, "incr.classifier")
	c, err := ev.WithContext(cCtx).EvalClassifier(q)
	cSpan.End()
	if err != nil {
		return nil, err
	}
	mp.c = c

	// Evaluate m̄ once; each embedding becomes one keyed measure tuple.
	mCtx, mSpan := obs.StartSpan(ctx, "incr.measure")
	res, err := bgp.EvalCtx(mCtx, mp.inst, mp.mbarQ, bgp.Options{Distinct: true})
	mSpan.End()
	if err != nil {
		return nil, err
	}
	mp.mk = algebra.NewRelation(core.KeyCol, q.Measure.Head[0], q.Measure.Head[1])
	vCol := mp.vCol()
	for _, row := range res.Rows {
		mp.mbarKeys[idKey(row)] = struct{}{}
		mp.nextKey++
		mp.mk.Append(algebra.Row{algebra.KeyV(mp.nextKey), algebra.TermV(row[0]), algebra.TermV(row[vCol])})
	}
	mp.index()
	cols := append(append([]string{q.Root()}, q.Dims()...), core.KeyCol, q.MeasureVar())
	mp.pres = &algebra.Relation{Cols: cols, Rows: mp.joinDelta(0, mp.mk.Len())}
	return mp, nil
}

// mbarQuery returns m̄: the measure body with every body variable
// distinguished (Definition 3), root first. Its head is also the column
// order of m̄ rows and of their dedup keys.
func mbarQuery(q *core.Query) *sparql.Query {
	mbar := q.Measure.Clone()
	mbar.Head = mbar.Vars()
	root := q.Measure.Head[0]
	for i, v := range mbar.Head {
		if v == root && i != 0 {
			mbar.Head[0], mbar.Head[i] = mbar.Head[i], mbar.Head[0]
			break
		}
	}
	return mbar
}

// vCol is the measure variable's column in m̄ rows.
func (mp *MaintainedPres) vCol() int { return slices.Index(mp.mbarQ.Head, mp.q.Measure.Head[1]) }

// index builds the root indexes of c and m_k.
func (mp *MaintainedPres) index() {
	mp.cByRoot = make(map[dict.ID][]int32, mp.c.Len())
	for i, row := range mp.c.Rows {
		mp.cByRoot[row[0].ID] = append(mp.cByRoot[row[0].ID], int32(i))
	}
	mp.mkByRoot = make(map[dict.ID][]int32, mp.mk.Len())
	for i, row := range mp.mk.Rows {
		mp.mkByRoot[row[1].ID] = append(mp.mkByRoot[row[1].ID], int32(i))
	}
}

// joinDelta returns the pres(Q) rows c[cFrom:] ⋈_x m_k ∪ c[:cFrom] ⋈_x
// m_k[mkFrom:] — Δpres when the rows from cFrom and mkFrom on are the
// delta's, all of pres(Q) for (0, len(m_k)). Only the roots of those
// rows are probed.
func (mp *MaintainedPres) joinDelta(cFrom, mkFrom int) []algebra.Row {
	var out []algebra.Row
	emit := func(c, m algebra.Row) {
		row := make(algebra.Row, 0, len(c)+2)
		out = append(out, append(append(row, c...), m[0], m[2]))
	}
	for _, c := range mp.c.Rows[cFrom:] {
		for _, p := range mp.mkByRoot[c[0].ID] {
			emit(c, mp.mk.Rows[p])
		}
	}
	for _, m := range mp.mk.Rows[mkFrom:] {
		for _, p := range mp.cByRoot[m[1].ID] {
			if int(p) >= cFrom {
				break // positions ascend; the rest joined in the first loop
			}
			emit(mp.c.Rows[p], m)
		}
	}
	return out
}

// Pres returns the current materialized pres(Q). The caller must not
// mutate it. The returned relation is a stable snapshot: later
// maintenance applications swap in a fresh header instead of growing
// this one.
func (mp *MaintainedPres) Pres() *algebra.Relation { return mp.pres }

// Version returns the instance version the materialization reflects.
func (mp *MaintainedPres) Version() store.Version { return mp.ver }

// LastApply reports the work of the last Sync or Insert.
func (mp *MaintainedPres) LastApply() ApplyStats { return mp.last }

// Answer returns ans(Q) (Equation 3) over the maintained pres(Q). The
// first call after New, FromState or Refresh aggregates pres(Q) once into
// per-cell accumulators; from then on every application feeds them its
// Δpres rows and publishes a fresh relation, so the result — like Pres —
// is a stable snapshot the caller must not mutate.
func (mp *MaintainedPres) Answer() (*algebra.Relation, error) {
	if mp.ans == nil {
		mp.ans = newCube(mp.q, mp.pres, mp.ev.ResolveNumeric)
		mp.last.CellsTouched = mp.ans.cells.Len()
	}
	return mp.ans.rel, nil
}

// Query returns the maintained query.
func (mp *MaintainedPres) Query() *core.Query { return mp.q }

// Insert adds triples to the AnS instance and updates the
// materialization incrementally. It returns the number of new classifier
// rows and new measure tuples absorbed (its own batch only). The writes
// land in the store's delta overlay, so the delta evaluations below run
// on the merged fast path without any compaction.
//
// Insert first Syncs: triples that reached the instance out of band
// since the last application are absorbed from the delta feed (or, if
// the base epoch moved, via Refresh) before the batch — otherwise the
// version fast-forward below would silently mask them from later Syncs.
func (mp *MaintainedPres) Insert(triples []rdf.Triple) (newFacts, newMeasures int, err error) {
	if _, _, _, err := mp.Sync(); err != nil {
		return 0, 0, err
	}
	var delta []store.IDTriple
	for _, tr := range triples {
		s, p, o := mp.inst.Dict().EncodeTriple(tr)
		t := store.IDTriple{S: s, P: p, O: o}
		if mp.inst.AddID(t) {
			delta = append(delta, t)
		}
	}
	if len(delta) == 0 {
		mp.ver = mp.inst.Version()
		return 0, 0, nil
	}
	// On error do not fast-forward: the store has the triples but the
	// materialization does not; the next Sync replays them.
	if newFacts, newMeasures, err = mp.apply(delta); err == nil {
		mp.ver = mp.inst.Version()
	}
	return newFacts, newMeasures, err
}

// Sync consumes the instance's delta feed: it applies every triple
// accepted since the materialization's version. When the base epoch
// moved (the feed was folded away by compaction, or the store was
// structurally changed), Sync falls back to a full Refresh and reports
// refreshed = true.
func (mp *MaintainedPres) Sync() (newFacts, newMeasures int, refreshed bool, err error) {
	mp.last = ApplyStats{}
	ver := mp.inst.Version()
	if ver == mp.ver {
		return 0, 0, false, nil
	}
	if ver.Base != mp.ver.Base {
		return 0, 0, true, mp.Refresh()
	}
	delta := mp.inst.DeltaSince(mp.ver.Seq)
	if len(delta) == 0 {
		mp.ver = ver
		return 0, 0, false, nil
	}
	if newFacts, newMeasures, err = mp.apply(delta); err == nil {
		mp.ver = ver
	}
	return newFacts, newMeasures, false, err
}

// apply absorbs delta — triples already present in the instance — into
// the maintained c, m_k, pres and (when built) ans. Both delta queries
// are evaluated before any state changes, so an error leaves the
// materialization as it was and a later Sync replays the same feed.
func (mp *MaintainedPres) apply(delta []store.IDTriple) (newFacts, newMeasures int, err error) {
	cCand, err := deltaRows(mp.inst, mp.q.Classifier, delta, mp.q.Classifier.Head)
	if err != nil {
		return 0, 0, err
	}
	keep, err := mp.ev.SigmaFilter(mp.c, mp.q.Dims(), mp.q.Sigma)
	if err != nil {
		return 0, 0, err
	}
	mRows, err := deltaRows(mp.inst, mp.mbarQ, delta, mp.mbarQ.Head)
	if err != nil {
		return 0, 0, err
	}

	// Δc: classifier rows touching a delta triple, Σ-filtered, minus rows
	// already present — which can only be rows with the same root.
	oldC, cRows := mp.c.Len(), mp.c.Rows
	for _, ids := range cCand {
		row := make(algebra.Row, len(ids))
		for i, id := range ids {
			row[i] = algebra.TermV(id)
		}
		if !keep(row) || slices.ContainsFunc(mp.cByRoot[ids[0]], func(p int32) bool { return slices.Equal(cRows[p], row) }) {
			continue
		}
		mp.cByRoot[ids[0]] = append(mp.cByRoot[ids[0]], int32(len(cRows)))
		cRows = append(cRows, row)
	}

	// Δm̄: new measure embeddings; each gets a fresh key.
	vCol := mp.vCol()
	oldMk, mkRows := mp.mk.Len(), mp.mk.Rows
	for _, ids := range mRows {
		k := idKey(ids)
		if _, dup := mp.mbarKeys[k]; dup {
			continue
		}
		mp.mbarKeys[k] = struct{}{}
		mp.nextKey++
		mp.mkByRoot[ids[0]] = append(mp.mkByRoot[ids[0]], int32(len(mkRows)))
		mkRows = append(mkRows, algebra.Row{algebra.KeyV(mp.nextKey), algebra.TermV(ids[0]), algebra.TermV(ids[vCol])})
	}

	// Swap in fresh headers: holders of the previous Pres(), Answer() or
	// State keep a consistent view while the materialization moves on.
	mp.c = &algebra.Relation{Cols: mp.c.Cols, Rows: cRows}
	mp.mk = &algebra.Relation{Cols: mp.mk.Cols, Rows: mkRows}
	added := mp.joinDelta(oldC, oldMk)
	mp.pres = &algebra.Relation{Cols: mp.pres.Cols, Rows: append(mp.pres.Rows, added...)}
	mp.last = ApplyStats{DeltaTriples: len(delta), PresRowsAdded: len(added)}
	if mp.ans != nil {
		mp.last.CellsTouched = mp.ans.add(added)
	}
	return len(cRows) - oldC, len(mkRows) - oldMk, nil
}

// Refresh recomputes the materialization from scratch; used after
// out-of-band instance mutations (e.g. a base rebuild).
func (mp *MaintainedPres) Refresh() error {
	fresh, err := New(mp.ev, mp.q)
	if err != nil {
		return err
	}
	*mp = *fresh
	return nil
}

// deltaRows enumerates the embeddings of q's body that use at least one
// delta triple, projected onto the given variables, deduplicated on the
// *full* body binding so one embedding is reported once even if several
// of its triples are new (projections may still repeat). Evaluation
// seeds each body pattern in turn with each matching delta triple and
// evaluates the remainder of the body.
func deltaRows(st *store.Store, q *sparql.Query, delta []store.IDTriple, project []string) ([][]dict.ID, error) {
	allVars := q.Vars()
	varPos := map[string]int{}
	for i, v := range allVars {
		varPos[v] = i
	}
	d := st.Dict()
	seen := map[string]struct{}{}
	var out [][]dict.ID

	for i, tp := range q.Patterns {
		for _, t := range delta {
			binding, ok := matchPattern(d, tp, t)
			if !ok {
				continue
			}
			// Substitute the seed bindings into a copy of the query.
			sub := q.Clone()
			for name, id := range binding {
				term, ok := d.Decode(id)
				if !ok {
					return nil, fmt.Errorf("incr: unknown ID %d", id)
				}
				substituteBody(sub, name, term)
			}
			// Drop the seeded pattern (it is now fully constant and
			// known to hold) and evaluate the rest. When the seed bound
			// every variable the rest is ground: the seed alone is one
			// embedding if all of it holds.
			sub.Patterns = append(sub.Patterns[:i:i], sub.Patterns[i+1:]...)
			res := &bgp.Result{Rows: [][]dict.ID{nil}}
			if len(sub.Vars()) > 0 {
				var err error
				if res, err = bgp.Eval(st, sub, bgp.Options{Distinct: true, KeepAllVars: true}); err != nil {
					return nil, err
				}
			} else if slices.ContainsFunc(sub.Patterns, func(g sparql.TriplePattern) bool {
				return !st.Contains(rdf.Triple{S: g.S.Term, P: g.P.Term, O: g.O.Term})
			}) {
				continue
			}
			colOf := map[string]int{}
			for ci, name := range res.Vars {
				colOf[name] = ci
			}
			emit := func(row []dict.ID) {
				// Assemble the full binding: seed values + row values.
				fullRow := make([]dict.ID, len(allVars))
				for vi, name := range allVars {
					if id, ok := binding[name]; ok {
						fullRow[vi] = id
						continue
					}
					ci, ok := colOf[name]
					if !ok {
						return
					}
					fullRow[vi] = row[ci]
				}
				k := idKey(fullRow)
				if _, dup := seen[k]; dup {
					return
				}
				seen[k] = struct{}{}
				proj := make([]dict.ID, len(project))
				for pi, name := range project {
					proj[pi] = fullRow[varPos[name]]
				}
				out = append(out, proj)
			}
			for _, row := range res.Rows {
				emit(row)
			}
		}
	}
	return out, nil
}

// matchPattern unifies a triple pattern with a concrete triple,
// returning the variable binding, or ok=false on mismatch (including
// repeated variables that would bind inconsistently).
func matchPattern(d *dict.Dictionary, tp sparql.TriplePattern, t store.IDTriple) (map[string]dict.ID, bool) {
	binding := map[string]dict.ID{}
	bind := func(n sparql.Node, id dict.ID) bool {
		if n.IsVar() {
			if prev, ok := binding[n.Var]; ok {
				return prev == id
			}
			binding[n.Var] = id
			return true
		}
		want, ok := d.Lookup(n.Term)
		return ok && want == id
	}
	if !bind(tp.S, t.S) || !bind(tp.P, t.P) || !bind(tp.O, t.O) {
		return nil, false
	}
	return binding, true
}

// substituteBody replaces a variable with a constant in the body only
// (head membership is irrelevant here; results are reassembled from the
// seed bindings).
func substituteBody(q *sparql.Query, name string, t rdf.Term) {
	var head []string
	for _, v := range q.Head {
		if v != name {
			head = append(head, v)
		}
	}
	q.Head = head
	for i, tp := range q.Patterns {
		if tp.S.Var == name {
			q.Patterns[i].S = sparql.C(t)
		}
		if tp.P.Var == name {
			q.Patterns[i].P = sparql.C(t)
		}
		if tp.O.Var == name {
			q.Patterns[i].O = sparql.C(t)
		}
	}
	if len(q.Head) == 0 && len(q.Patterns) > 0 {
		// Keep the query valid: promote any remaining variable.
		if vs := q.Vars(); len(vs) > 0 {
			q.Head = []string{vs[0]}
		}
	}
}

// idKey encodes an ID row as a map key.
func idKey(row []dict.ID) string {
	b := make([]byte, 0, len(row)*8)
	for _, id := range row {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
	}
	return string(b)
}
