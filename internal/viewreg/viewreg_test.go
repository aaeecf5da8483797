package viewreg

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/core"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

const ns = "http://e.org/"

func iri(s string) rdf.Term { return rdf.NewIRI(ns + s) }

func px() sparql.Prefixes {
	p := sparql.DefaultPrefixes()
	p[""] = ns
	return p
}

// instance builds a small multi-valued instance: facts with two
// dimensions (dim0, dim1), a drill-in-able hub attribute, and scores.
func instance(seed int64, facts int) *store.Store {
	rng := rand.New(rand.NewSource(seed))
	st := store.New()
	add := func(s, p, o rdf.Term) { st.Add(rdf.NewTriple(s, p, o)) }
	for h := 0; h < 5; h++ {
		hub := iri(fmt.Sprintf("hub%d", h))
		add(hub, iri("label"), rdf.NewInt(int64(h)))
		add(hub, iri("tag"), iri(fmt.Sprintf("tag%d", h%3)))
	}
	for f := 0; f < facts; f++ {
		x := iri(fmt.Sprintf("fact%d", f))
		add(x, rdf.Type, iri("Fact"))
		add(x, iri("dim0"), rdf.NewInt(int64(rng.Intn(4))))
		if rng.Float64() < 0.3 {
			add(x, iri("dim0"), rdf.NewInt(int64(4+rng.Intn(2))))
		}
		add(x, iri("at"), iri(fmt.Sprintf("hub%d", rng.Intn(5))))
		add(x, iri("score"), rdf.NewInt(int64(1+rng.Intn(9))))
	}
	st.Freeze()
	return st
}

func query(t *testing.T, f agg.Func) *core.Query {
	t.Helper()
	c := sparql.MustParseDatalog(
		"c(x, d0, d1) :- x rdf:type :Fact, x :dim0 d0, x :at h, h :label d1, h :tag d2", px())
	m := sparql.MustParseDatalog("m(x, v) :- x rdf:type :Fact, x :score v", px())
	q, err := core.New(c, m, f)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// checkAgainstDirect asserts cube (possibly with permuted columns)
// matches a fresh direct evaluation of q.
func checkAgainstDirect(t *testing.T, r *Registry, q *core.Query, cube *algebra.Relation, label string) {
	t.Helper()
	direct, err := r.Evaluator().Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !algebra.Equal(direct, cube.Project(direct.Cols...)) {
		t.Fatalf("%s: cube differs from direct evaluation\n got: %v\nwant: %v",
			label, cube.Rows, direct.Rows)
	}
}

func TestHeadRelation(t *testing.T) {
	cases := []struct {
		e, q []string
		want headRelationKind
	}{
		{[]string{"x", "a", "b"}, []string{"x", "b", "a"}, headEqual},
		{[]string{"x", "a", "b"}, []string{"x", "a"}, headSubset},
		{[]string{"x", "a"}, []string{"x", "a", "c"}, headSuperset},
		{[]string{"x", "a"}, []string{"x", "b"}, headUnrelated},
		{[]string{"x", "a"}, []string{"y", "a"}, headUnrelated},
	}
	for _, c := range cases {
		if got := headRelation(c.e, c.q); got != c.want {
			t.Errorf("headRelation(%v, %v) = %d, want %d", c.e, c.q, got, c.want)
		}
	}
}

func TestSigmaRefines(t *testing.T) {
	v1, v2 := rdf.NewInt(1), rdf.NewInt(2)
	if !sigmaRefines(core.Sigma{}, core.Sigma{"d": {v1}}) {
		t.Error("adding a restriction is a refinement")
	}
	if !sigmaRefines(core.Sigma{"d": {v1, v2}}, core.Sigma{"d": {v1}}) {
		t.Error("shrinking a value set is a refinement")
	}
	if sigmaRefines(core.Sigma{"d": {v1}}, core.Sigma{}) {
		t.Error("dropping a restriction is not a refinement")
	}
	if sigmaRefines(core.Sigma{"d": {v1}}, core.Sigma{"d": {v2}}) {
		t.Error("disjoint value sets are not refinements")
	}
}

func TestFingerprints(t *testing.T) {
	q := query(t, agg.Sum)
	fam := familyKey(q)
	if familyKey(q.Clone()) != fam {
		t.Error("clone changed family key")
	}
	sliced, err := core.Slice(q, "d0", rdf.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if familyKey(sliced) != fam {
		t.Error("SLICE must stay in the family")
	}
	if exactKey(fam, sliced) == exactKey(fam, q) {
		t.Error("SLICE must change the exact key")
	}
	out, err := core.DrillOut(q, "d1")
	if err != nil {
		t.Fatal(err)
	}
	if familyKey(out) != fam {
		t.Error("DRILL-OUT must stay in the family (classifier body unchanged)")
	}
	if exactKey(fam, out) == exactKey(fam, q) {
		t.Error("DRILL-OUT must change the exact key")
	}
	// Permuting dimensions keeps the exact key (canonicalized head) but
	// coalescing is still guarded by sameAnswerShape.
	perm := q.Clone()
	perm.Classifier.Head = []string{"x", "d1", "d0"}
	if exactKey(fam, perm) != exactKey(fam, q) {
		t.Error("dimension order must not change the exact key")
	}
	if sameAnswerShape(perm, q) {
		t.Error("permuted dims are not answer-shape-identical")
	}
	q2 := query(t, agg.Count)
	if familyKey(q2) == fam {
		t.Error("different aggregation must change the family")
	}
}

func TestRewriteStrategiesSharedAcrossClients(t *testing.T) {
	// Client A materializes the base cube; clients B, C, D issue OLAP
	// transformations of it and must be served by rewriting, each
	// matching direct evaluation.
	r := New(instance(1, 80), Config{})
	base := query(t, agg.Sum)
	if _, s, err := r.Answer(base); err != nil || s != StrategyDirect {
		t.Fatalf("base: strategy %v err %v", s, err)
	}

	diced, err := core.Dice(base, map[string][]rdf.Term{"d0": {rdf.NewInt(1), rdf.NewInt(2)}})
	if err != nil {
		t.Fatal(err)
	}
	cube, s, err := r.Answer(diced)
	if err != nil || s != StrategyDice {
		t.Fatalf("dice: strategy %v err %v", s, err)
	}
	checkAgainstDirect(t, r, diced, cube, "dice")

	qOut, err := core.DrillOut(base, "d1")
	if err != nil {
		t.Fatal(err)
	}
	cube, s, err = r.Answer(qOut)
	if err != nil || s != StrategyDrillOut {
		t.Fatalf("drill-out: strategy %v err %v", s, err)
	}
	checkAgainstDirect(t, r, qOut, cube, "drill-out")

	qIn, err := core.DrillIn(base, "d2")
	if err != nil {
		t.Fatal(err)
	}
	cube, s, err = r.Answer(qIn)
	if err != nil || s != StrategyDrillIn {
		t.Fatalf("drill-in: strategy %v err %v", s, err)
	}
	checkAgainstDirect(t, r, qIn, cube, "drill-in")

	if got := r.Stats().ByStrategy[StrategyDirect]; got != 1 {
		t.Errorf("direct evaluations = %d, want 1", got)
	}
}

func TestConcurrentIdenticalQueriesEvaluateOnce(t *testing.T) {
	r := New(instance(2, 120), Config{})
	base := query(t, agg.Sum)
	direct, err := r.Evaluator().Answer(base)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	var wg sync.WaitGroup
	cubes := make([]*algebra.Relation, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cubes[i], _, errs[i] = r.Answer(base.Clone())
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !algebra.Equal(direct, cubes[i].Project(direct.Cols...)) {
			t.Fatalf("client %d got a wrong cube", i)
		}
	}
	st := r.Stats()
	if st.ByStrategy[StrategyDirect] != 1 {
		t.Errorf("direct evaluations = %d, want exactly 1 (stats: %+v)", st.ByStrategy[StrategyDirect], st)
	}
	if st.ByStrategy[StrategyCached] != clients-1 {
		t.Errorf("cached answers = %d, want %d", st.ByStrategy[StrategyCached], clients-1)
	}
	if r.Entries() != 1 {
		t.Errorf("Entries = %d, want 1", r.Entries())
	}
}

func TestConcurrentTransformationsRewriteAfterOneDirect(t *testing.T) {
	// Every client runs the same session: base cube, then a DICE, then a
	// DRILL-OUT. Across all clients there must be exactly one direct
	// evaluation, and every rewrite must agree with direct evaluation.
	// From the second ask on, a rewrite result is registered, so later
	// asks may be served cached instead.
	r := New(instance(3, 100), Config{})
	base := query(t, agg.Sum)

	const clients = 8
	var wg sync.WaitGroup
	type result struct {
		strategy Strategy
		cube     *algebra.Relation
		err      error
	}
	dice := make([]result, clients)
	drill := make([]result, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := r.Answer(base.Clone()); err != nil {
				dice[i].err = err
				return
			}
			diced, err := core.Dice(base, map[string][]rdf.Term{"d0": {rdf.NewInt(0), rdf.NewInt(3)}})
			if err != nil {
				dice[i].err = err
				return
			}
			dice[i].cube, dice[i].strategy, dice[i].err = r.Answer(diced)
			qOut, err := core.DrillOut(base, "d0")
			if err != nil {
				drill[i].err = err
				return
			}
			drill[i].cube, drill[i].strategy, drill[i].err = r.Answer(qOut)
		}(i)
	}
	wg.Wait()

	diced, _ := core.Dice(base, map[string][]rdf.Term{"d0": {rdf.NewInt(0), rdf.NewInt(3)}})
	qOut, _ := core.DrillOut(base, "d0")
	var nDice, nDrill, nCached int64
	for i := 0; i < clients; i++ {
		if dice[i].err != nil || drill[i].err != nil {
			t.Fatalf("client %d: dice err %v drill err %v", i, dice[i].err, drill[i].err)
		}
		switch dice[i].strategy {
		case StrategyDice:
			nDice++
		case StrategyCached:
			nCached++
		default:
			t.Errorf("client %d: dice strategy = %s", i, dice[i].strategy)
		}
		switch drill[i].strategy {
		case StrategyDrillOut:
			nDrill++
		case StrategyCached:
			nCached++
		default:
			t.Errorf("client %d: drill-out strategy = %s", i, drill[i].strategy)
		}
		checkAgainstDirect(t, r, diced, dice[i].cube, fmt.Sprintf("client %d dice", i))
		checkAgainstDirect(t, r, qOut, drill[i].cube, fmt.Sprintf("client %d drill-out", i))
	}
	st := r.Stats()
	if st.ByStrategy[StrategyDirect] != 1 {
		t.Errorf("direct evaluations = %d, want exactly 1 (stats: %+v)", st.ByStrategy[StrategyDirect], st)
	}
	// Every ask before the registration is a rewrite, every one after it
	// cached; the first ask of each is always a rewrite.
	if nDice == 0 || nDrill == 0 || st.ByStrategy[StrategyDice] != nDice || st.ByStrategy[StrategyDrillOut] != nDrill ||
		st.ByStrategy[StrategyCached] != clients-1+nCached {
		t.Errorf("strategy counts = %+v, want dice %d, drill-out %d, cached %d",
			st.ByStrategy, nDice, nDrill, clients-1+nCached)
	}
	// Eight asks each: both rewrite results are registered.
	if st.Entries != 3 {
		t.Errorf("Entries = %d, want 3 (base + the DICE and DRILL-OUT results)", st.Entries)
	}
}

func TestByteBoundedLRUEviction(t *testing.T) {
	st := instance(4, 60)
	r := New(st, Config{})
	base := query(t, agg.Sum)

	// Distinct single-value slices are not refinements of one another:
	// each forces a direct evaluation and registers a new entry.
	slice := func(i int) *core.Query {
		t.Helper()
		q, err := core.Slice(base, "d1", rdf.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	// Materialize one sliced cube to learn a realistic entry size, then
	// bound the registry to roughly two entries' worth of bytes.
	if _, s, err := r.Answer(slice(0)); err != nil || s != StrategyDirect {
		t.Fatalf("slice 0: strategy %v err %v", s, err)
	}
	one := r.Bytes()
	if one <= 0 {
		t.Fatalf("Bytes = %d, want > 0", one)
	}
	budget := 2*one + one/2
	r.SetLimits(0, budget)

	for i := 1; i < 5; i++ {
		if _, s, err := r.Answer(slice(i)); err != nil || s != StrategyDirect {
			t.Fatalf("slice %d: strategy %v err %v", i, s, err)
		}
	}
	stats := r.Stats()
	if stats.Bytes > budget {
		t.Errorf("Bytes = %d exceeds budget %d", stats.Bytes, budget)
	}
	if stats.Evictions == 0 {
		t.Error("expected evictions under the byte budget")
	}
	if stats.Entries >= 5 {
		t.Errorf("Entries = %d, want < 5 after eviction", stats.Entries)
	}

	// The evicted first slice must be re-evaluated — and still correct.
	cube, s, err := r.Answer(slice(0))
	if err != nil {
		t.Fatal(err)
	}
	if s != StrategyDirect {
		t.Errorf("evicted slice answered by %s, want direct", s)
	}
	checkAgainstDirect(t, r, slice(0), cube, "re-evaluated slice")
}

func TestOversizedEntryNotRetained(t *testing.T) {
	r := New(instance(5, 60), Config{MaxBytes: 1}) // nothing fits
	base := query(t, agg.Sum)
	cube, s, err := r.Answer(base)
	if err != nil || s != StrategyDirect {
		t.Fatalf("strategy %v err %v", s, err)
	}
	checkAgainstDirect(t, r, base, cube, "oversized")
	if r.Entries() != 0 {
		t.Errorf("Entries = %d, want 0 (entry exceeds whole budget)", r.Entries())
	}
}

func TestWriteEpochInvalidation(t *testing.T) {
	st := instance(6, 50)
	r := New(st, Config{})
	base := query(t, agg.Sum)
	stale, s, err := r.Answer(base)
	if err != nil || s != StrategyDirect {
		t.Fatalf("strategy %v err %v", s, err)
	}

	// Write a triple that changes the cube: a new fact contributing to
	// dim0=0 cells.
	x := iri("newfact")
	st.Add(rdf.NewTriple(x, rdf.Type, iri("Fact")))
	st.Add(rdf.NewTriple(x, iri("dim0"), rdf.NewInt(0)))
	st.Add(rdf.NewTriple(x, iri("at"), iri("hub0")))
	st.Add(rdf.NewTriple(x, iri("score"), rdf.NewInt(1000)))
	st.Freeze()

	cube, s, err := r.Answer(base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if s != StrategyDirect {
		t.Fatalf("post-write strategy = %s, want direct (stale view served!)", s)
	}
	checkAgainstDirect(t, r, base, cube, "post-write")
	if algebra.Equal(stale, cube) {
		t.Fatal("write did not change the cube; invalidation untested")
	}
	if got := r.Stats().Invalidations; got == 0 {
		t.Errorf("Invalidations = %d, want > 0", got)
	}

	// Transformations after the write rewrite against the *new* view.
	diced, err := core.Dice(base, map[string][]rdf.Term{"d0": {rdf.NewInt(0)}})
	if err != nil {
		t.Fatal(err)
	}
	dcube, s, err := r.Answer(diced)
	if err != nil || s != StrategyDice {
		t.Fatalf("dice after write: strategy %v err %v", s, err)
	}
	checkAgainstDirect(t, r, diced, dcube, "dice after write")
}

// newFact inserts one synthetic fact's triples directly into the store
// (the out-of-band write path a server write handler uses) and reports
// how many triples were new.
func newFact(st *store.Store, i int, dim0, score int64) int {
	x := iri(fmt.Sprintf("wfact%d", i))
	added := 0
	for _, tr := range []rdf.Triple{
		{S: x, P: rdf.Type, O: iri("Fact")},
		{S: x, P: iri("dim0"), O: rdf.NewInt(dim0)},
		{S: x, P: iri("at"), O: iri("hub1")},
		{S: x, P: iri("score"), O: rdf.NewInt(score)},
	} {
		if st.Add(tr) {
			added++
		}
	}
	return added
}

// TestDeltaWritesMaintainViews is the tentpole acceptance scenario:
// after N inserts below the compaction threshold, a previously
// registered view answers a rewritable query *without* a direct
// re-evaluation — the view is maintained through the store's delta feed
// — and its cube is identical to direct evaluation.
func TestDeltaWritesMaintainViews(t *testing.T) {
	st := instance(10, 60) // frozen by the helper
	r := New(st, Config{})
	base := query(t, agg.Sum)
	if _, s, err := r.Answer(base); err != nil || s != StrategyDirect {
		t.Fatalf("base: strategy %v err %v", s, err)
	}

	for round := 0; round < 3; round++ {
		// Writes land in the delta overlay: the base stays frozen.
		for i := 0; i < 4; i++ {
			newFact(st, round*10+i, int64(i%4), int64(100+i))
		}
		if st.DeltaLen() == 0 {
			t.Fatal("writes did not land in the delta overlay")
		}
		r.NotifyWrite()

		// The identical query is served from the maintained view...
		cube, s, err := r.Answer(base.Clone())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if s != StrategyCached {
			t.Fatalf("round %d: strategy %s, want cached (maintained view)", round, s)
		}
		// ...and reflects the writes exactly.
		checkAgainstDirect(t, r, base, cube, fmt.Sprintf("round %d maintained", round))

		// A DICE of it rewrites against the maintained view too.
		diced, err := core.Dice(base, map[string][]rdf.Term{"d0": {rdf.NewInt(1), rdf.NewInt(2)}})
		if err != nil {
			t.Fatal(err)
		}
		dcube, s, err := r.Answer(diced)
		if err != nil || s != StrategyDice {
			t.Fatalf("round %d dice: strategy %v err %v", round, s, err)
		}
		checkAgainstDirect(t, r, diced, dcube, fmt.Sprintf("round %d dice", round))
	}

	stats := r.Stats()
	if stats.ByStrategy[StrategyDirect] != 1 {
		t.Errorf("direct evaluations = %d, want exactly 1 — views must be maintained, not recomputed (stats %+v)",
			stats.ByStrategy[StrategyDirect], stats)
	}
	if stats.Maintained == 0 {
		t.Error("Maintained = 0, want > 0")
	}
	if stats.Invalidations != 0 {
		t.Errorf("Invalidations = %d, want 0 (no base-epoch move happened)", stats.Invalidations)
	}
}

// TestLookupTimeMaintenance: even without a write notification, a
// delta-stale view is caught up at lookup instead of being dropped.
func TestLookupTimeMaintenance(t *testing.T) {
	st := instance(11, 50)
	r := New(st, Config{})
	base := query(t, agg.Sum)
	if _, _, err := r.Answer(base); err != nil {
		t.Fatal(err)
	}
	newFact(st, 1, 2, 500)
	// No NotifyWrite: the lookup must maintain.
	cube, s, err := r.Answer(base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if s != StrategyCached {
		t.Fatalf("strategy %s, want cached via lookup-time maintenance", s)
	}
	checkAgainstDirect(t, r, base, cube, "lookup-time maintained")
	if got := r.Stats().Maintained; got != 1 {
		t.Errorf("Maintained = %d, want 1", got)
	}
}

// TestCompactionEvictsViews: a compaction (explicit Freeze with pending
// delta) moves the base epoch; maintained entries cannot replay the feed
// and must fall back to eviction + direct re-evaluation.
func TestCompactionEvictsViews(t *testing.T) {
	st := instance(12, 50)
	r := New(st, Config{})
	base := query(t, agg.Sum)
	if _, _, err := r.Answer(base); err != nil {
		t.Fatal(err)
	}
	newFact(st, 1, 1, 250)
	st.Freeze() // compacts: base epoch moves, feed gone
	r.NotifyWrite()
	if got := r.Stats().Invalidations; got == 0 {
		t.Error("NotifyWrite did not sweep the base-stale entry (memory accounting would lag until lookup)")
	}
	if got := r.Entries(); got != 0 {
		t.Errorf("Entries = %d, want 0 after eager sweep", got)
	}
	cube, s, err := r.Answer(base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if s != StrategyDirect {
		t.Fatalf("post-compaction strategy %s, want direct", s)
	}
	checkAgainstDirect(t, r, base, cube, "post-compaction")
}

// TestNegativeCacheSkipsRepeatedMisses: when a query's family scan finds
// no applicable rewrite and its own registration is not retained (the
// byte budget admits nothing), repeated asks skip the candidate scan.
func TestNegativeCacheSkipsRepeatedMisses(t *testing.T) {
	r := New(instance(13, 40), Config{MaxBytes: 1})
	base := query(t, agg.Sum)
	want, s, err := r.Answer(base)
	if err != nil || s != StrategyDirect {
		t.Fatalf("first: strategy %v err %v", s, err)
	}
	if got := r.Stats().NegSkips; got != 0 {
		t.Fatalf("NegSkips after first answer = %d", got)
	}
	got, s, err := r.Answer(base.Clone())
	if err != nil || s != StrategyDirect {
		t.Fatalf("second: strategy %v err %v", s, err)
	}
	if !algebra.Equal(want, got) {
		t.Fatal("negative-cache path changed the cube")
	}
	if skips := r.Stats().NegSkips; skips != 1 {
		t.Errorf("NegSkips = %d, want 1", skips)
	}

	// A write moves the version: the recorded miss no longer applies.
	newFact(r.Instance(), 1, 0, 10)
	if _, _, err := r.Answer(base.Clone()); err != nil {
		t.Fatal(err)
	}
	if skips := r.Stats().NegSkips; skips != 1 {
		t.Errorf("NegSkips after version move = %d, want still 1", skips)
	}
}

func TestEvaluationRacedByWriteIsNotRegistered(t *testing.T) {
	// Registration is skipped when the epoch moves during evaluation.
	// Simulated by bumping the epoch from another goroutine is racy with
	// map reads, so sequence it: capture epoch, write, then answer — the
	// entry must carry the *new* epoch and still validate. The inverse
	// (write between capture and publish) is covered by the implementation
	// check r.st.Epoch() == epoch at insert; exercise it via race-free
	// sequencing: answer on a store, write, answer again, and confirm
	// entries never exceed live epochs.
	st := instance(7, 40)
	r := New(st, Config{})
	base := query(t, agg.Sum)
	if _, _, err := r.Answer(base); err != nil {
		t.Fatal(err)
	}
	st.Add(rdf.NewTriple(iri("extra"), rdf.Type, iri("Fact")))
	st.Freeze()
	if _, s, err := r.Answer(base.Clone()); err != nil || s != StrategyDirect {
		t.Fatalf("strategy %v err %v", s, err)
	}
	if r.Entries() != 1 {
		t.Errorf("Entries = %d, want 1 (stale entry replaced)", r.Entries())
	}
}

func TestDescribe(t *testing.T) {
	r := New(instance(8, 30), Config{})
	if _, _, err := r.Answer(query(t, agg.Sum)); err != nil {
		t.Fatal(err)
	}
	d := r.Describe()
	if len(d) == 0 || d[0] != '1' {
		t.Errorf("Describe = %q", d)
	}
}

func TestRelationBytes(t *testing.T) {
	rel := algebra.NewRelation("a", "b")
	small := relationBytes(rel)
	for i := 0; i < 100; i++ {
		rel.Append(algebra.Row{algebra.NumV(1), algebra.NumV(2)})
	}
	big := relationBytes(rel)
	if big <= small {
		t.Errorf("relationBytes did not grow with rows: %d -> %d", small, big)
	}
	if relationBytes(nil) != 0 {
		t.Error("nil relation must cost 0")
	}
}

// TestRewriteSingleFlightDeterministic: a query arriving while an
// identical rewrite scan is in flight must wait for the leader's cube
// instead of recomputing σ_dice — exercised deterministically by
// planting the flight by hand.
func TestRewriteSingleFlightDeterministic(t *testing.T) {
	inst := instance(10, 300)
	r := New(inst, Config{})
	q := query(t, agg.Sum)
	if _, _, err := r.Answer(q); err != nil {
		t.Fatal(err)
	}
	diced, err := core.Dice(q, map[string][]rdf.Term{"d0": {rdf.NewInt(1), rdf.NewInt(2)}})
	if err != nil {
		t.Fatal(err)
	}

	// Plant a leader flight for the diced query's exact fingerprint.
	key := exactKey(familyKey(diced), diced)
	fl := &rewriteFlight{query: diced.Clone(), epoch: r.st.Epoch(), done: make(chan struct{})}
	r.mu.Lock()
	r.rwFlight[key] = fl
	r.mu.Unlock()

	type answer struct {
		cube *algebra.Relation
		strt Strategy
		err  error
	}
	got := make(chan answer, 1)
	go func() {
		cube, strt, err := r.Answer(diced)
		got <- answer{cube, strt, err}
	}()

	// Wait until the follower has parked on the flight, then publish a
	// cube and check it comes back verbatim.
	for {
		r.mu.Lock()
		parked := r.coalescedRw == 1
		r.mu.Unlock()
		if parked {
			break
		}
		runtime.Gosched()
	}
	want, err := r.Evaluator().DiceRewrite(diced, mustEntryAns(t, r, q))
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	delete(r.rwFlight, key)
	r.mu.Unlock()
	fl.cube, fl.strategy = want, StrategyDice
	close(fl.done)

	a := <-got
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.strt != StrategyDice || !algebra.Equal(a.cube, want) {
		t.Fatalf("follower got strategy %s (%d cells), want the leader's dice cube (%d cells)",
			a.strt, a.cube.Len(), want.Len())
	}
	if a.cube != want {
		t.Fatal("follower must share the leader's (immutable) cube, not a copy")
	}
	st := r.Stats()
	if st.CoalescedRewrites != 1 {
		t.Fatalf("CoalescedRewrites = %d, want 1", st.CoalescedRewrites)
	}
	if st.ByStrategy[StrategyDice] != 1 {
		t.Fatalf("dice strategy count = %d, want 1", st.ByStrategy[StrategyDice])
	}
}

// mustEntryAns digs the registered ans(Q) for q out of the registry.
func mustEntryAns(t *testing.T, r *Registry, q *core.Query) *algebra.Relation {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.families[familyKey(q)] {
		if sameAnswerShape(e.query, q) {
			return e.ans
		}
	}
	t.Fatal("query not registered")
	return nil
}

// TestRewriteSingleFlightConcurrent: N concurrent identical DICEs all
// answer correctly; σ_dice runs once for all of them — the coalesced
// ones reuse the leader's cube, the later ones its registration.
func TestRewriteSingleFlightConcurrent(t *testing.T) {
	inst := instance(11, 400)
	r := New(inst, Config{})
	q := query(t, agg.Sum)
	if _, _, err := r.Answer(q); err != nil {
		t.Fatal(err)
	}
	diced, err := core.Dice(q, map[string][]rdf.Term{"d0": {rdf.NewInt(0), rdf.NewInt(3)}})
	if err != nil {
		t.Fatal(err)
	}
	// One ask first: the burst's leader is then the second ask, so it
	// registers its result whether or not anyone coalesced on it.
	if _, s, err := r.Answer(diced); err != nil || s != StrategyDice {
		t.Fatalf("first dice: strategy %v err %v", s, err)
	}
	before := r.Stats()
	const clients = 16
	var wg sync.WaitGroup
	cubes := make([]*algebra.Relation, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cube, strt, err := r.Answer(diced)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if strt != StrategyDice && strt != StrategyCached {
				t.Errorf("client %d: strategy %s, want dice-rewrite or cached", i, strt)
			}
			cubes[i] = cube
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < clients; i++ {
		if !algebra.Equal(cubes[0], cubes[i]) {
			t.Fatalf("client %d got a different cube", i)
		}
	}
	st := r.Stats()
	coalesced := st.CoalescedRewrites - before.CoalescedRewrites
	if n := st.ByStrategy[StrategyDice] - before.ByStrategy[StrategyDice]; n != 1+coalesced {
		t.Fatalf("dice strategy count = %d, want %d: σ ran once, for the leader and its %d followers", n, 1+coalesced, coalesced)
	}
	if n := st.ByStrategy[StrategyCached] - before.ByStrategy[StrategyCached]; n != clients-1-coalesced {
		t.Fatalf("cached count = %d, want %d", n, clients-1-coalesced)
	}
	checkAgainstDirect(t, r, diced, cubes[0], "coalesced dice")
}
