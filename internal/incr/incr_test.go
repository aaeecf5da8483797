package incr

import (
	"fmt"
	"math/rand"
	"slices"
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

func testQuery(t testing.TB, f agg.Func) *core.Query {
	t.Helper()
	c := sparql.MustParseDatalog(
		"c(x, d0, d1) :- x rdf:type :Fact, x :dim0 d0, x :dim1 d1", px())
	m := sparql.MustParseDatalog(
		"m(x, v) :- x rdf:type :Fact, x :did e, e :score v", px())
	q, err := core.New(c, m, f)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// factTriples builds the triples of one synthetic fact.
func factTriples(rng *rand.Rand, id int) []rdf.Triple {
	x := iri(fmt.Sprintf("fact%d", id))
	var out []rdf.Triple
	add := func(s, p, o rdf.Term) { out = append(out, rdf.Triple{S: s, P: p, O: o}) }
	add(x, rdf.Type, iri("Fact"))
	add(x, iri("dim0"), rdf.NewInt(int64(rng.Intn(3))))
	if rng.Float64() < 0.4 {
		add(x, iri("dim0"), rdf.NewInt(int64(3+rng.Intn(2)))) // multi-valued
	}
	add(x, iri("dim1"), rdf.NewInt(int64(rng.Intn(4))))
	for m := 0; m < rng.Intn(3); m++ {
		e := iri(fmt.Sprintf("ev%d_%d", id, m))
		add(x, iri("did"), e)
		add(e, iri("score"), rdf.NewInt(int64(1+rng.Intn(9))))
	}
	return out
}

// checkAgainstFresh compares the maintained pres/ans against a
// from-scratch evaluation (keys differ; compare the keyless projection
// as bags, and the cube exactly).
func checkAgainstFresh(t *testing.T, mp *MaintainedPres) {
	t.Helper()
	q := mp.Query()
	freshPres, err := mp.ev.Pres(q)
	if err != nil {
		t.Fatal(err)
	}
	cols := append([]string{q.Root()}, q.Dims()...)
	cols = append(cols, q.MeasureVar())
	a := mp.Pres().Project(cols...)
	b := freshPres.Project(cols...)
	if !algebra.Equal(a, b) {
		t.Fatalf("maintained pres diverged from fresh evaluation\n maintained: %d rows\n fresh: %d rows",
			a.Len(), b.Len())
	}
	// Keys must still deduplicate correctly: distinct (row, key) pairs
	// equal distinct pairs in the fresh pres.
	if mp.Pres().Dedup().Len() != freshPres.Dedup().Len() {
		t.Fatalf("key structure diverged: %d vs %d distinct pres rows",
			mp.Pres().Dedup().Len(), freshPres.Dedup().Len())
	}
	gotAns, err := mp.Answer()
	if err != nil {
		t.Fatal(err)
	}
	// The accumulators are γ over the maintained pres, row for row.
	regrouped, err := mp.ev.AnswerFromPres(q, mp.Pres())
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(gotAns, regrouped) {
		t.Fatalf("accumulated answer differs from γ over the maintained pres\n got: %v\n want: %v", gotAns.Rows, regrouped.Rows)
	}
	wantAns, err := mp.ev.AnswerFromPres(q, freshPres)
	if err != nil {
		t.Fatal(err)
	}
	if !algebra.Equal(gotAns, wantAns) {
		t.Fatalf("maintained answer diverged\n got: %v\n want: %v", gotAns.Rows, wantAns.Rows)
	}
}

// sameRows reports whether a and b have the same columns and the same
// rows in the same order.
func sameRows(a, b *algebra.Relation) bool {
	return slices.Equal(a.Cols, b.Cols) && slices.EqualFunc(a.Rows, b.Rows, func(x, y algebra.Row) bool {
		return slices.Equal(x, y)
	})
}

// stream generates the insert batches of the differential tests: new
// facts, and late arrivals for facts already in the instance — a first
// or an extra dimension value, a whole measure, or a measure whose value
// arrives batches after its edge, numeric or not.
type stream struct {
	rng     *rand.Rand
	next    int        // next fact id
	facts   []int      // facts with a type triple
	noDim1  []int      // facts still without dim1, so outside c
	pending []rdf.Term // measure events whose score has not arrived
	events  int
}

func factIRI(id int) rdf.Term { return iri(fmt.Sprintf("fact%d", id)) }

// value is a measure value; one in four is not a number, which
// sum/avg/min/max skip and count/countdistinct do not.
func (s *stream) value() rdf.Term {
	if s.rng.Intn(4) == 0 {
		return rdf.NewLiteral("n/a")
	}
	return rdf.NewInt(int64(1 + s.rng.Intn(9)))
}

func (s *stream) event() rdf.Term {
	s.events++
	return iri(fmt.Sprintf("late%d", s.events))
}

func (s *stream) fact() rdf.Term { return factIRI(s.facts[s.rng.Intn(len(s.facts))]) }

func (s *stream) batch() []rdf.Triple {
	var out []rdf.Triple
	add := func(sub, p, o rdf.Term) { out = append(out, rdf.Triple{S: sub, P: p, O: o}) }
	for n := 0; n < 1+s.rng.Intn(4); n++ {
		switch s.rng.Intn(7) {
		case 0, 1: // a new fact
			out = append(out, factTriples(s.rng, s.next)...)
			s.facts = append(s.facts, s.next)
			s.next++
		case 2: // a new fact with a measure but no dim1 yet
			x := factIRI(s.next)
			add(x, rdf.Type, iri("Fact"))
			add(x, iri("dim0"), rdf.NewInt(int64(s.rng.Intn(3))))
			e := s.event()
			add(x, iri("did"), e)
			add(e, iri("score"), s.value())
			s.facts = append(s.facts, s.next)
			s.noDim1 = append(s.noDim1, s.next)
			s.next++
		case 3: // the first dim1 of such a fact: it joins c late
			if len(s.noDim1) > 0 {
				add(factIRI(s.noDim1[0]), iri("dim1"), rdf.NewInt(int64(s.rng.Intn(4))))
				s.noDim1 = s.noDim1[1:]
			}
		case 4: // an extra dimension value for an existing fact
			dim := fmt.Sprintf("dim%d", s.rng.Intn(2))
			add(s.fact(), iri(dim), rdf.NewInt(int64(5+s.rng.Intn(2))))
		case 5: // a whole measure for an existing fact
			e := s.event()
			add(s.fact(), iri("did"), e)
			add(e, iri("score"), s.value())
		case 6: // a measure edge now, its value later
			if len(s.pending) > 0 && s.rng.Intn(2) == 0 {
				add(s.pending[0], iri("score"), s.value())
				s.pending = s.pending[1:]
				break
			}
			e := s.event()
			add(s.fact(), iri("did"), e)
			s.pending = append(s.pending, e)
		}
	}
	return out
}

// TestIncrementalMatchesFreshRandom is the differential test of
// maintenance: for every aggregate function — on the test query, on it
// Σ-restricted, and on a classifier whose d1 is existential (so a new
// embedding can project onto a classifier row already held) — random
// batches of new facts and late arrivals are
// absorbed one at a time, and after every batch pres(Q) equals fresh
// evaluation and ans(Q) equals both γ over the maintained pres(Q) (row
// for row) and fresh evaluation. Midway the materialization goes
// through State → FromState and carries on from the copy.
func TestIncrementalMatchesFreshRandom(t *testing.T) {
	for _, aggName := range []string{"sum", "count", "avg", "min", "max", "countdistinct"} {
		t.Run(aggName, func(t *testing.T) {
			f, err := agg.ByName(aggName)
			if err != nil {
				t.Fatal(err)
			}
			for _, variant := range []string{"plain", "diced", "existential"} {
				t.Run(variant, func(t *testing.T) { randomStream(t, f, variant) })
			}
		})
	}
}

func randomStream(t *testing.T, f agg.Func, variant string) {
	s := &stream{rng: rand.New(rand.NewSource(42))}
	st := store.New()
	for s.next < 20 {
		for _, tr := range factTriples(s.rng, s.next) {
			st.Add(tr)
		}
		s.facts = append(s.facts, s.next)
		s.next++
	}
	q := testQuery(t, f)
	var err error
	switch variant {
	case "diced":
		q, err = core.Dice(q, map[string][]rdf.Term{"d0": {rdf.NewInt(0), rdf.NewInt(2), rdf.NewInt(5)}})
	case "existential":
		q, err = core.New(sparql.MustParseDatalog(
			"c(x, d0) :- x rdf:type :Fact, x :dim0 d0, x :dim1 d1", px()), q.Measure, f)
	}
	if err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator(st)
	mp, err := New(ev, q)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, mp)
	for batch := 0; batch < 16; batch++ {
		if batch == 8 {
			state, err := mp.State()
			if err != nil {
				t.Fatal(err)
			}
			if mp, err = FromState(ev, q, state); err != nil {
				t.Fatal(err)
			}
			checkAgainstFresh(t, mp)
		}
		if _, _, err := mp.Insert(s.batch()); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		checkAgainstFresh(t, mp)
	}
}

// TestNumericMeasureFillsEmptyCell: a cell whose measures are all
// non-numeric has no sum and no ans(Q) row, yet holds its first-seen
// place among the cells. When a number finally arrives, the row must
// appear at that place, as γ over pres(Q) would put it — behind rows of
// cells seen earlier, ahead of rows of cells seen later.
func TestNumericMeasureFillsEmptyCell(t *testing.T) {
	st := store.New()
	fact := func(name string, d0 int64, score rdf.Term) []rdf.Triple {
		x, e := iri(name), iri(name+"_e")
		return []rdf.Triple{
			{S: x, P: rdf.Type, O: iri("Fact")},
			{S: x, P: iri("dim0"), O: rdf.NewInt(d0)},
			{S: x, P: iri("dim1"), O: rdf.NewInt(0)},
			{S: x, P: iri("did"), O: e},
			{S: e, P: iri("score"), O: score},
		}
	}
	for _, tr := range append(fact("a", 0, rdf.NewInt(3)), fact("b", 1, rdf.NewLiteral("n/a"))...) {
		st.Add(tr)
	}
	mp, err := New(core.NewEvaluator(st), testQuery(t, agg.Sum))
	if err != nil {
		t.Fatal(err)
	}
	before, err := mp.Answer()
	if err != nil {
		t.Fatal(err)
	}
	if before.Len() != 1 {
		t.Fatalf("ans(Q) has %d rows, want 1: b's cell has no number", before.Len())
	}
	kept := before.Clone()
	steps := [][]rdf.Triple{
		fact("c", 2, rdf.NewInt(4)), // a new, later cell
		{{S: iri("b"), P: iri("did"), O: iri("b_e2")}, {S: iri("b_e2"), P: iri("score"), O: rdf.NewInt(5)}},
	}
	for _, step := range steps {
		if _, _, err := mp.Insert(step); err != nil {
			t.Fatal(err)
		}
		checkAgainstFresh(t, mp)
	}
	if ans, _ := mp.Answer(); ans.Len() != 3 {
		t.Fatalf("ans(Q) has %d rows, want 3", ans.Len())
	}
	if !sameRows(before, kept) {
		t.Fatal("an earlier Answer() snapshot changed")
	}
}

// TestSnapshotsStableUnderApply: Pres() and Answer() return snapshots. A
// reader holding earlier ones while batches apply must never see them
// change; under -race, the writer must also never touch memory a
// published snapshot can reach.
func TestSnapshotsStableUnderApply(t *testing.T) {
	s := &stream{rng: rand.New(rand.NewSource(31))}
	st := store.New()
	for s.next < 30 {
		for _, tr := range factTriples(s.rng, s.next) {
			st.Add(tr)
		}
		s.facts = append(s.facts, s.next)
		s.next++
	}
	st.Freeze()
	mp, err := New(core.NewEvaluator(st), testQuery(t, agg.Avg))
	if err != nil {
		t.Fatal(err)
	}
	type snapshot struct{ pres, ans, presCopy, ansCopy *algebra.Relation }
	var (
		mu    sync.Mutex
		snaps []snapshot
	)
	take := func() {
		ans, err := mp.Answer()
		if err != nil {
			t.Fatal(err)
		}
		snap := snapshot{mp.Pres(), ans, mp.Pres().Clone(), ans.Clone()}
		mu.Lock()
		snaps = append(snaps, snap)
		mu.Unlock()
	}
	take()
	done := make(chan struct{})
	changed := make(chan int, 1)
	go func() {
		defer close(changed)
		for {
			mu.Lock()
			held := slices.Clone(snaps)
			mu.Unlock()
			for i, snap := range held {
				if !sameRows(snap.pres, snap.presCopy) || !sameRows(snap.ans, snap.ansCopy) {
					changed <- i
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for batch := 0; batch < 30; batch++ {
		for _, tr := range s.batch() {
			st.Add(tr)
		}
		if _, _, _, err := mp.Sync(); err != nil {
			t.Fatal(err)
		}
		take()
	}
	close(done)
	if i, ok := <-changed; ok {
		t.Fatalf("snapshot %d changed while later batches applied", i)
	}
	checkAgainstFresh(t, mp)
}

func TestInsertExtendsExistingFact(t *testing.T) {
	// New triples that extend an existing fact: an extra dimension value
	// (new classifier rows) and an extra measure (new keyed tuple).
	rng := rand.New(rand.NewSource(7))
	st := store.New()
	for idx := 0; idx < 10; idx++ {
		for _, tr := range factTriples(rng, idx) {
			st.Add(tr)
		}
	}
	// Ensure fact0 exists with at least one measure.
	x := iri("fact0")
	st.Add(rdf.Triple{S: x, P: rdf.Type, O: iri("Fact")})
	st.Add(rdf.Triple{S: x, P: iri("dim0"), O: rdf.NewInt(0)})
	st.Add(rdf.Triple{S: x, P: iri("dim1"), O: rdf.NewInt(0)})
	st.Add(rdf.Triple{S: x, P: iri("did"), O: iri("seed_e")})
	st.Add(rdf.Triple{S: iri("seed_e"), P: iri("score"), O: rdf.NewInt(5)})

	ev := core.NewEvaluator(st)
	mp, err := New(ev, testQuery(t, agg.Sum))
	if err != nil {
		t.Fatal(err)
	}
	before := mp.Pres().Len()

	// A second dim0 value multiplies fact0's classifier rows.
	if _, _, err := mp.Insert([]rdf.Triple{
		{S: x, P: iri("dim0"), O: rdf.NewInt(99)},
	}); err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, mp)
	if mp.Pres().Len() <= before {
		t.Fatal("multi-valued extension did not grow pres")
	}

	// A new measure for fact0 must join against ALL its classifier rows.
	if _, _, err := mp.Insert([]rdf.Triple{
		{S: x, P: iri("did"), O: iri("new_e")},
		{S: iri("new_e"), P: iri("score"), O: rdf.NewInt(8)},
	}); err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, mp)
}

func TestInsertDuplicateTriplesNoOp(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	st := store.New()
	var all []rdf.Triple
	for idx := 0; idx < 15; idx++ {
		trs := factTriples(rng, idx)
		all = append(all, trs...)
		for _, tr := range trs {
			st.Add(tr)
		}
	}
	ev := core.NewEvaluator(st)
	mp, err := New(ev, testQuery(t, agg.Sum))
	if err != nil {
		t.Fatal(err)
	}
	before := mp.Pres().Len()
	nf, nm, err := mp.Insert(all) // every triple already present
	if err != nil {
		t.Fatal(err)
	}
	if nf != 0 || nm != 0 || mp.Pres().Len() != before {
		t.Fatalf("duplicate insert changed state: facts=%d measures=%d", nf, nm)
	}
	checkAgainstFresh(t, mp)
}

func TestInsertWithSigma(t *testing.T) {
	// Σ-restricted maintained query: newly inserted facts outside the
	// restriction must not enter pres.
	rng := rand.New(rand.NewSource(11))
	st := store.New()
	for idx := 0; idx < 20; idx++ {
		for _, tr := range factTriples(rng, idx) {
			st.Add(tr)
		}
	}
	q := testQuery(t, agg.Sum)
	restricted, err := core.Dice(q, map[string][]rdf.Term{"d0": {rdf.NewInt(0), rdf.NewInt(1)}})
	if err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator(st)
	mp, err := New(ev, restricted)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, mp)
	id := 100
	for batch := 0; batch < 5; batch++ {
		var triples []rdf.Triple
		for n := 0; n < 3; n++ {
			triples = append(triples, factTriples(rng, id)...)
			id++
		}
		if _, _, err := mp.Insert(triples); err != nil {
			t.Fatal(err)
		}
		checkAgainstFresh(t, mp)
	}
}

// TestSyncConsumesDeltaFeed: writes that reach the instance out of band
// (not through Insert) are absorbed by Sync via the store's delta feed,
// on top of the frozen base; a compaction between writes and Sync forces
// the Refresh fallback, which must also converge.
func TestSyncConsumesDeltaFeed(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	st := store.New()
	for idx := 0; idx < 20; idx++ {
		for _, tr := range factTriples(rng, idx) {
			st.Add(tr)
		}
	}
	st.Freeze()
	ev := core.NewEvaluator(st)
	mp, err := New(ev, testQuery(t, agg.Sum))
	if err != nil {
		t.Fatal(err)
	}

	// Out-of-band writes into the frozen store land in the delta overlay.
	id := 500
	for batch := 0; batch < 4; batch++ {
		for n := 0; n < 3; n++ {
			for _, tr := range factTriples(rng, id) {
				st.Add(tr)
			}
			id++
		}
		if st.DeltaLen() == 0 {
			t.Fatal("writes did not land in the delta overlay")
		}
		nf, nm, refreshed, err := mp.Sync()
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if refreshed {
			t.Fatalf("batch %d: Sync refreshed despite a live delta feed", batch)
		}
		if nf == 0 && nm == 0 && batch == 0 {
			t.Fatal("Sync absorbed nothing from a non-empty delta")
		}
		checkAgainstFresh(t, mp)
		if mp.Version() != st.Version() {
			t.Fatalf("batch %d: version %+v, store %+v", batch, mp.Version(), st.Version())
		}
	}
	// Idempotent when caught up.
	if nf, nm, refreshed, err := mp.Sync(); nf != 0 || nm != 0 || refreshed || err != nil {
		t.Fatalf("caught-up Sync: %d %d %v %v", nf, nm, refreshed, err)
	}

	// Compaction folds the feed away: the next Sync after further writes
	// must fall back to Refresh and still converge.
	for _, tr := range factTriples(rng, id) {
		st.Add(tr)
	}
	st.Freeze() // compacts: base epoch moves
	_, _, refreshed, err := mp.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if !refreshed {
		t.Fatal("Sync did not refresh after a base-epoch move")
	}
	checkAgainstFresh(t, mp)
}

// TestInsertAbsorbsPendingFeed: an out-of-band write followed by an
// Insert must not be masked — Insert's version fast-forward has to pull
// the pending feed triples in first, or a later Sync would never see
// them (regression: maintained pres permanently diverged).
func TestInsertAbsorbsPendingFeed(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	st := store.New()
	for idx := 0; idx < 15; idx++ {
		for _, tr := range factTriples(rng, idx) {
			st.Add(tr)
		}
	}
	st.Freeze()
	mp, err := New(core.NewEvaluator(st), testQuery(t, agg.Sum))
	if err != nil {
		t.Fatal(err)
	}
	// Out of band: straight into the store's delta overlay.
	for _, tr := range factTriples(rng, 600) {
		st.Add(tr)
	}
	// Through the materialization: must absorb both.
	if _, _, err := mp.Insert(factTriples(rng, 601)); err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, mp)
	if nf, nm, refreshed, err := mp.Sync(); nf != 0 || nm != 0 || refreshed || err != nil {
		t.Fatalf("post-Insert Sync found leftovers: %d %d %v %v", nf, nm, refreshed, err)
	}
}

func TestRefresh(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	st := store.New()
	for idx := 0; idx < 10; idx++ {
		for _, tr := range factTriples(rng, idx) {
			st.Add(tr)
		}
	}
	ev := core.NewEvaluator(st)
	mp, err := New(ev, testQuery(t, agg.Sum))
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-band mutation, then Refresh.
	x := iri("oob")
	st.Add(rdf.Triple{S: x, P: rdf.Type, O: iri("Fact")})
	st.Add(rdf.Triple{S: x, P: iri("dim0"), O: rdf.NewInt(1)})
	st.Add(rdf.Triple{S: x, P: iri("dim1"), O: rdf.NewInt(1)})
	st.Add(rdf.Triple{S: x, P: iri("did"), O: iri("oob_e")})
	st.Add(rdf.Triple{S: iri("oob_e"), P: iri("score"), O: rdf.NewInt(3)})
	if err := mp.Refresh(); err != nil {
		t.Fatal(err)
	}
	checkAgainstFresh(t, mp)
}

func TestMaintainedDrillOutStaysCorrect(t *testing.T) {
	// The point of maintenance: after inserts, Algorithm 1 over the
	// maintained pres still answers the drilled-out query correctly.
	rng := rand.New(rand.NewSource(17))
	st := store.New()
	for idx := 0; idx < 30; idx++ {
		for _, tr := range factTriples(rng, idx) {
			st.Add(tr)
		}
	}
	ev := core.NewEvaluator(st)
	q := testQuery(t, agg.Sum)
	mp, err := New(ev, q)
	if err != nil {
		t.Fatal(err)
	}
	id := 200
	for batch := 0; batch < 5; batch++ {
		var triples []rdf.Triple
		for n := 0; n < 4; n++ {
			triples = append(triples, factTriples(rng, id)...)
			id++
		}
		if _, _, err := mp.Insert(triples); err != nil {
			t.Fatal(err)
		}
		rewritten, err := ev.DrillOutRewrite(q, mp.Pres(), "d1")
		if err != nil {
			t.Fatal(err)
		}
		qOut, err := core.DrillOut(q, "d1")
		if err != nil {
			t.Fatal(err)
		}
		direct, err := ev.Answer(qOut)
		if err != nil {
			t.Fatal(err)
		}
		if !algebra.Equal(direct, rewritten) {
			t.Fatalf("batch %d: drill-out over maintained pres diverged", batch)
		}
	}
}

func BenchmarkInsertVsRecompute(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	st := store.New()
	for idx := 0; idx < 2000; idx++ {
		for _, tr := range factTriples(rng, idx) {
			st.Add(tr)
		}
	}
	ev := core.NewEvaluator(st)
	c := sparql.MustParseDatalog(
		"c(x, d0, d1) :- x rdf:type :Fact, x :dim0 d0, x :dim1 d1", px())
	m := sparql.MustParseDatalog(
		"m(x, v) :- x rdf:type :Fact, x :did e, e :score v", px())
	q, err := core.New(c, m, agg.Sum)
	if err != nil {
		b.Fatal(err)
	}
	mp, err := New(ev, q)
	if err != nil {
		b.Fatal(err)
	}
	id := 10000
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := mp.Insert(factTriples(rng, id)); err != nil {
				b.Fatal(err)
			}
			id++
		}
	})
	b.Run("recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, tr := range factTriples(rng, id) {
				st.Add(tr)
			}
			id++
			if _, err := ev.Pres(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSyncBatch measures absorbing one 25-triple batch — Sync, then
// the Answer that publishes ans(Q) — into a view over a frozen instance
// of 2k and of 20k facts. Maintenance costs O(|Δ|), so ns/op should
// barely move between the two sizes.
func BenchmarkSyncBatch(b *testing.B) {
	for _, facts := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("facts=%d", facts), func(b *testing.B) {
			rng := rand.New(rand.NewSource(37))
			st := store.New()
			for id := 0; id < facts; id++ {
				for _, tr := range factTriples(rng, id) {
					st.Add(tr)
				}
			}
			st.Freeze()
			st.SetInlineCompaction(false) // the feed must not fold away mid-run
			mp, err := New(core.NewEvaluator(st), testQuery(b, agg.Sum))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mp.Answer(); err != nil {
				b.Fatal(err)
			}
			var pending []rdf.Triple
			id := facts
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for len(pending) < 25 {
					pending = append(pending, factTriples(rng, id)...)
					id++
				}
				for _, tr := range pending[:25] {
					st.Add(tr)
				}
				pending = pending[25:]
				b.StartTimer()
				if _, _, refreshed, err := mp.Sync(); err != nil || refreshed {
					b.Fatalf("sync: refreshed=%t err=%v", refreshed, err)
				}
				if _, err := mp.Answer(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
