package viewreg

// Registered rewrite results: the second rewrite of one exact
// fingerprint registers its cube as an ans-only entry, which serves
// repeats as cached and SLICE/DICE refinements by σ_dice, never drives
// Algorithm 1 or 2, is released (not maintained) when a write moves the
// store, is never persisted, and is evicted before entries with pres.

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/core"
	"rdfcube/internal/rdf"
)

// requireDirect asserts cube equals a fresh direct evaluation of q,
// column order included: the registry answers in the asker's layout.
func requireDirect(t *testing.T, r *Registry, q *core.Query, cube *algebra.Relation, label string) {
	t.Helper()
	direct, err := r.Evaluator().Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !algebra.Equal(direct, cube) {
		t.Fatalf("%s: cube differs from direct evaluation\n got %v %v\nwant %v %v",
			label, cube.Cols, cube.Rows, direct.Cols, direct.Rows)
	}
}

// answer asks q and requires the given strategy and a direct-equal cube.
func answer(t *testing.T, r *Registry, q *core.Query, want Strategy, label string) *algebra.Relation {
	t.Helper()
	cube, s, err := r.Answer(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if s != want {
		t.Fatalf("%s: strategy %s, want %s", label, s, want)
	}
	requireDirect(t, r, q, cube, label)
	return cube
}

func dice(t *testing.T, q *core.Query, d0 ...int64) *core.Query {
	t.Helper()
	vals := make([]rdf.Term, len(d0))
	for i, v := range d0 {
		vals[i] = rdf.NewInt(v)
	}
	out, err := core.Dice(q, map[string][]rdf.Term{"d0": vals})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRewriteRegisteredOnSecondAsk(t *testing.T) {
	r := New(instance(20, 80), Config{})
	base := query(t, agg.Sum)
	answer(t, r, base, StrategyDirect, "base")
	out, err := core.DrillOut(base, "d1")
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.DrillIn(base, "d2")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q    *core.Query
		want Strategy
	}{
		{dice(t, base, 1, 2), StrategyDice},
		{out, StrategyDrillOut},
		{in, StrategyDrillIn},
	}
	for i, c := range cases {
		answer(t, r, c.q, c.want, fmt.Sprintf("%s first", c.want))
		if got := r.Entries(); got != 1+i {
			t.Fatalf("%s: Entries = %d after one ask, want %d (one-off rewrites pin nothing)", c.want, got, 1+i)
		}
		second := answer(t, r, c.q.Clone(), c.want, fmt.Sprintf("%s second", c.want))
		if got := r.Entries(); got != 2+i {
			t.Fatalf("%s: Entries = %d after two asks, want %d", c.want, got, 2+i)
		}
		third := answer(t, r, c.q.Clone(), StrategyCached, fmt.Sprintf("%s third", c.want))
		if third != second {
			t.Fatalf("%s: the cached repeat must be the registered (immutable) cube", c.want)
		}
	}
	// A registered DRILL-OUT result serves DICEs of itself by σ_dice.
	answer(t, r, dice(t, out, 0, 3), StrategyDice, "dice of the drill-out result")
	if st := r.Stats(); st.ByStrategy[StrategyDirect] != 1 || st.Released != 0 || st.Invalidations != 0 {
		t.Fatalf("stats %+v: want 1 direct, nothing released or invalidated", st)
	}
}

// TestAnswerInAskersColumnOrder: a registered view with the same
// dimensions in another order answers in the asker's order, cached and
// diced alike.
func TestAnswerInAskersColumnOrder(t *testing.T) {
	r := New(instance(21, 80), Config{})
	base := query(t, agg.Sum)
	answer(t, r, base, StrategyDirect, "base")
	perm := base.Clone()
	perm.Classifier.Head = []string{"x", "d1", "d0"}
	if cube := answer(t, r, perm, StrategyCached, "permuted"); cube.Cols[0] != "d1" {
		t.Fatalf("permuted cols = %v, want d1 first", cube.Cols)
	}
	answer(t, r, dice(t, perm, 0, 2), StrategyDice, "permuted dice")
	answer(t, r, base.Clone(), StrategyCached, "base again")
}

// TestDerivedReleasedOnWrite: a write releases the registered rewrite
// result — counted as released, not invalidated — while the base is
// maintained; the next ask re-derives from the maintained base, with or
// without a write notification in between.
func TestDerivedReleasedOnWrite(t *testing.T) {
	st := instance(22, 80)
	r := New(st, Config{})
	base := query(t, agg.Sum)
	answer(t, r, base, StrategyDirect, "base")
	d := dice(t, base, 0, 1)
	answer(t, r, d, StrategyDice, "first")
	answer(t, r, d.Clone(), StrategyDice, "second")
	answer(t, r, d.Clone(), StrategyCached, "third")

	for round, notify := range []bool{true, false} {
		newFact(st, 100+round, 0, 1000) // lands in the diced cells
		if notify {
			r.NotifyWrite()
			if got := r.Stats().Released; got != 1 {
				t.Fatalf("Released = %d after the write, want 1", got)
			}
		}
		answer(t, r, d.Clone(), StrategyDice, fmt.Sprintf("round %d after write", round))
		answer(t, r, d.Clone(), StrategyCached, fmt.Sprintf("round %d re-registered", round))
	}
	s := r.Stats()
	if s.Released != 2 || s.Invalidations != 0 || s.ByStrategy[StrategyDirect] != 1 || s.Maintained != 2 {
		t.Fatalf("stats %+v: want 2 released, 0 invalidated, 1 direct, 2 maintained", s)
	}
}

// TestDerivedNotRegisteredAcrossWrite: a rewrite whose store moved while
// it ran is not registered. The flight is led by hand so the write can
// land between the start of the scan and its registration.
func TestDerivedNotRegisteredAcrossWrite(t *testing.T) {
	st := instance(23, 60)
	r := New(st, Config{})
	base := query(t, agg.Sum)
	answer(t, r, base, StrategyDirect, "base")
	d := dice(t, base, 2)
	fam := familyKey(d)
	key := exactKey(fam, d)
	ver := st.Version()
	fl := &rewriteFlight{query: d.Clone(), epoch: st.Epoch(), done: make(chan struct{})}
	r.mu.Lock()
	r.rewrites[key] = 1 // the flight below is the second ask
	r.mu.Unlock()
	newFact(st, 1, 2, 77)
	cube, s, err := r.leadRewrite(context.Background(), nil, fl, fam, key, ver)
	if err != nil || cube == nil || s != StrategyDice {
		t.Fatalf("leadRewrite: strategy %v cube %v err %v", s, cube != nil, err)
	}
	if got := r.Entries(); got != 1 {
		t.Fatalf("Entries = %d, want 1: a rewrite read before a write must not be registered", got)
	}
}

// TestAnsOnlyNeverDrivesAlgorithms: an ans-only entry has no pres, so a
// DRILL-OUT or DRILL-IN that only it could answer is evaluated directly.
func TestAnsOnlyNeverDrivesAlgorithms(t *testing.T) {
	r := New(instance(24, 80), Config{})
	narrow := query(t, agg.Sum)
	narrow.Classifier.Head = []string{"x", "d0"} // d1, d2 existential
	answer(t, r, narrow, StrategyDirect, "narrow base")
	wide, err := core.DrillIn(narrow, "d1")
	if err != nil {
		t.Fatal(err)
	}
	answer(t, r, wide, StrategyDrillIn, "drill-in first")
	answer(t, r, wide.Clone(), StrategyDrillIn, "drill-in second")
	if got := r.Entries(); got != 2 {
		t.Fatalf("Entries = %d, want 2", got)
	}
	// DRILL-OUT d0 from (d0, d1): only the ans-only entry relates.
	out, err := core.DrillOut(wide, "d0")
	if err != nil {
		t.Fatal(err)
	}
	answer(t, r, out, StrategyDirect, "drill-out of an ans-only entry")
	// DRILL-IN d2 on (d0, d1): only the ans-only entry relates.
	in, err := core.DrillIn(wide, "d2")
	if err != nil {
		t.Fatal(err)
	}
	answer(t, r, in, StrategyDirect, "drill-in of an ans-only entry")

	r.mu.Lock()
	var e *entry
	for _, c := range r.families[familyKey(wide)] {
		if c.ansOnly {
			e = c
		}
	}
	r.mu.Unlock()
	if e == nil {
		t.Fatal("no ans-only entry registered")
	}
	for _, q := range []*core.Query{out, in} {
		if s, cube, err := r.tryRewrite(e.query, q, nil, e.ans); s != "" || cube != nil || err != nil {
			t.Fatalf("tryRewrite on an ans-only entry for %v: strategy %q err %v", q.Dims(), s, err)
		}
	}
}

func TestSaveSkipsAnsOnlyEntries(t *testing.T) {
	st := instance(25, 80)
	r := New(st, Config{})
	base := query(t, agg.Sum)
	answer(t, r, base, StrategyDirect, "base")
	d := dice(t, base, 1)
	answer(t, r, d, StrategyDice, "first")
	answer(t, r, d.Clone(), StrategyDice, "second")
	if got := r.Entries(); got != 2 {
		t.Fatalf("Entries = %d, want 2", got)
	}
	var buf bytes.Buffer
	saved, err := r.Save(&buf)
	if err != nil || saved != 1 {
		t.Fatalf("Save: saved %d err %v, want the base only", saved, err)
	}
	r2 := New(snapshotReload(t, st), Config{})
	if n, err := r2.Restore(bytes.NewReader(buf.Bytes())); err != nil || n != 1 {
		t.Fatalf("Restore: %d err %v, want 1", n, err)
	}
	answer(t, r2, base.Clone(), StrategyCached, "restored base")
	answer(t, r2, d.Clone(), StrategyDice, "dice after restore")
}

// TestEvictAnsOnlyBeforeBases: under a budget that holds the base and
// little more, registered rewrite results go first — in LRU order and in
// benefit-per-byte order alike — even when the base is the least
// recently used entry.
func TestEvictAnsOnlyBeforeBases(t *testing.T) {
	base := query(t, agg.Sum)
	for _, cfg := range []Config{{}, {AdmissionCost: true, Workload: fakeWorkload{Fingerprint(base): 1 << 20}}} {
		r := New(instance(26, 80), cfg)
		answer(t, r, base, StrategyDirect, "base")
		baseBytes := r.Bytes()
		diced := make([]*core.Query, 0, 4)
		for _, v := range []int64{0, 1, 2, 3} {
			d := dice(t, base, v)
			answer(t, r, d, StrategyDice, "first")
			answer(t, r, d.Clone(), StrategyDice, "second")
			diced = append(diced, d)
		}
		for _, d := range diced { // the base becomes least recently used
			answer(t, r, d.Clone(), StrategyCached, "warm")
		}
		if got := r.Entries(); got != 5 {
			t.Fatalf("cost=%v: Entries = %d, want 5", cfg.AdmissionCost, got)
		}
		r.SetLimits(0, baseBytes+1)
		s := r.Stats()
		if s.Entries != 1 || s.Evictions != 4 {
			t.Fatalf("cost=%v: stats %+v, want the base alone after 4 evictions", cfg.AdmissionCost, s)
		}
		answer(t, r, base.Clone(), StrategyCached, "base survives")
	}
}

// TestReleaseDoesNotSpendNotifyBatch: with more registered rewrite
// results than one NotifyWrite maintains, all more recently used than
// the base, the write itself still maintains the base.
func TestReleaseDoesNotSpendNotifyBatch(t *testing.T) {
	st := instance(27, 60)
	r := New(st, Config{})
	base := query(t, agg.Sum)
	answer(t, r, base, StrategyDirect, "base")
	var derived []*core.Query
	for a := 0; len(derived) <= notifyBatch; a++ {
		var d0 []int64
		for v := int64(0); v < 6; v++ {
			if (a+1)&(1<<v) != 0 {
				d0 = append(d0, v)
			}
		}
		for d1 := int64(0); d1 < 5 && len(derived) <= notifyBatch; d1++ {
			q, err := core.Dice(dice(t, base, d0...), map[string][]rdf.Term{"d1": {rdf.NewInt(d1)}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, s, err := r.Answer(q.Clone()); err != nil || s != StrategyDice {
					t.Fatalf("derive %d: strategy %v err %v", len(derived), s, err)
				}
			}
			derived = append(derived, q)
		}
	}
	for _, q := range derived { // every result ahead of the base in LRU order
		if _, s, err := r.Answer(q.Clone()); err != nil || s != StrategyCached {
			t.Fatalf("warm: strategy %v err %v", s, err)
		}
	}
	before := r.Stats()
	if before.Entries != len(derived)+1 {
		t.Fatalf("Entries = %d, want %d", before.Entries, len(derived)+1)
	}
	newFact(st, 1, 1, 500)
	r.NotifyWrite()
	after := r.Stats()
	if after.Maintained != before.Maintained+1 {
		t.Fatalf("Maintained %d → %d: the write did not maintain the base", before.Maintained, after.Maintained)
	}
	if after.Released != int64(len(derived)) || after.Invalidations != 0 || after.Entries != 1 {
		t.Fatalf("stats %+v: want %d released, 0 invalidated, 1 entry", after, len(derived))
	}
	answer(t, r, base.Clone(), StrategyCached, "maintained base")
}

// TestConcurrentAskersShareImmutableCube: concurrent clients asking the
// same queries get shared cubes (coalesced, cached or registered) and
// read and copy them while others register and serve them; run with
// -race.
func TestConcurrentAskersShareImmutableCube(t *testing.T) {
	r := New(instance(28, 120), Config{})
	base := query(t, agg.Sum)
	out, err := core.DrillOut(base, "d1")
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.DrillIn(base, "d2")
	if err != nil {
		t.Fatal(err)
	}
	qs := []*core.Query{base, dice(t, base, 0, 3), out, in}
	want := make([]*algebra.Relation, len(qs))
	for i, q := range qs {
		if want[i], err = r.Evaluator().Answer(q); err != nil {
			t.Fatal(err)
		}
	}
	const clients, rounds = 8, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*len(qs); i++ {
				k := i % len(qs)
				cube, _, err := r.Answer(qs[k].Clone())
				if err != nil {
					t.Error(err)
					return
				}
				if !algebra.Equal(want[k], cube) {
					t.Errorf("query %d: cube differs from direct evaluation", k)
					return
				}
				sorted := cube.Clone()
				sorted.Sort()
			}
		}()
	}
	wg.Wait()
	if s := r.Stats(); s.ByStrategy[StrategyDirect] != 1 {
		t.Fatalf("direct evaluations = %d, want 1", s.ByStrategy[StrategyDirect])
	}
}

// TestPublishedCubesAreSorted: every cube the registry evaluates or
// derives — direct, σ_dice, Algorithm 1 or 2, and its cached repeats —
// is published in CompareRows order, so /query renders a hit without a
// sort. A maintained view is the exception: incr indexes its rows by
// cell, so neither a write notification nor lookup-time maintenance
// (whose scan hands the entry's own ans back as cached) may reorder
// them, and the view still equals fresh evaluation write after write.
func TestPublishedCubesAreSorted(t *testing.T) {
	st := instance(29, 120)
	r := New(st, Config{})
	base := query(t, agg.Sum)
	if g, err := r.Evaluator().Answer(base); err != nil {
		t.Fatal(err)
	} else if slices.IsSortedFunc(g.Rows, algebra.CompareRows) {
		t.Fatal("γ's first-seen order is already sorted; the test would not see a missing sort")
	}
	out, err := core.DrillOut(base, "d1")
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.DrillIn(base, "d2")
	if err != nil {
		t.Fatal(err)
	}
	d := dice(t, base, 0, 3)
	steps := []struct {
		q    *core.Query
		want Strategy
	}{
		{base, StrategyDirect}, {base, StrategyCached},
		{d, StrategyDice}, {d, StrategyDice}, {d, StrategyCached},
		{out, StrategyDrillOut}, {out, StrategyDrillOut}, {out, StrategyCached},
		{in, StrategyDrillIn}, {in, StrategyDrillIn}, {in, StrategyCached},
	}
	for i, s := range steps {
		label := fmt.Sprintf("step %d (%s)", i, s.want)
		cube := answer(t, r, s.q.Clone(), s.want, label)
		if !slices.IsSortedFunc(cube.Rows, algebra.CompareRows) {
			t.Fatalf("%s: published cube is not sorted", label)
		}
	}

	for round := 0; round < 4; round++ {
		// Existing cells change (dim0 0–3 on hub1) and new ones appear.
		newFact(r.Instance(), 200+round, int64(round), int64(10+round))
		newFact(r.Instance(), 300+round, int64(7+round), 1)
		if round%2 == 0 {
			r.NotifyWrite()
		}
		label := fmt.Sprintf("round %d", round)
		answer(t, r, base.Clone(), StrategyCached, label+" maintained base")
		answer(t, r, d.Clone(), StrategyDice, label+" dice of the maintained base")
	}
	if s := r.Stats(); s.ByStrategy[StrategyDirect] != 1 || s.Maintained == 0 {
		t.Fatalf("stats %+v: want 1 direct evaluation and maintained views", s)
	}
}
