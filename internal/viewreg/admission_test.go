package viewreg

// Decision-table tests for cost-based admission and benefit-per-byte
// eviction (Config.AdmissionCost): the registry admits a directly
// evaluated view only when measured evaluation cost × expected reuse
// (the workload profiler's observed call count for the shape) meets
// the byte footprint, and evicts by lowest costNs×(hits+1)/bytes
// instead of raw LRU.

import (
	"testing"

	"rdfcube/internal/agg"
)

// fakeWorkload is a canned WorkloadStats.
type fakeWorkload map[uint64]int64

func (f fakeWorkload) ShapeCost(fp uint64) (calls, totalWallNs int64, ok bool) {
	c, ok := f[fp]
	return c, c * 1000, ok
}

// TestAdmissionDecisionTable drives admitLocked through the decision
// matrix with controlled numbers.
func TestAdmissionDecisionTable(t *testing.T) {
	const fp = uint64(42)
	cases := []struct {
		name      string
		calls     int64 // prior observed calls; -1 = shape unseen
		evalNs    int64
		bytes     int64
		threshold float64
		admit     bool
	}{
		{"never-seen shape refused however cheap", -1, 1 << 40, 100, 1, false},
		{"first call sees reuse 0 and is refused", 0, 1 << 40, 100, 1, false},
		{"repeated cheap view admitted", 1, 100_000, 10_240, 1, true},
		{"one-off expensive view refused", 1, 10_000_000, 50 << 20, 1, false},
		{"heavy reuse rescues a big view", 100, 10_000_000, 50 << 20, 1, true},
		{"threshold doubles the price: break-even refused", 1, 10_240, 10_240, 2, false},
		{"threshold doubles the price: 2x cost admitted", 1, 20_480, 10_240, 2, true},
		{"exact break-even admitted at default price", 1, 10_240, 10_240, 0, true},
	}
	for _, c := range cases {
		wl := fakeWorkload{}
		if c.calls >= 0 {
			wl[fp] = c.calls
		}
		r := New(instance(1, 10), Config{
			AdmissionCost:      true,
			Workload:           wl,
			AdmissionThreshold: c.threshold,
		})
		e := &entry{bytes: c.bytes}
		r.mu.Lock()
		got := r.admitLocked(fp, e, c.evalNs)
		r.mu.Unlock()
		if got != c.admit {
			t.Errorf("%s: admit = %v, want %v", c.name, got, c.admit)
		}
		st := r.Stats()
		if c.admit && (st.Admitted != 1 || st.Refused != 0) {
			t.Errorf("%s: stats = %d/%d, want 1 admitted", c.name, st.Admitted, st.Refused)
		}
		if !c.admit && (st.Admitted != 0 || st.Refused != 1) {
			t.Errorf("%s: stats = %d/%d, want 1 refused", c.name, st.Admitted, st.Refused)
		}
	}
}

// TestAdmissionAlwaysMode: without AdmissionCost every view registers
// and no decision is counted.
func TestAdmissionAlwaysMode(t *testing.T) {
	r := New(instance(2, 50), Config{})
	q := query(t, agg.Count)
	if _, strat, err := r.Answer(q); err != nil || strat != StrategyCached && strat != StrategyDirect {
		t.Fatalf("answer: %v %v", strat, err)
	}
	if r.Entries() != 1 {
		t.Fatalf("entries = %d, want 1 (admit-always)", r.Entries())
	}
	st := r.Stats()
	if st.Admitted != 0 || st.Refused != 0 {
		t.Fatalf("admit-always counted decisions: %+v", st)
	}
}

// TestCostAdmissionEndToEnd: against a real instance, a shape the
// workload profiler has seen repeatedly is admitted on evaluation
// (and answers "cached" afterwards), while a shape the profiler never
// saw — the one-off — is refused and stays on direct evaluation.
func TestCostAdmissionEndToEnd(t *testing.T) {
	st := instance(3, 120)
	hot := query(t, agg.Count) // the repeatedly-hit cheap shape
	oneOff := query(t, agg.Sum)

	wl := fakeWorkload{Fingerprint(hot): 1_000_000} // heavy observed reuse
	r := New(st, Config{AdmissionCost: true, Workload: wl})

	cube, strat, err := r.Answer(hot)
	if err != nil || strat != StrategyDirect {
		t.Fatalf("first hot answer: %v %v", strat, err)
	}
	checkAgainstDirect(t, r, hot, cube, "hot")
	if r.Entries() != 1 {
		t.Fatalf("hot shape not admitted: entries = %d", r.Entries())
	}
	if _, strat, _ = r.Answer(hot); strat != StrategyCached {
		t.Fatalf("second hot answer strategy = %v, want cached", strat)
	}

	for i := 0; i < 3; i++ {
		cube, strat, err = r.Answer(oneOff)
		if err != nil || strat != StrategyDirect {
			t.Fatalf("one-off answer %d: %v %v (must stay direct, never cached)", i, strat, err)
		}
	}
	checkAgainstDirect(t, r, oneOff, cube, "one-off")
	if r.Entries() != 1 {
		t.Fatalf("one-off shape admitted: entries = %d", r.Entries())
	}
	s := r.Stats()
	if s.Admitted != 1 || s.Refused != 3 {
		t.Fatalf("admission stats = %d admitted / %d refused, want 1/3", s.Admitted, s.Refused)
	}
}

// TestCostEvictionBenefitPerByte: past the budget, cost mode evicts
// the lowest benefit-per-byte entry even when it is the most recently
// used, while admit-always mode keeps evicting strict LRU.
func TestCostEvictionBenefitPerByte(t *testing.T) {
	r := New(instance(4, 10), Config{AdmissionCost: true})
	add := func(id uint64, bytes, costNs, hits int64) *entry {
		e := &entry{fam: id, key: id, bytes: bytes, costNs: costNs, hits: hits}
		r.mu.Lock()
		r.insertLocked(e)
		r.mu.Unlock()
		return e
	}
	hot := add(1, 1_000, 1_000_000_000, 5) // expensive to rebuild, hot
	mid := add(2, 1_000, 1_000_000, 0)
	dud := add(3, 1<<20, 10, 0) // huge, trivially rebuilt, never hit — and MRU

	r.SetLimits(2, 0)
	if dud.elem != nil {
		t.Fatal("cost eviction kept the lowest benefit-per-byte entry")
	}
	if hot.elem == nil || mid.elem == nil {
		t.Fatal("cost eviction dropped a higher-benefit entry")
	}
	r.SetLimits(1, 0)
	if mid.elem != nil || hot.elem == nil {
		t.Fatal("second eviction did not keep the highest-benefit entry")
	}
	if got := r.Stats().Evictions; got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}

	// LRU mode: the same shape of registry without AdmissionCost evicts
	// the back of the list regardless of scores.
	lr := New(instance(4, 10), Config{})
	var es []*entry
	for id := uint64(1); id <= 3; id++ {
		e := &entry{fam: id, key: id, bytes: 100, costNs: 1 << 40, hits: 100}
		lr.mu.Lock()
		lr.insertLocked(e)
		lr.mu.Unlock()
		es = append(es, e)
	}
	lr.SetLimits(2, 0)
	if es[0].elem != nil || es[1].elem == nil || es[2].elem == nil {
		t.Fatal("LRU mode did not evict the oldest entry")
	}
}
