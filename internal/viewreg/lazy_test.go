package viewreg

// Lazy upgrade: registration stores the cheap plain form (answer + pres,
// no maintenance plumbing); the first write that finds the entry behind
// upgrades it to the maintained form and catches it up through the
// delta feed. Read-only workloads never pay the incremental-context
// build.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/obs"
)

func TestLazyUpgradeOnFirstWrite(t *testing.T) {
	st := instance(12, 60)
	r := New(st, Config{})
	q := query(t, agg.Sum)

	if _, s, err := r.Answer(q); err != nil || s != StrategyDirect {
		t.Fatalf("first answer: strategy %v err %v", s, err)
	}
	if got := r.Stats().LazyUpgrades; got != 0 {
		t.Fatalf("LazyUpgrades = %d after registration, want 0 (plain form)", got)
	}

	// Read-only reuse serves the plain entry without upgrading it.
	cube, s, err := r.Answer(q.Clone())
	if err != nil || s != StrategyCached {
		t.Fatalf("read-only reuse: strategy %v err %v", s, err)
	}
	checkAgainstDirect(t, r, q, cube, "plain cached")
	if got := r.Stats().LazyUpgrades; got != 0 {
		t.Fatalf("LazyUpgrades = %d after read-only reuse, want 0", got)
	}

	// First write: the triage finds the plain entry behind and the
	// freshen pass upgrades + maintains it.
	newFact(st, 900, 1, 42)
	r.NotifyWrite()
	stats := r.Stats()
	if stats.LazyUpgrades != 1 {
		t.Fatalf("LazyUpgrades = %d after first write, want 1", stats.LazyUpgrades)
	}
	if stats.Maintained != 1 {
		t.Fatalf("Maintained = %d after first write, want 1", stats.Maintained)
	}
	cube, s, err = r.Answer(q.Clone())
	if err != nil || s != StrategyCached {
		t.Fatalf("post-upgrade answer: strategy %v err %v", s, err)
	}
	checkAgainstDirect(t, r, q, cube, "upgraded view")

	// Further writes maintain the (now upgraded) view without another
	// upgrade.
	newFact(st, 901, 2, 7)
	r.NotifyWrite()
	stats = r.Stats()
	if stats.LazyUpgrades != 1 {
		t.Fatalf("LazyUpgrades = %d after second write, want 1 (upgrade happens once)", stats.LazyUpgrades)
	}
	if stats.Maintained != 2 {
		t.Fatalf("Maintained = %d after second write, want 2", stats.Maintained)
	}
	if stats.ByStrategy[StrategyDirect] != 1 {
		t.Fatalf("direct evaluations = %d, want exactly 1", stats.ByStrategy[StrategyDirect])
	}
}

// TestLazyUpgradeAfterRestore: plain entries survive a Save/Restore
// cycle in plain form, answer read-only queries from the snapshot, and
// still upgrade lazily at their first write.
func TestLazyUpgradeAfterRestore(t *testing.T) {
	inst := instance(13, 80)
	reg := New(inst, Config{})
	q := query(t, agg.Sum)
	want, _, err := reg.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	var views bytes.Buffer
	if _, err := reg.Save(&views); err != nil {
		t.Fatal(err)
	}

	recovered := snapshotReload(t, inst)
	reg2 := New(recovered, Config{})
	n, err := reg2.Restore(bytes.NewReader(views.Bytes()))
	if err != nil || n != 1 {
		t.Fatalf("restored %d views, err %v", n, err)
	}
	got, s, err := reg2.Answer(q.Clone())
	if err != nil || s != StrategyCached {
		t.Fatalf("warmed answer: strategy %v err %v", s, err)
	}
	if !algebra.Equal(want, got) {
		t.Fatal("warmed cube differs from pre-restart cube")
	}
	if reg2.Stats().LazyUpgrades != 0 {
		t.Fatal("restore alone must not upgrade plain entries")
	}

	newFact(recovered, 950, 3, 11)
	reg2.NotifyWrite()
	stats := reg2.Stats()
	if stats.LazyUpgrades != 1 || stats.Maintained != 1 {
		t.Fatalf("after post-restore write: LazyUpgrades=%d Maintained=%d, want 1/1", stats.LazyUpgrades, stats.Maintained)
	}
	cube, s, err := reg2.Answer(q.Clone())
	if err != nil || s != StrategyCached {
		t.Fatalf("post-restore post-write answer: strategy %v err %v", s, err)
	}
	checkAgainstDirect(t, reg2, q, cube, fmt.Sprintf("restored+upgraded view (n=%d)", n))
}

// TestMaintainSpanReportsDeltaWork: a traced write's viewreg.maintain
// span carries the work maintenance did — feed triples read, pres rows
// added, ans cells touched — so a trace shows it scales with the delta,
// not with the view.
func TestMaintainSpanReportsDeltaWork(t *testing.T) {
	st := instance(14, 60)
	r := New(st, Config{})
	q := query(t, agg.Sum)
	if _, _, err := r.Answer(q); err != nil {
		t.Fatal(err)
	}
	newFact(st, 900, 1, 42)
	r.NotifyWrite() // upgrades the entry and builds its accumulators

	n := newFact(st, 901, 2, 7) // one fact: one pres row, one cell
	var tracer obs.Tracer
	ctx, tr := tracer.Start(context.Background(), "/insert")
	r.NotifyWriteCtx(ctx)
	tracer.Finish(tr)
	var attrs map[string]string
	tr.Dump().Root.Walk(func(_ int, s *obs.SpanDump) {
		if s.Name == "viewreg.maintain" {
			attrs = s.Attrs
		}
	})
	want := map[string]string{
		"delta_triples":   fmt.Sprint(n),
		"pres_rows_added": "1",
		"cells_touched":   "1",
	}
	for k, v := range want {
		if attrs[k] != v {
			t.Errorf("viewreg.maintain %s = %q, want %q (attrs %v)", k, attrs[k], v, attrs)
		}
	}
	cube, _, err := r.Answer(q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstDirect(t, r, q, cube, "maintained view")
}
