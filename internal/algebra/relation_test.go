package algebra

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rdfcube/internal/agg"
	"rdfcube/internal/dict"
)

func rel(cols []string, rows ...Row) *Relation {
	r := NewRelation(cols...)
	for _, row := range rows {
		r.Append(row)
	}
	return r
}

func TestValueConstructorsAndString(t *testing.T) {
	if TermV(3).Kind != TermValue || TermV(3).ID != 3 {
		t.Error("TermV wrong")
	}
	if NumV(2.5).Kind != NumValue || NumV(2.5).Num != 2.5 {
		t.Error("NumV wrong")
	}
	if KeyV(7).Kind != KeyValue || KeyV(7).Key != 7 {
		t.Error("KeyV wrong")
	}
	if TermV(3).String() != "t3" || KeyV(7).String() != "k7" {
		t.Error("String forms wrong")
	}
	if NumV(3).String() != "3" || NumV(2.5).String() != "2.5" {
		t.Errorf("numeric String: %q, %q", NumV(3).String(), NumV(2.5).String())
	}
}

func TestAppendWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append with wrong width must panic")
		}
	}()
	NewRelation("a", "b").Append(Row{TermV(1)})
}

func TestColumnLookup(t *testing.T) {
	r := NewRelation("a", "b")
	if r.Column("b") != 1 || r.Column("z") != -1 {
		t.Error("Column lookup wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustColumn on missing column must panic")
		}
	}()
	r.MustColumn("z")
}

func TestSelect(t *testing.T) {
	r := rel([]string{"a", "v"},
		Row{TermV(1), NumV(10)},
		Row{TermV(2), NumV(20)},
		Row{TermV(1), NumV(30)},
	)
	got := r.Select(func(row Row) bool { return row[0].ID == 1 })
	if got.Len() != 2 {
		t.Fatalf("Select kept %d rows, want 2", got.Len())
	}
	if r.Len() != 3 {
		t.Error("Select mutated the input")
	}
}

func TestProjectBagSemantics(t *testing.T) {
	r := rel([]string{"a", "b", "v"},
		Row{TermV(1), TermV(9), NumV(10)},
		Row{TermV(1), TermV(8), NumV(10)},
	)
	got := r.Project("a", "v")
	// Bag π keeps both (now identical) rows.
	if got.Len() != 2 {
		t.Fatalf("bag projection kept %d rows, want 2", got.Len())
	}
	if len(got.Cols) != 2 || got.Cols[0] != "a" || got.Cols[1] != "v" {
		t.Errorf("projected cols = %v", got.Cols)
	}
}

// TestProjectIdentitySharesRows: π onto a relation's own column order
// copies no cell, yet reordering its row list leaves the input alone.
func TestProjectIdentitySharesRows(t *testing.T) {
	r := rel([]string{"a", "b"}, Row{TermV(2), NumV(1)}, Row{TermV(1), NumV(2)})
	p := r.Project("a", "b")
	if &p.Rows[0][0] != &r.Rows[0][0] || &p.Rows[1][0] != &r.Rows[1][0] {
		t.Fatal("identity projection copied its rows")
	}
	p.Sort()
	if r.Rows[0][0] != TermV(2) || p.Rows[0][0] != TermV(1) {
		t.Fatal("sorting the projection reordered its input")
	}
}

func TestDedup(t *testing.T) {
	r := rel([]string{"a", "v"},
		Row{TermV(1), NumV(10)},
		Row{TermV(1), NumV(10)},
		Row{TermV(1), NumV(20)},
	)
	got := r.Dedup()
	if got.Len() != 2 {
		t.Fatalf("Dedup kept %d rows, want 2", got.Len())
	}
	// δ is idempotent.
	if got.Dedup().Len() != 2 {
		t.Error("Dedup not idempotent")
	}
}

func TestDedupDistinguishesValueKinds(t *testing.T) {
	// TermV(1), NumV(1) and KeyV(1) are three distinct values.
	r := rel([]string{"x"},
		Row{TermV(1)},
		Row{NumV(1)},
		Row{KeyV(1)},
	)
	if got := r.Dedup().Len(); got != 3 {
		t.Fatalf("Dedup collapsed distinct kinds: %d rows, want 3", got)
	}
}

func TestGroupAggregateCount(t *testing.T) {
	r := rel([]string{"d", "v"},
		Row{TermV(1), TermV(100)},
		Row{TermV(1), TermV(101)},
		Row{TermV(2), TermV(102)},
	)
	got := r.GroupAggregate([]string{"d"}, "v", "v", agg.Count, nil)
	if got.Len() != 2 {
		t.Fatalf("groups = %d, want 2", got.Len())
	}
	got.Sort()
	if got.Rows[0][1].Num != 2 || got.Rows[1][1].Num != 1 {
		t.Errorf("counts = %v", got.Rows)
	}
}

func TestGroupAggregateSumWithResolver(t *testing.T) {
	// Term IDs resolve to numbers through the resolver.
	resolve := func(id dict.ID) (float64, bool) { return float64(id) * 10, true }
	r := rel([]string{"d", "v"},
		Row{TermV(1), TermV(3)},
		Row{TermV(1), TermV(4)},
	)
	got := r.GroupAggregate([]string{"d"}, "v", "v", agg.Sum, resolve)
	if got.Len() != 1 || got.Rows[0][1].Num != 70 {
		t.Errorf("sum = %v", got.Rows)
	}
}

func TestGroupAggregateDropsEmptyResult(t *testing.T) {
	// sum over non-numeric terms: accumulator never fires, group dropped.
	r := rel([]string{"d", "v"},
		Row{TermV(1), TermV(3)},
	)
	got := r.GroupAggregate([]string{"d"}, "v", "v", agg.Sum, func(dict.ID) (float64, bool) { return 0, false })
	if got.Len() != 0 {
		t.Errorf("group with empty aggregate survived: %v", got.Rows)
	}
}

func TestGroupAggregateNumInput(t *testing.T) {
	r := rel([]string{"d", "v"},
		Row{TermV(1), NumV(2)},
		Row{TermV(1), NumV(4)},
	)
	got := r.GroupAggregate([]string{"d"}, "v", "v", agg.Avg, nil)
	if got.Len() != 1 || got.Rows[0][1].Num != 3 {
		t.Errorf("avg over NumValues = %v", got.Rows)
	}
}

func TestJoin(t *testing.T) {
	left := rel([]string{"x", "d"},
		Row{TermV(1), TermV(10)},
		Row{TermV(2), TermV(20)},
	)
	right := rel([]string{"x", "v"},
		Row{TermV(1), NumV(0.5)},
		Row{TermV(1), NumV(1.5)},
		Row{TermV(3), NumV(9)},
	)
	got, err := left.Join(right, []string{"x"}, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("join produced %d rows, want 2", got.Len())
	}
	if len(got.Cols) != 3 {
		t.Errorf("join cols = %v", got.Cols)
	}
}

func TestJoinBagMultiplicity(t *testing.T) {
	left := rel([]string{"x"}, Row{TermV(1)}, Row{TermV(1)})
	right := rel([]string{"x", "v"}, Row{TermV(1), NumV(1)}, Row{TermV(1), NumV(2)})
	got, err := left.Join(right, []string{"x"}, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	// 2 left dups × 2 right matches = 4 (bag semantics).
	if got.Len() != 4 {
		t.Fatalf("bag join = %d rows, want 4", got.Len())
	}
}

func TestJoinErrors(t *testing.T) {
	a := rel([]string{"x", "y"}, Row{TermV(1), TermV(2)})
	b := rel([]string{"x", "y"}, Row{TermV(1), TermV(3)})
	if _, err := a.Join(b, []string{"x"}, []string{"x", "y"}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := a.Join(b, []string{"zz"}, []string{"x"}); err == nil {
		t.Error("missing left column accepted")
	}
	if _, err := a.Join(b, []string{"x"}, []string{"zz"}); err == nil {
		t.Error("missing right column accepted")
	}
	// Non-join duplicate column name.
	if _, err := a.Join(b, []string{"x"}, []string{"x"}); err == nil {
		t.Error("duplicate non-join column accepted")
	}
}

func TestEqualBagSemantics(t *testing.T) {
	a := rel([]string{"x"}, Row{TermV(1)}, Row{TermV(1)}, Row{TermV(2)})
	b := rel([]string{"x"}, Row{TermV(2)}, Row{TermV(1)}, Row{TermV(1)})
	c := rel([]string{"x"}, Row{TermV(1)}, Row{TermV(2)}, Row{TermV(2)})
	if !Equal(a, b) {
		t.Error("order-insensitive bags reported unequal")
	}
	if Equal(a, c) {
		t.Error("different multiplicities reported equal")
	}
	d := rel([]string{"y"}, Row{TermV(1)}, Row{TermV(1)}, Row{TermV(2)})
	if Equal(a, d) {
		t.Error("different schemas reported equal")
	}
	// Floats compare by bits, and long runs of one row count exactly.
	nan, negZero := Row{TermV(1), NumV(math.NaN())}, Row{TermV(1), NumV(math.Copysign(0, -1))}
	cols := []string{"x", "v"}
	if Equal(rel(cols, nan, nan, negZero), rel(cols, nan, negZero, negZero)) {
		t.Error("{a,a,b} and {a,b,b} reported equal")
	}
	if Equal(rel(cols, negZero), rel(cols, Row{TermV(1), NumV(0)})) {
		t.Error("-0 and +0 reported equal")
	}
	var many, other []Row
	for i := 0; i < 500; i++ {
		many, other = append(many, nan), append(other, nan)
	}
	many[250], other[499] = negZero, negZero
	if !Equal(rel(cols, many...), rel(cols, other...)) {
		t.Error("long equal bags reported unequal")
	}
	other[0] = negZero
	if Equal(rel(cols, many...), rel(cols, other...)) {
		t.Error("499×a+1×b and 498×a+2×b reported equal")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := rel([]string{"x"}, Row{TermV(1)})
	b := a.Clone()
	b.Rows[0][0] = TermV(99)
	if a.Rows[0][0].ID != 1 {
		t.Error("Clone shares row storage")
	}
}

func TestSortDeterministic(t *testing.T) {
	r := rel([]string{"x", "v"},
		Row{TermV(2), NumV(1)},
		Row{TermV(1), NumV(5)},
		Row{TermV(1), NumV(2)},
	)
	r.Sort()
	if r.Rows[0][0].ID != 1 || r.Rows[0][1].Num != 2 || r.Rows[2][0].ID != 2 {
		t.Errorf("Sort order = %v", r.Rows)
	}
}

// Property: δ(π(r)) has no duplicates, and group-count over the deduped
// relation equals the number of distinct rows.
func TestPropertyDedupCounts(t *testing.T) {
	f := func(ids []uint8) bool {
		r := NewRelation("a")
		for _, id := range ids {
			r.Append(Row{TermV(dict.ID(id % 8))})
		}
		d := r.Dedup()
		seen := map[dict.ID]bool{}
		for _, row := range d.Rows {
			if seen[row[0].ID] {
				return false
			}
			seen[row[0].ID] = true
		}
		return d.Len() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: join with itself on all columns yields at least the original
// distinct rows, and bag join sizes follow multiplicity products.
func TestPropertyJoinMultiplicity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		r := NewRelation("x")
		counts := map[dict.ID]int{}
		for i := 0; i < rng.Intn(30); i++ {
			id := dict.ID(rng.Intn(5) + 1)
			counts[id]++
			r.Append(Row{TermV(id)})
		}
		j, err := r.Join(r, []string{"x"}, []string{"x"})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, c := range counts {
			want += c * c
		}
		if j.Len() != want {
			t.Fatalf("trial %d: self-join size %d, want %d", trial, j.Len(), want)
		}
	}
}

// Property: GroupAggregate with Count equals per-group multiplicities.
func TestPropertyGroupCount(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		r := NewRelation("g", "v")
		counts := map[dict.ID]int{}
		for i := 0; i < 1+rng.Intn(40); i++ {
			g := dict.ID(rng.Intn(4) + 1)
			counts[g]++
			r.Append(Row{TermV(g), TermV(dict.ID(rng.Intn(100) + 1))})
		}
		out := r.GroupAggregate([]string{"g"}, "v", "n", agg.Count, nil)
		if out.Len() != len(counts) {
			t.Fatalf("trial %d: %d groups, want %d", trial, out.Len(), len(counts))
		}
		for _, row := range out.Rows {
			if int(row[1].Num) != counts[row[0].ID] {
				t.Fatalf("trial %d: group %d count %g, want %d", trial, row[0].ID, row[1].Num, counts[row[0].ID])
			}
		}
	}
}

func BenchmarkGroupAggregate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := NewRelation("g", "v")
	for i := 0; i < 100000; i++ {
		r.Append(Row{TermV(dict.ID(rng.Intn(1000) + 1)), NumV(rng.Float64())})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.GroupAggregate([]string{"g"}, "v", "v", agg.Sum, nil)
	}
}

func BenchmarkHashJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	left := NewRelation("x", "d")
	right := NewRelation("x", "v")
	for i := 0; i < 50000; i++ {
		left.Append(Row{TermV(dict.ID(rng.Intn(10000) + 1)), TermV(dict.ID(rng.Intn(50) + 1))})
		right.Append(Row{TermV(dict.ID(rng.Intn(10000) + 1)), NumV(rng.Float64())})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := left.Join(right, []string{"x"}, []string{"x"}); err != nil {
			b.Fatal(err)
		}
	}
}
