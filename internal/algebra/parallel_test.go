package algebra

// The parallel γ, δ and ⋈ must be identical to their sequential form —
// rows, order and bit-exact float accumulation.

import (
	"math/rand"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/dict"
)

func randomGroupRelation(rng *rand.Rand, rows, groups int) *Relation {
	r := NewRelation("d0", "d1", "m")
	for i := 0; i < rows; i++ {
		g := rng.Intn(groups)
		r.Append(Row{
			TermV(dict.ID(1 + g%7)),
			TermV(dict.ID(1 + g/7)),
			NumV(rng.Float64() * 100),
		})
	}
	return r
}

func rowsEqualBits(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !valueEqualBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

func relIdentical(a, b *Relation) bool {
	if len(a.Cols) != len(b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	for i := range a.Rows {
		if !rowsEqualBits(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	return true
}

func TestGroupAggregateParallelMatchesSequential(t *testing.T) {
	defer func() { GroupWorkers = 0 }()
	rng := rand.New(rand.NewSource(3))
	for _, name := range []string{"count", "sum", "avg", "min", "max", "countdistinct"} {
		f, err := agg.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{100, 5000, 40000} {
			r := randomGroupRelation(rng, rows, 40)
			if name == "countdistinct" {
				// Distinct terms, not numbers: every NumV counts as one value.
				for _, row := range r.Rows {
					row[2] = TermV(dict.ID(1 + rng.Intn(50)))
				}
			}
			GroupWorkers = 1
			seq := r.GroupAggregate([]string{"d0", "d1"}, "m", "v", f, nil)
			GroupWorkers = 4
			par := r.GroupAggregate([]string{"d0", "d1"}, "m", "v", f, nil)
			if !relIdentical(seq, par) {
				t.Fatalf("agg=%s rows=%d: parallel grouping diverged (%d vs %d groups)",
					name, rows, seq.Len(), par.Len())
			}
			GroupWorkers = 0
			auto := r.GroupAggregate([]string{"d0", "d1"}, "m", "v", f, nil)
			if !relIdentical(seq, auto) {
				t.Fatalf("agg=%s rows=%d: auto-parallel grouping diverged", name, rows)
			}
		}
	}
}

func TestDedupParallelMatchesSequential(t *testing.T) {
	defer func() { GroupWorkers = 0 }()
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ rows, domain int }{
		{100, 5},     // tiny, heavy duplication
		{5000, 20},   // forced-parallel midsize
		{40000, 500}, // exceeds the auto threshold
	} {
		r := NewRelation("a", "b", "c")
		for i := 0; i < tc.rows; i++ {
			r.Append(Row{
				TermV(dict.ID(1 + rng.Intn(tc.domain))),
				TermV(dict.ID(1 + rng.Intn(tc.domain))),
				NumV(float64(rng.Intn(3))),
			})
		}
		GroupWorkers = 1
		seq := r.Dedup()
		GroupWorkers = 4
		par := r.Dedup()
		if !relIdentical(seq, par) {
			t.Fatalf("rows=%d: parallel dedup diverged (%d vs %d rows)", tc.rows, seq.Len(), par.Len())
		}
		GroupWorkers = 0
		auto := r.Dedup()
		if !relIdentical(seq, auto) {
			t.Fatalf("rows=%d: auto-parallel dedup diverged", tc.rows)
		}
	}
}

func TestJoinParallelMatchesSequential(t *testing.T) {
	defer func() { GroupWorkers = 0 }()
	rng := rand.New(rand.NewSource(34))
	for _, rows := range []int{200, 5000, 40000} {
		left := NewRelation("a", "k")
		right := NewRelation("k", "b")
		for i := 0; i < rows; i++ {
			left.Append(Row{TermV(dict.ID(1 + rng.Intn(50))), TermV(dict.ID(1 + rng.Intn(64)))})
		}
		for i := 0; i < 300; i++ {
			right.Append(Row{TermV(dict.ID(1 + rng.Intn(64))), TermV(dict.ID(1 + rng.Intn(50)))})
		}
		GroupWorkers = 1
		seq, err := left.Join(right, []string{"k"}, []string{"k"})
		if err != nil {
			t.Fatal(err)
		}
		GroupWorkers = 4
		par, err := left.Join(right, []string{"k"}, []string{"k"})
		if err != nil {
			t.Fatal(err)
		}
		if !relIdentical(seq, par) {
			t.Fatalf("rows=%d: parallel join diverged (%d vs %d rows)", rows, seq.Len(), par.Len())
		}
		GroupWorkers = 0
		auto, err := left.Join(right, []string{"k"}, []string{"k"})
		if err != nil {
			t.Fatal(err)
		}
		if !relIdentical(seq, auto) {
			t.Fatalf("rows=%d: auto-parallel join diverged", rows)
		}
	}
}
