package algebra

import (
	"math/rand"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/dict"
)

// TestCubeAddAcrossGrowth feeds a cube one row at a time, as incremental
// maintenance does, through many doublings of its slot array, and checks
// after every row that each key still finds its own cell.
func TestCubeAddAcrossGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewCube([]int{0, 1}, 2, agg.Sum, nil)
	initial := len(c.slots)
	cellOf := map[[2]dict.ID]int{}
	sums := map[[2]dict.ID]float64{}
	var order [][2]dict.ID
	for i := 0; i < 3000; i++ {
		// Half the rows repeat a key seen before.
		k := [2]dict.ID{dict.ID(1 + rng.Intn(40)), dict.ID(1 + rng.Intn(40))}
		if len(order) > 0 && rng.Intn(2) == 0 {
			k = order[rng.Intn(len(order))]
		}
		v := float64(rng.Intn(100))
		got := c.Add(Row{TermV(k[0]), TermV(k[1]), NumV(v)})
		want, seen := cellOf[k]
		if !seen {
			want = len(order)
			cellOf[k] = want
			order = append(order, k)
		}
		if got != want {
			t.Fatalf("row %d: key %v went to cell %d, want %d", i, k, got, want)
		}
		sums[k] += v
		if c.Len() != len(order) {
			t.Fatalf("row %d: %d cells, want %d", i, c.Len(), len(order))
		}
		if 2*c.Len() > len(c.slots) {
			t.Fatalf("row %d: %d cells in %d slots, over half load", i, c.Len(), len(c.slots))
		}
	}
	growths := 0
	for n := initial; n < len(c.slots); n *= 2 {
		growths++
	}
	if growths < 5 {
		t.Fatalf("only %d growth steps; the test must cross at least 5", growths)
	}
	for j, k := range order {
		row, ok := c.Row(j)
		if !ok || row[0] != TermV(k[0]) || row[1] != TermV(k[1]) || row[2].Num != sums[k] {
			t.Fatalf("cell %d = %v, want %v sum %g", j, row, k, sums[k])
		}
	}
}

// TestCubeResolvesEachTermOnce checks the numeric memo: a term is
// resolved once per cube, and every row gets its own term's number.
func TestCubeResolvesEachTermOnce(t *testing.T) {
	calls := map[dict.ID]int{}
	resolve := func(id dict.ID) (float64, bool) {
		calls[id]++
		return float64(id) * 10, id != 3
	}
	r := NewRelation("g", "v")
	for i := 0; i < 60; i++ {
		r.Append(Row{TermV(dict.ID(1 + i%4)), TermV(dict.ID(1 + i%5))})
	}
	got := r.GroupAggregate([]string{"g"}, "v", "v", agg.Sum, resolve)
	want := map[dict.ID]float64{}
	for _, row := range r.Rows {
		if id := row[1].ID; id != 3 {
			want[row[0].ID] += float64(id) * 10
		}
	}
	for _, row := range got.Rows {
		if row[1].Num != want[row[0].ID] {
			t.Fatalf("group %d: sum %g, want %g", row[0].ID, row[1].Num, want[row[0].ID])
		}
	}
	for id, n := range calls {
		if n != 1 {
			t.Fatalf("term %d resolved %d times", id, n)
		}
	}
}

// TestEmittedRowsIndependent: rows emitted by ⋈ and π share cell blocks,
// so each must be capped at its own width — an append to one row must
// reallocate, never write into its neighbour.
func TestEmittedRowsIndependent(t *testing.T) {
	defer func() { GroupWorkers = 0 }()
	rng := rand.New(rand.NewSource(9))
	left, right := NewRelation("x", "a"), NewRelation("x", "b")
	for i := 0; i < 3000; i++ {
		left.Append(Row{TermV(dict.ID(1 + rng.Intn(500))), TermV(dict.ID(rng.Intn(9)))})
		right.Append(Row{TermV(dict.ID(1 + rng.Intn(500))), NumV(float64(i))})
	}
	for _, workers := range []int{1, 4} {
		GroupWorkers = workers
		joined, err := left.Join(right, []string{"x"}, []string{"x"})
		if err != nil {
			t.Fatal(err)
		}
		for name, rel := range map[string]*Relation{"join": joined, "project": joined.Project("b", "x")} {
			if len(rel.Rows) < len(left.Rows) {
				t.Fatalf("%s: only %d rows", name, len(rel.Rows))
			}
			for i, row := range rel.Rows {
				if cap(row) != len(row) || len(row) != len(rel.Cols) {
					t.Fatalf("workers %d %s row %d: len %d cap %d, want both %d", workers, name, i, len(row), cap(row), len(rel.Cols))
				}
			}
			if len(rel.Rows) > 1 {
				next := rel.Rows[1][0]
				_ = append(rel.Rows[0], KeyV(1))
				if rel.Rows[1][0] != next {
					t.Fatalf("workers %d %s: append to row 0 wrote into row 1", workers, name)
				}
			}
		}
	}
}
