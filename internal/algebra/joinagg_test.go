package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/dict"
)

// nestedLoopJoinAggregate is the reference for JoinAggregate: a plain
// nested-loop join of left and right on the columns on, fed in joined
// order to a Go-map group-by. It shares no hashing or Cube code with
// the package: keys are strings of kind and payload bits, so floats
// compare by bit pattern.
func nestedLoopJoinAggregate(left, right *Relation, on, group []string, v string, f agg.Func, resolve NumericResolver) *Relation {
	cellKey := func(x Value) string {
		switch x.Kind {
		case TermValue:
			return fmt.Sprintf("t%d|", x.ID)
		case NumValue:
			return fmt.Sprintf("n%x|", math.Float64bits(x.Num))
		default:
			return fmt.Sprintf("k%d|", x.Key)
		}
	}
	// A column of the joined row: left's, or right's when left has no
	// column of that name.
	pick := func(c string, l, r Row) Value {
		if i := left.Column(c); i >= 0 {
			return l[i]
		}
		return r[right.Column(c)]
	}
	type groupState struct {
		key Row
		acc agg.Accumulator
	}
	index := map[string]int{}
	var groups []groupState
	for _, l := range left.Rows {
		for _, r := range right.Rows {
			joins := true
			for _, c := range on {
				x, y := l[left.Column(c)], r[right.Column(c)]
				joins = joins && x.Kind == y.Kind && x.ID == y.ID && x.Key == y.Key &&
					math.Float64bits(x.Num) == math.Float64bits(y.Num)
			}
			if !joins {
				continue
			}
			var key Row
			s := ""
			for _, c := range group {
				x := pick(c, l, r)
				key = append(key, x)
				s += cellKey(x)
			}
			g, ok := index[s]
			if !ok {
				g = len(groups)
				index[s] = g
				groups = append(groups, groupState{key: key, acc: f.New()})
			}
			switch x := pick(v, l, r); x.Kind {
			case TermValue:
				n, numOK := 0.0, false
				if resolve != nil {
					n, numOK = resolve(x.ID)
				}
				groups[g].acc.Add(x.ID, n, numOK)
			case NumValue:
				groups[g].acc.Add(dict.NoID, x.Num, true)
			case KeyValue:
				groups[g].acc.Add(dict.ID(x.Key), float64(x.Key), true)
			}
		}
	}
	out := NewRelation(append(append([]string(nil), group...), v)...)
	for _, g := range groups {
		if res, ok := g.acc.Result(); ok {
			out.Append(append(append(Row(nil), g.key...), NumV(res)))
		}
	}
	return out
}

// joinAggCell draws a cell of one of the three kinds, floats among them
// NaN and both zeros.
func joinAggCell(rng *rand.Rand, domain int) Value {
	switch rng.Intn(6) {
	case 0:
		return NumV([]float64{math.NaN(), 0, math.Copysign(0, -1), 1.5, -2}[rng.Intn(5)])
	case 1:
		return KeyV(uint64(rng.Intn(domain)))
	default:
		return TermV(dict.ID(1 + rng.Intn(domain)))
	}
}

// joinAggRelations draws a left side (x, a, m) and a right side
// (b, x, y, n). The join key x takes few values on the right, so build
// chains run long, and values no right row has on the left, so some
// probe rows match nothing.
func joinAggRelations(rng *rand.Rand, nLeft, nRight int) (*Relation, *Relation) {
	left, right := NewRelation("x", "a", "m"), NewRelation("b", "x", "y", "n")
	for i := 0; i < nLeft; i++ {
		x := TermV(dict.ID(1 + rng.Intn(40)))
		if rng.Intn(5) == 0 {
			x = joinAggCell(rng, 40)
		}
		left.Append(Row{x, joinAggCell(rng, 6), NumV(rng.NormFloat64() * 1e3)})
	}
	for i := 0; i < nRight; i++ {
		x := TermV(dict.ID(1 + rng.Intn(25)))
		if rng.Intn(5) == 0 {
			x = joinAggCell(rng, 40)
		}
		right.Append(Row{joinAggCell(rng, 5), x, TermV(dict.ID(1 + rng.Intn(9))), NumV(rng.Float64())})
	}
	return left, right
}

// TestJoinAggregateMatchesNestedLoop checks the fused ⋈+γ against a
// nested-loop join feeding a map group-by, row for row and bit for bit,
// for all six aggregates, at one, two and four workers.
func TestJoinAggregateMatchesNestedLoop(t *testing.T) {
	defer func() { GroupWorkers = 0 }()
	// Even terms are numbers, odd ones are not.
	resolve := func(id dict.ID) (float64, bool) { return float64(id) / 3, id%2 == 0 }
	cases := []struct {
		name          string
		nLeft, nRight int
		group         []string
		v             string
	}{
		{"empty left", 0, 50, []string{"a", "y"}, "m"},
		{"empty right", 300, 0, []string{"a", "y"}, "m"},
		{"small mixed sides", 400, 120, []string{"y", "a", "b"}, "m"},
		{"right measure", 900, 80, []string{"b", "x"}, "n"},
		{"term measure", 900, 80, []string{"a", "x", "y"}, "y"},
		{"key and float keys", 700, 60, []string{"b", "a"}, "a"},
		{"wide", 2 * parallelGroupMinRows, 60, []string{"y", "a", "b"}, "m"},
	}
	rng := rand.New(rand.NewSource(38))
	for _, tc := range cases {
		left, right := joinAggRelations(rng, tc.nLeft, tc.nRight)
		for _, name := range []string{"count", "sum", "avg", "min", "max", "countdistinct"} {
			f, err := agg.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			want := nestedLoopJoinAggregate(left, right, []string{"x"}, tc.group, tc.v, f, resolve)
			if tc.nLeft > 0 && tc.nRight > 0 && want.Len() == 0 {
				t.Fatalf("%s: the reference found no groups", tc.name)
			}
			for _, workers := range []int{1, 2, 4} {
				GroupWorkers = workers
				got, err := left.JoinAggregate(right, []string{"x"}, tc.group, tc.v, f, resolve)
				if err != nil {
					t.Fatal(err)
				}
				if !relIdentical(got, want) {
					t.Fatalf("%s agg=%s workers=%d: %d rows, want %d; first difference at %d",
						tc.name, name, workers, got.Len(), want.Len(), firstDifference(got, want))
				}
			}
		}
	}
}

// firstDifference returns the first row index where a and b differ.
func firstDifference(a, b *Relation) int {
	for i := range a.Rows {
		if i >= len(b.Rows) || !rowsEqualBits(a.Rows[i], b.Rows[i]) {
			return i
		}
	}
	return len(a.Rows)
}

// TestJoinAggregateChains pins the shapes the random cases draw: chains
// of three and more build rows per key, probe rows without a match, and
// a group key that interleaves the two sides.
func TestJoinAggregateChains(t *testing.T) {
	left := rel([]string{"x", "a", "m"},
		Row{TermV(1), TermV(10), NumV(1)},
		Row{TermV(9), TermV(10), NumV(100)}, // no match
		Row{TermV(2), TermV(20), NumV(2)},
		Row{TermV(1), TermV(20), NumV(4)},
	)
	right := rel([]string{"y", "x"},
		Row{TermV(7), TermV(1)},
		Row{TermV(8), TermV(2)},
		Row{TermV(7), TermV(1)},
		Row{TermV(6), TermV(1)},
	)
	got, err := left.JoinAggregate(right, []string{"x"}, []string{"y", "a"}, "m", agg.Sum, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := rel([]string{"y", "a", "m"},
		Row{TermV(7), TermV(10), NumV(2)},
		Row{TermV(6), TermV(10), NumV(1)},
		Row{TermV(8), TermV(20), NumV(2)},
		Row{TermV(7), TermV(20), NumV(8)},
		Row{TermV(6), TermV(20), NumV(4)},
	)
	if !relIdentical(got, want) {
		t.Fatalf("got %v, want %v", got.Rows, want.Rows)
	}
	for _, bad := range [][]string{{"zz"}, {"y", "zz"}} {
		if _, err := left.JoinAggregate(right, []string{"x"}, bad, "m", agg.Sum, nil); err == nil {
			t.Errorf("group %v: absent column accepted", bad)
		}
	}
	if _, err := left.JoinAggregate(right, []string{"a"}, []string{"y"}, "m", agg.Sum, nil); err == nil {
		t.Error("join column absent on the right accepted")
	}
}

// TestJoinAggregateIDsMatchesNestedLoop checks the ⋈+γ on ID rows
// against the nested-loop reference over the same rows as Values, row
// for row and bit for bit: zero to three dimensions, roots of c that m
// lacks and roots of m that c lacks, m's roots in shuffled order so
// chains interleave, enough cells and roots to grow every table, and a
// resolver that rejects some terms.
func TestJoinAggregateIDsMatchesNestedLoop(t *testing.T) {
	funcs := []agg.Func{agg.Count, agg.Sum, agg.Avg, agg.Min, agg.Max, agg.CountDistinct}
	resolve := func(id dict.ID) (float64, bool) { return float64(id%7) * 0.1, id%5 != 0 }
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		f, w := funcs[trial%len(funcs)], trial%4
		roots := 1 + rng.Intn(300)
		var c, m [][]dict.ID
		for i := rng.Intn(400); i > 0; i-- {
			row := []dict.ID{dict.ID(1 + rng.Intn(roots))}
			for d := 0; d < w; d++ {
				row = append(row, dict.ID(1000+rng.Intn(6)))
			}
			c = append(c, row)
		}
		for i := rng.Intn(600); i > 0; i-- {
			m = append(m, []dict.ID{dict.ID(1 + rng.Intn(roots+20)), dict.ID(2000 + rng.Intn(40))})
		}
		cols := []string{"x"}
		for d := 0; d < w; d++ {
			cols = append(cols, fmt.Sprintf("d%d", d))
		}
		cRel, mRel := NewRelation(cols...), NewRelation("x", "v")
		for _, rows := range []struct {
			ids [][]dict.ID
			rel *Relation
		}{{c, cRel}, {m, mRel}} {
			for _, ids := range rows.ids {
				row := make(Row, len(ids))
				for i, id := range ids {
					row[i] = TermV(id)
				}
				rows.rel.Append(row)
			}
		}
		out := append(cols[1:len(cols):len(cols)], "v")
		got, _ := JoinAggregateIDs(c, m, out, f, resolve)
		want := nestedLoopJoinAggregate(cRel, mRel, []string{"x"}, cols[1:], "v", f, resolve)
		if !relIdentical(got, want) {
			t.Fatalf("trial %d (%s, %d dims): cube differs\n got %v %v\nwant %v %v", trial, f.Name(), w, got.Cols, got.Rows, want.Cols, want.Rows)
		}
	}
}
