package core

// A reference differential for the three rewrites that answer from
// pres(Q): Equation 3, Algorithm 1 and Algorithm 2 are recomputed here
// over decoded rows with plain Go maps and slices — no algebra operator,
// no agg accumulator — and must match the kernels row for row, in
// order, with identical float bits.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/bgp"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// refRow is a decoded pres row: every cell as a string (terms in
// N-Triples syntax, keys as k<n>) and the measure's term.
type refRow struct {
	cells []string
	v     rdf.Term
}

func refDecode(st *store.Store, rel *algebra.Relation) []refRow {
	out := make([]refRow, len(rel.Rows))
	for i, row := range rel.Rows {
		out[i].cells = make([]string, len(row))
		for j, c := range row {
			switch c.Kind {
			case algebra.TermValue:
				t, ok := st.Dict().Decode(c.ID)
				if !ok {
					panic(fmt.Sprintf("reference: unknown term id %d", c.ID))
				}
				out[i].cells[j] = t.String()
				if j == len(row)-1 {
					out[i].v = t
				}
			case algebra.KeyValue:
				out[i].cells[j] = fmt.Sprintf("k%d", c.Key)
			default:
				panic("reference: unexpected cell kind in pres")
			}
		}
	}
	return out
}

// refCell is one output group of the reference γ.
type refCell struct {
	key           []string
	n, nNum       int
	sum, min, max float64
	distinct      map[string]bool
	fn            string
}

func (c *refCell) add(v rdf.Term) {
	c.n++
	c.distinct[v.String()] = true
	num, ok := v.AsFloat()
	if !ok {
		return
	}
	c.nNum++
	c.sum += num
	if num < c.min {
		c.min = num
	}
	if num > c.max {
		c.max = num
	}
}

func (c *refCell) result() (float64, bool) {
	switch c.fn {
	case "count":
		return float64(c.n), c.n > 0
	case "countdistinct":
		return float64(len(c.distinct)), len(c.distinct) > 0
	case "sum":
		return c.sum, c.nNum > 0
	case "avg":
		if c.nNum == 0 {
			return 0, false
		}
		return c.sum / float64(c.nNum), true
	case "min":
		return c.min, c.nNum > 0
	default:
		return c.max, c.nNum > 0
	}
}

// refGroup groups rows on the key columns in first-seen order, feeding
// each row's measure to its group in input order.
func refGroup(rows []refRow, key []int, fn string) []*refCell {
	var cells []*refCell
	byKey := map[string]*refCell{}
	for _, r := range rows {
		k := make([]string, len(key))
		for i, c := range key {
			k[i] = r.cells[c]
		}
		s := strings.Join(k, "\x00")
		c := byKey[s]
		if c == nil {
			c = &refCell{key: k, min: math.Inf(1), max: math.Inf(-1), distinct: map[string]bool{}, fn: fn}
			byKey[s] = c
			cells = append(cells, c)
		}
		c.add(r.v)
	}
	return cells
}

// refMatch compares a kernel's cube with the reference cells: same
// non-empty cells, same order, same float bits.
func refMatch(t *testing.T, label string, st *store.Store, got *algebra.Relation, want []*refCell) {
	t.Helper()
	i := 0
	for _, c := range want {
		v, ok := c.result()
		if !ok {
			continue
		}
		if i >= len(got.Rows) {
			t.Fatalf("%s: %d rows, the reference has more", label, len(got.Rows))
		}
		row := got.Rows[i]
		for j, k := range c.key {
			term, _ := st.Dict().Decode(row[j].ID)
			if term.String() != k {
				t.Fatalf("%s: row %d column %d is %s, reference %s", label, i, j, term, k)
			}
		}
		if g := row[len(row)-1].Num; math.Float64bits(g) != math.Float64bits(v) {
			t.Fatalf("%s: row %d value %v (bits %x), reference %v (bits %x)", label, i, g, math.Float64bits(g), v, math.Float64bits(v))
		}
		i++
	}
	if i != len(got.Rows) {
		t.Fatalf("%s: %d rows, reference %d", label, len(got.Rows), i)
	}
}

// refDrillOut is Algorithm 1: keep the first pres row of every (root,
// remaining dims, k, v) tuple, then group on the remaining dims.
func refDrillOut(rows []refRow, n int, drop map[int]bool, fn string) []*refCell {
	var keep []int // pres columns 1..n that survive
	for d := 1; d <= n; d++ {
		if !drop[d] {
			keep = append(keep, d)
		}
	}
	seen := map[string]bool{}
	var firsts []refRow
	for _, r := range rows {
		parts := []string{r.cells[0]}
		for _, d := range keep {
			parts = append(parts, r.cells[d])
		}
		parts = append(parts, r.cells[n+1], r.cells[n+2])
		if s := strings.Join(parts, "\x00"); !seen[s] {
			seen[s] = true
			firsts = append(firsts, r)
		}
	}
	return refGroup(firsts, keep, fn)
}

// refDrillIn is Algorithm 2: a nested-loop join of pres with q_aux's
// rows on the shared variables, then γ on the dimensions plus the new one.
func refDrillIn(rows []refRow, presCols []string, aux []refRow, auxCols []string, n int, fn string) []*refCell {
	var pIdx, aIdx []int
	for i, c := range auxCols[:len(auxCols)-1] {
		for j, pc := range presCols {
			if pc == c {
				pIdx, aIdx = append(pIdx, j), append(aIdx, i)
			}
		}
	}
	var joined []refRow
	for _, r := range rows {
		for _, a := range aux {
			match := true
			for i := range pIdx {
				match = match && r.cells[pIdx[i]] == a.cells[aIdx[i]]
			}
			if match {
				cells := append(append([]string(nil), r.cells...), a.cells[len(a.cells)-1])
				joined = append(joined, refRow{cells: cells, v: r.v})
			}
		}
	}
	key := []int{}
	for d := 1; d <= n; d++ {
		key = append(key, d)
	}
	return refGroup(joined, append(key, len(presCols)), fn)
}

// drillInQuery is randomQuery with the last dimension existential: the
// classifier body binds nDims dimensions, the head keeps nDims−1.
func drillInQuery(t *testing.T, nDims int, f agg.Func) *Query {
	t.Helper()
	head, body := "x", "x rdf:type :Fact"
	for d := 0; d < nDims; d++ {
		if d < nDims-1 {
			head += fmt.Sprintf(", d%d", d)
		}
		body += fmt.Sprintf(", x :dim%d d%d", d, d)
	}
	c := sparql.MustParseDatalog(fmt.Sprintf("c(%s) :- %s", head, body), exPrefixes())
	m := sparql.MustParseDatalog("m(x, v) :- x rdf:type :Fact, x :did e, e :score v", exPrefixes())
	q, err := New(c, m, f)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestRewritesMatchReference(t *testing.T) {
	defer func() { algebra.GroupWorkers = 0 }()
	funcs := []agg.Func{agg.Count, agg.Sum, agg.Avg, agg.Min, agg.Max, agg.CountDistinct}
	for _, workers := range []int{1, 4} {
		algebra.GroupWorkers = workers
		rng := rand.New(rand.NewSource(606))
		for trial := 0; trial < 24; trial++ {
			f := funcs[trial%len(funcs)]
			nDims := 2 + rng.Intn(2)
			st := randomInstance(rng, 30+rng.Intn(60), nDims)
			ev := NewEvaluator(st)
			label := fmt.Sprintf("workers %d trial %d %s", workers, trial, f.Name())

			q := randomQuery(t, nDims, f)
			pres, err := ev.Pres(q)
			if err != nil {
				t.Fatal(err)
			}
			rows := refDecode(st, pres)
			dims := make([]int, nDims)
			for i := range dims {
				dims[i] = i + 1
			}
			ans, err := ev.AnswerFromPres(q, pres)
			if err != nil {
				t.Fatal(err)
			}
			refMatch(t, label+" Equation 3", st, ans, refGroup(rows, dims, f.Name()))

			drop := map[int]bool{}
			var dropNames []string
			for _, d := range rng.Perm(nDims)[:1+rng.Intn(nDims-1)] {
				drop[d+1] = true
				dropNames = append(dropNames, fmt.Sprintf("d%d", d))
			}
			out, err := ev.DrillOutRewrite(q, pres, dropNames...)
			if err != nil {
				t.Fatal(err)
			}
			refMatch(t, fmt.Sprintf("%s Algorithm 1 drop %v", label, dropNames), st, out, refDrillOut(rows, nDims, drop, f.Name()))

			qi := drillInQuery(t, nDims, f)
			newDim := fmt.Sprintf("d%d", nDims-1)
			presI, err := ev.Pres(qi)
			if err != nil {
				t.Fatal(err)
			}
			aux, err := AuxQuery(qi.Classifier, newDim)
			if err != nil {
				t.Fatal(err)
			}
			auxRes, err := bgp.EvalSet(st, aux)
			if err != nil {
				t.Fatal(err)
			}
			auxRows := make([]refRow, len(auxRes.Rows))
			for i, r := range auxRes.Rows {
				for _, id := range r {
					term, _ := st.Dict().Decode(id)
					auxRows[i].cells = append(auxRows[i].cells, term.String())
				}
			}
			in, err := ev.DrillInRewrite(qi, presI, newDim)
			if err != nil {
				t.Fatal(err)
			}
			refMatch(t, label+" Algorithm 2", st, in,
				refDrillIn(refDecode(st, presI), presI.Cols, auxRows, auxRes.Vars, nDims-1, f.Name()))
		}
	}
}
