package algebra

import (
	"fmt"

	"rdfcube/internal/agg"
)

// joinTable is the build side of a hash join: an open-addressed table
// over the distinct keys of rows on the columns idx, in the Cube's layout
// — a power-of-two slot array holding 1 + the first row of a key's
// chain (0 is free), probed linearly from the top bits of the key hash
// times a Fibonacci constant — plus next, which links each row to the
// next row of equal key, in ascending row order. A key is verified once
// per probe, against the head of its chain; every row of the chain
// matches.
type joinTable struct {
	rows  []Row
	idx   []int
	hash  []uint64 // hash[r] is row r's key hash
	next  []int32  // next row of row r's key, -1 at the chain's end
	slots []int32
	shift uint
}

func newJoinTable(rows []Row, idx []int) *joinTable {
	n := len(rows)
	t := &joinTable{rows: rows, idx: idx, hash: make([]uint64, n), next: make([]int32, n)}
	slots, shift := 8, uint(61)
	for slots < 2*n {
		slots, shift = slots<<1, shift-1
	}
	t.slots, t.shift = make([]int32, slots), shift
	// Rows go in last to first, each becoming the head of its key's
	// chain, so chains run in ascending row order.
	for r := n - 1; r >= 0; r-- {
		h := hashCols(rows[r], idx)
		t.hash[r] = h
		s := t.slot(rows[r], idx, h)
		t.next[r] = t.slots[s] - 1
		t.slots[s] = int32(r) + 1
	}
	return t
}

// slot returns the slot of the key held in the columns idx of row, whose
// hash is h: the slot of its chain, or the free slot that ends the probe.
func (t *joinTable) slot(row Row, idx []int, h uint64) int {
	mask := len(t.slots) - 1
	for i := int((h * fib) >> t.shift); ; i = (i + 1) & mask {
		r := t.slots[i] - 1
		if r < 0 || t.hash[r] == h && colsEqualBits(t.rows[r], t.idx, row, idx) {
			return i
		}
	}
}

// probe calls fn for every match of the left rows lo..hi-1, keyed on
// their columns lIdx, in joined order: left rows ascending, each left
// row's right rows ascending.
func (t *joinTable) probe(left []Row, lIdx []int, lo, hi int, fn func(l, r int32, lrow, rrow Row)) {
	for i := lo; i < hi; i++ {
		lrow := left[i]
		for r := t.slots[t.slot(lrow, lIdx, hashCols(lrow, lIdx))] - 1; r >= 0; r = t.next[r] {
			fn(int32(i), r, lrow, t.rows[r])
		}
	}
}

// joinSchema resolves the columns of r ⋈ other on leftCols = rightCols:
// the join column indexes on each side, the right columns the output
// keeps, and the output columns — r's, then other's minus the join
// columns. Column name collisions outside the join columns are an error.
func (r *Relation) joinSchema(other *Relation, leftCols, rightCols []string) (lIdx, rIdx, keepRight []int, outCols []string, err error) {
	if len(leftCols) != len(rightCols) {
		return nil, nil, nil, nil, fmt.Errorf("algebra: join column arity mismatch %d vs %d", len(leftCols), len(rightCols))
	}
	lIdx = make([]int, len(leftCols))
	for i, c := range leftCols {
		if lIdx[i] = r.Column(c); lIdx[i] < 0 {
			return nil, nil, nil, nil, fmt.Errorf("algebra: join column %q missing on left", c)
		}
	}
	rIdx = make([]int, len(rightCols))
	rightJoinCol := make(map[int]bool)
	for i, c := range rightCols {
		if rIdx[i] = other.Column(c); rIdx[i] < 0 {
			return nil, nil, nil, nil, fmt.Errorf("algebra: join column %q missing on right", c)
		}
		rightJoinCol[rIdx[i]] = true
	}
	outCols = append([]string(nil), r.Cols...)
	for j, c := range other.Cols {
		if rightJoinCol[j] {
			continue
		}
		if r.Column(c) >= 0 {
			return nil, nil, nil, nil, fmt.Errorf("algebra: duplicate non-join column %q", c)
		}
		outCols = append(outCols, c)
		keepRight = append(keepRight, j)
	}
	return lIdx, rIdx, keepRight, outCols, nil
}

// Join returns r ⋈ other on leftCols = rightCols (hash join, bag
// semantics). Output columns are r's columns followed by other's columns
// minus the join columns. Column name collisions outside the join columns
// are an error.
func (r *Relation) Join(other *Relation, leftCols, rightCols []string) (*Relation, error) {
	lIdx, rIdx, keepRight, outCols, err := r.joinSchema(other, leftCols, rightCols)
	if err != nil {
		return nil, err
	}
	// Build on the right side; probes verify the actual join columns, so
	// hash collisions only cost a comparison. Wide probe sides fan out
	// across CPUs (parallel.go) with identical output, row for row.
	build := newJoinTable(other.Rows, rIdx)
	out := &Relation{Cols: outCols}
	if out.Rows = probeParallel(r.Rows, lIdx, build, keepRight, len(outCols)); out.Rows == nil {
		out.Rows = joinRows(r.Rows, lIdx, build, keepRight, len(outCols))
	}
	return out, nil
}

// joinRows joins the left rows against the build table in joined order,
// emitting each match as the left row followed by the kept right cells.
// Output rows are carved from shared blocks, each sized by the output
// rate seen so far but never more than doubling the output, so a skewed
// start cannot over-allocate; every row is a full slice expression
// (cap == len), so an append to one row never writes into the next.
func joinRows(left []Row, lIdx []int, build *joinTable, keepRight []int, width int) []Row {
	var out []Row
	var block []Value
	build.probe(left, lIdx, 0, len(left), func(l, _ int32, lrow, rrow Row) {
		if len(block) < width {
			i := int(l)
			rows := min((len(left)-i)*(len(out)+1)/(i+1), len(out)+64)
			block = make([]Value, width*max(rows, 1))
		}
		nr := block[:width:width]
		block = block[width:]
		copy(nr, lrow)
		for k, j := range keepRight {
			nr[len(lrow)+k] = rrow[j]
		}
		out = append(out, nr)
	})
	return out
}

// JoinAggregate returns γ_{group, f(v)}(r ⋈_on other), the aggregate
// column named v, without building a joined row: the join of r and other
// on the columns on, present under those names on both sides, probes
// each row of r into a build table on other, in r's order, and feeds
// every match straight into a Cube. The group and value columns may come
// from either side and are named as in Join's output. The result equals
// r.Join(other, on, on) followed by GroupAggregate(group, v, v, f,
// resolve), row for row and bit for bit; this is the fusion of a hash
// join with the hash aggregate above it (Graefe, "Query Evaluation
// Techniques for Large Databases", ACM Computing Surveys 1993). Wide
// probe sides fan out like γ (parallel.go).
func (r *Relation) JoinAggregate(other *Relation, on, group []string, v string, f agg.Func, resolve NumericResolver) (*Relation, error) {
	lIdx, rIdx, keepRight, outCols, err := r.joinSchema(other, on, on)
	if err != nil {
		return nil, err
	}
	ref := func(c string) (colRef, error) {
		for k, oc := range outCols {
			if oc == c {
				if k < len(r.Cols) {
					return colRef{i: k}, nil
				}
				return colRef{i: keepRight[k-len(r.Cols)], right: true}, nil
			}
		}
		return colRef{}, fmt.Errorf("algebra: no column %q in %v", c, outCols)
	}
	p := &aggPass{left: r.Rows, lOn: lIdx, build: newJoinTable(other.Rows, rIdx), key: make([]colRef, len(group)), f: f, resolve: resolve}
	for k, c := range group {
		if p.key[k], err = ref(c); err != nil {
			return nil, err
		}
	}
	if p.val, err = ref(v); err != nil {
		return nil, err
	}
	out := NewRelation(append(append([]string(nil), group...), v)...)
	out.Rows = aggRows(p.run())
	return out, nil
}
