package incr

import (
	"encoding/binary"
	"slices"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/core"
)

// cube is ans(Q) (Equation 3) as one accumulator per cell. Insertion only
// grows the bag a cell aggregates, and count, sum, min and max are
// distributive, avg and count-distinct algebraic over their (sum, count)
// and value set: fed the Δpres rows, the cells stay equal to γ over all
// of pres(Q). They are held in first-seen order, empty ones included,
// like γ, so the published relation is AnswerFromPres(pres) row for row.
type cube struct {
	f       agg.Func
	resolve algebra.NumericResolver
	nd      int              // dimensions: pres columns 1..nd
	index   map[string]int32 // dims tuple → cell
	cells   []cell
	last    int32 // highest cell with a published row, -1 if none
	key     []byte
	rel     *algebra.Relation // published ans(Q); replaced, never written
}

type cell struct {
	dims algebra.Row
	acc  agg.Accumulator
	row  int32 // position in rel.Rows, -1 while acc is empty
}

// newCube aggregates pres into a cube: one pass, like γ.
func newCube(q *core.Query, pres *algebra.Relation, resolve algebra.NumericResolver) *cube {
	cb := &cube{
		f:       q.Agg,
		resolve: resolve,
		nd:      len(q.Dims()),
		index:   map[string]int32{},
		rel:     algebra.NewRelation(append(slices.Clone(q.Dims()), q.MeasureVar())...),
	}
	for _, row := range pres.Rows {
		cb.feed(row)
	}
	cb.layout()
	return cb
}

// feed adds one pres(Q) row (root, dims…, key, v) to its cell and
// returns the cell.
func (cb *cube) feed(row algebra.Row) int32 {
	dims := row[1 : 1+cb.nd]
	cb.key = cb.key[:0]
	for _, d := range dims {
		cb.key = binary.LittleEndian.AppendUint64(cb.key, uint64(d.ID))
	}
	i, ok := cb.index[string(cb.key)]
	if !ok {
		i = int32(len(cb.cells))
		cb.index[string(cb.key)] = i
		cb.cells = append(cb.cells, cell{dims: slices.Clone(dims), acc: cb.f.New(), row: -1})
	}
	v := row[len(row)-1].ID
	num, numOK := cb.resolve(v)
	cb.cells[i].acc.Add(v, num, numOK)
	return i
}

// add feeds Δpres rows and publishes the result; it returns the number
// of cells touched. Rows of cells that existed are replaced in a copy of
// the row slice, new cells' rows are appended — except when a cell that
// was empty and is older than the last published one fills, which needs
// a full layout.
func (cb *cube) add(rows []algebra.Row) int {
	var touched []int32
	for _, row := range rows {
		touched = append(touched, cb.feed(row))
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	out := slices.Grow(slices.Clone(cb.rel.Rows), len(touched))
	for _, i := range touched {
		c := &cb.cells[i]
		v, ok := c.acc.Result()
		switch {
		case !ok:
		case c.row >= 0:
			out[c.row] = c.render(v)
		case i > cb.last:
			c.row, cb.last = int32(len(out)), i
			out = append(out, c.render(v))
		default:
			cb.layout()
			return len(touched)
		}
	}
	cb.rel = &algebra.Relation{Cols: cb.rel.Cols, Rows: out}
	return len(touched)
}

// layout publishes every non-empty cell, in first-seen order.
func (cb *cube) layout() {
	out := make([]algebra.Row, 0, len(cb.cells))
	cb.last = -1
	for i := range cb.cells {
		c := &cb.cells[i]
		c.row = -1
		if v, ok := c.acc.Result(); ok {
			c.row, cb.last = int32(len(out)), int32(i)
			out = append(out, c.render(v))
		}
	}
	cb.rel = &algebra.Relation{Cols: cb.rel.Cols, Rows: out}
}

// render returns the cell's ans(Q) row: its dimension values, then v.
func (c *cell) render(v float64) algebra.Row {
	return append(append(make(algebra.Row, 0, len(c.dims)+1), c.dims...), algebra.NumV(v))
}
