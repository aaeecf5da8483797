package incr

import (
	"slices"

	"rdfcube/internal/algebra"
	"rdfcube/internal/core"
)

// cube is ans(Q) (Equation 3) kept live: an algebra.Cube over pres(Q)
// that each application feeds its Δpres rows alone, published
// copy-on-write. The cells are in first-seen order, empty ones included,
// like γ's, so the published relation is AnswerFromPres(pres) row for row.
type cube struct {
	cells *algebra.Cube
	row   []int32           // cell → position in rel.Rows, -1 while the cell is empty
	last  int               // highest cell with a published row, -1 if none
	rel   *algebra.Relation // published ans(Q); replaced, never written
}

// newCube aggregates pres into a cube: one pass, like γ.
func newCube(q *core.Query, pres *algebra.Relation, resolve algebra.NumericResolver) *cube {
	dims := make([]int, len(q.Dims())) // pres columns 1..n
	for i := range dims {
		dims[i] = i + 1
	}
	cb := &cube{
		cells: algebra.NewCube(dims, len(pres.Cols)-1, q.Agg, resolve),
		rel:   algebra.NewRelation(append(slices.Clone(q.Dims()), q.MeasureVar())...),
	}
	for _, row := range pres.Rows {
		cb.cells.Add(row)
	}
	cb.layout()
	return cb
}

// add feeds Δpres rows and publishes the result; it returns the number
// of cells touched. Rows of cells that existed are replaced in a copy of
// the row slice, new cells' rows are appended — except when a cell that
// was empty and is older than the last published one fills, which needs
// a full layout.
func (cb *cube) add(rows []algebra.Row) int {
	var touched []int
	for _, row := range rows {
		touched = append(touched, cb.cells.Add(row))
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	for len(cb.row) < cb.cells.Len() {
		cb.row = append(cb.row, -1)
	}
	out := slices.Grow(slices.Clone(cb.rel.Rows), len(touched))
	for _, i := range touched {
		row, ok := cb.cells.Row(i)
		switch {
		case !ok:
		case cb.row[i] >= 0:
			out[cb.row[i]] = row
		case i > cb.last:
			cb.row[i], cb.last = int32(len(out)), i
			out = append(out, row)
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
	out := make([]algebra.Row, 0, cb.cells.Len())
	cb.row, cb.last = make([]int32, cb.cells.Len()), -1
	for i := range cb.row {
		cb.row[i] = -1
		if row, ok := cb.cells.Row(i); ok {
			cb.row[i], cb.last = int32(len(out)), i
			out = append(out, row)
		}
	}
	cb.rel = &algebra.Relation{Cols: cb.rel.Cols, Rows: out}
}
