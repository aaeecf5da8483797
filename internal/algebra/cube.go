package algebra

import (
	"rdfcube/internal/agg"
	"rdfcube/internal/dict"
)

// Cube is the state of γ: one agg.Accumulator per cell — a distinct tuple
// of the group columns — held in first-seen order, empty cells included.
// It is the only grouping primitive: GroupAggregate feeds one Cube (or one
// per hash partition, parallel.go), Dedup groups on every column without
// accumulators, and incremental maintenance keeps a Cube alive and feeds
// it new rows only. That is exact because count, sum, min and max are
// distributive and avg and count-distinct algebraic over their (sum,
// count) and value set: a cell fed more rows later ends where a cell fed
// them all at once would.
type Cube struct {
	gIdx    []int
	vIdx    int // measure column; -1 for a cube without accumulators
	f       agg.Func
	resolve NumericResolver
	heads   map[uint64]int32 // key hash → 1 + newest cell with that hash
	rows    []Row            // rows[cell.first] opened the cell
	cells   []cell
}

// cell is one group: first is the position in rows of the row that
// opened it, which also orders the parallel merge, and next is 1 + the
// previous cell with the same key hash (0 ends the chain).
type cell struct {
	acc         agg.Accumulator
	first, next int32
}

// NewCube returns an empty cube grouping rows on the columns gIdx and
// aggregating column vIdx with f. resolve gives term cells their numeric
// interpretation; nil treats them as non-numeric.
func NewCube(gIdx []int, vIdx int, f agg.Func, resolve NumericResolver) *Cube {
	return &Cube{gIdx: gIdx, vIdx: vIdx, f: f, resolve: resolve, heads: map[uint64]int32{}}
}

// Add feeds row to its cell, opening the cell when its group values are
// new, and returns the cell's index. The cube keeps row, which must not
// change afterwards.
func (c *Cube) Add(row Row) int {
	h := hashCols(row, c.gIdx)
	j := c.find(row, h)
	if j < 0 {
		c.rows = append(c.rows, row)
		j = c.open(h, len(c.rows)-1)
	}
	c.feed(j, row)
	return int(j)
}

// addAt feeds rows[i], whose key hash is h, to a cube whose rows are the
// whole input of a grouping pass.
func (c *Cube) addAt(i int, h uint64) {
	row := c.rows[i]
	j := c.find(row, h)
	if j < 0 {
		j = c.open(h, i)
	}
	c.feed(j, row)
}

// find returns the cell of row's group values, or -1.
func (c *Cube) find(row Row, h uint64) int32 {
	j := c.heads[h] - 1
	for j >= 0 && !colsEqualBits(c.rows[c.cells[j].first], c.gIdx, row, c.gIdx) {
		j = c.cells[j].next - 1
	}
	return j
}

// open appends the cell opened by rows[first] and returns its index.
func (c *Cube) open(h uint64, first int) int32 {
	j := int32(len(c.cells))
	cl := cell{first: int32(first), next: c.heads[h]}
	if c.f != nil {
		cl.acc = c.f.New()
	}
	c.cells = append(c.cells, cl)
	c.heads[h] = j + 1
	return j
}

// feed adds row's measure to cell j.
func (c *Cube) feed(j int32, row Row) {
	if c.vIdx < 0 {
		return
	}
	acc := c.cells[j].acc
	switch v := row[c.vIdx]; v.Kind {
	case TermValue:
		num, ok := 0.0, false
		if c.resolve != nil {
			num, ok = c.resolve(v.ID)
		}
		acc.Add(v.ID, num, ok)
	case NumValue:
		acc.Add(dict.NoID, v.Num, true)
	case KeyValue:
		acc.Add(dict.ID(v.Key), float64(v.Key), true)
	}
}

// Len reports the number of cells, empty ones included.
func (c *Cube) Len() int { return len(c.cells) }

// Row returns cell i as a γ output row — its group values, then the
// aggregate — or false while the cell's accumulator is empty: per
// Definition 1, a fact with an empty measure bag does not contribute.
func (c *Cube) Row(i int) (Row, bool) { return c.cells[i].row(c.rows, c.gIdx) }

func (cl *cell) row(rows []Row, gIdx []int) (Row, bool) {
	v, ok := cl.acc.Result()
	if !ok {
		return nil, false
	}
	src := rows[cl.first]
	out := make(Row, len(gIdx)+1)
	for k, g := range gIdx {
		out[k] = src[g]
	}
	out[len(gIdx)] = NumV(v)
	return out, true
}
