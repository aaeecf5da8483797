package algebra

import (
	"rdfcube/internal/agg"
	"rdfcube/internal/dict"
)

// Cube is the state of γ: one agg.Accumulator per cell — a distinct tuple
// of the group columns — held in first-seen order, empty cells included.
// It is the only grouping primitive: GroupAggregate feeds one Cube (or one
// per hash partition, parallel.go), Dedup groups on its key columns
// without accumulators, and incremental maintenance keeps a Cube alive
// and feeds it new rows only. That is exact because count, sum, min and
// max are distributive and avg and count-distinct algebraic over their
// (sum, count) and value set: a cell fed more rows later ends where a
// cell fed them all at once would.
//
// Cells are found through an open-addressed table: a power-of-two slot
// array holding 1 + cell index (0 is free), probed linearly from the top
// bits of the key hash times a Fibonacci constant — the hash partitions
// of the parallel pass share their low hash bits, the top bits of the
// product stay spread. Each cell keeps its hash, so a probe compares
// keys only on a hash match and growth, at half load, re-slots cells
// without rehashing. The numeric interpretation of a measure term is
// resolved once per term ID and memoised in the cube; dictionary IDs
// never change their term, so the memo is exact.
type Cube struct {
	gIdx    []int
	vIdx    int // measure column; -1 for a cube without accumulators
	f       agg.Func
	resolve NumericResolver
	nums    map[dict.ID]number // resolve's answers, by term ID
	slots   []int32            // 1 + cell index, 0 = free
	shift   uint               // 64 − log2(len(slots))
	rows    []Row              // rows[cell.first] opened the cell
	cells   []cell
}

// cell is one group: first is the position in rows of the row that
// opened it, which also orders the parallel merge, and hash is its key
// hash.
type cell struct {
	acc   agg.Accumulator
	hash  uint64
	first int32
}

type number struct {
	v  float64
	ok bool
}

// fib is 2^64 / φ, the multiplier of Fibonacci hashing.
const fib = 0x9e3779b97f4a7c15

// NewCube returns an empty cube grouping rows on the columns gIdx and
// aggregating column vIdx with f. resolve gives term cells their numeric
// interpretation; nil treats them as non-numeric.
func NewCube(gIdx []int, vIdx int, f agg.Func, resolve NumericResolver) *Cube {
	c := &Cube{gIdx: gIdx, vIdx: vIdx, f: f, resolve: resolve}
	c.size(0)
	return c
}

// size allocates a slot array that holds n cells under half load and
// slots the cells already open.
func (c *Cube) size(n int) {
	slots, shift := 8, uint(61)
	for slots < 2*n {
		slots, shift = slots<<1, shift-1
	}
	c.slots, c.shift = make([]int32, slots), shift
	mask := slots - 1
	for j := range c.cells {
		i := int((c.cells[j].hash * fib) >> shift)
		for c.slots[i] != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = int32(j) + 1
	}
}

// Add feeds row to its cell, opening the cell when its group values are
// new, and returns the cell's index. The cube keeps row, which must not
// change afterwards.
func (c *Cube) Add(row Row) int {
	h := hashCols(row, c.gIdx)
	j, i := c.find(row, h)
	if j < 0 {
		c.rows = append(c.rows, row)
		j = c.open(h, len(c.rows)-1, i)
	}
	c.feed(j, row)
	return int(j)
}

// addAt feeds rows[i], whose key hash is h, to a cube whose rows are the
// whole input of a grouping pass.
func (c *Cube) addAt(i int, h uint64) {
	row := c.rows[i]
	j, s := c.find(row, h)
	if j < 0 {
		j = c.open(h, i, s)
	}
	c.feed(j, row)
}

// find returns the cell of row's group values, or -1 and the free slot
// that ends the probe.
func (c *Cube) find(row Row, h uint64) (int32, int) {
	mask := len(c.slots) - 1
	for i := int((h * fib) >> c.shift); ; i = (i + 1) & mask {
		j := c.slots[i] - 1
		if j < 0 || c.cells[j].hash == h && colsEqualBits(c.rows[c.cells[j].first], c.gIdx, row, c.gIdx) {
			return j, i
		}
	}
}

// open appends the cell opened by rows[first] in the free slot s and
// returns its index.
func (c *Cube) open(h uint64, first, s int) int32 {
	j := int32(len(c.cells))
	cl := cell{hash: h, first: int32(first)}
	if c.f != nil {
		cl.acc = c.f.New()
	}
	c.cells = append(c.cells, cl)
	if 2*len(c.cells) > len(c.slots) {
		c.size(len(c.cells))
	} else {
		c.slots[s] = j + 1
	}
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
		var n number
		if c.resolve != nil {
			n = c.number(v.ID)
		}
		acc.Add(v.ID, n.v, n.ok)
	case NumValue:
		acc.Add(dict.NoID, v.Num, true)
	case KeyValue:
		acc.Add(dict.ID(v.Key), float64(v.Key), true)
	}
}

// number returns resolve(id), asking resolve once per term.
func (c *Cube) number(id dict.ID) number {
	n, ok := c.nums[id]
	if !ok {
		n.v, n.ok = c.resolve(id)
		if c.nums == nil {
			c.nums = map[dict.ID]number{}
		}
		c.nums[id] = n
	}
	return n
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
