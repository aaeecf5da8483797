package algebra

import (
	"rdfcube/internal/agg"
	"rdfcube/internal/dict"
)

// Cube is the state of γ: one agg.Accumulator per cell — a distinct tuple
// of the group columns — held in first-seen order, empty cells included.
// It is the only grouping primitive: GroupAggregate and JoinAggregate
// feed one Cube (or one per hash partition, parallel.go), Dedup groups on
// its key columns without accumulators, and incremental maintenance keeps
// a Cube alive and feeds it new rows only. That is exact because count,
// sum, min and max are distributive and avg and count-distinct algebraic
// over their (sum, count) and value set: a cell fed more rows later ends
// where a cell fed them all at once would.
//
// Cells are found through an open-addressed table: a power-of-two slot
// array holding 1 + cell index (0 is free), probed linearly from the top
// bits of the key hash times a Fibonacci constant — the hash partitions
// of the parallel pass share their low hash bits, the top bits of the
// product stay spread. Each cell keeps its hash, so a probe compares keys
// only on a hash match and growth, at half load, re-slots cells without
// rehashing. γ's cells keep their key columns packed in one flat array
// beside them, so neither a probe nor an output row reads an input row
// again; δ returns each cell's first input row anyway, so its cube
// compares keys against that row instead of copying them. The numeric interpretation of
// a measure term is resolved once per term ID and memoised in the cube;
// dictionary IDs never change their term, so the memo is exact.
type Cube struct {
	cols    []colRef // key columns of a match
	vIdx    int      // Add's measure column; -1 for a cube without accumulators
	rows    []Row    // δ's input: cell j's key is in rows[cells[j].l]; nil: keys
	f       agg.Func
	resolve NumericResolver
	nums    map[dict.ID]number // resolve's answers, by term ID
	slots   []int32            // 1 + cell index, 0 = free
	shift   uint               // 64 − log2(len(slots))
	width   int                // key columns per cell
	keys    []Value            // cell j's key is keys[j*width : (j+1)*width], unless rows
	cells   []cell
	added   int32 // rows fed through Add
}

// cell is one group: hash is its key hash, and l, r name the match that
// opened it — left row l, joined with right row r, or r = -1 where
// nothing is joined. Matches are numbered in (l, r) order, which is the
// joined order, so the pair orders the parallel merge; δ keeps left row
// l.
type cell struct {
	acc  agg.Accumulator
	hash uint64
	l, r int32
}

// before reports whether cl was opened by an earlier match than o.
func (cl *cell) before(o *cell) bool {
	return cl.l < o.l || cl.l == o.l && cl.r < o.r
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
	c := newCube(leftCols(gIdx), f, resolve, 0)
	c.vIdx = vIdx
	return c
}

// newCube returns an empty cube keyed on the columns cols of a match
// whose table holds n cells before it first grows.
func newCube(cols []colRef, f agg.Func, resolve NumericResolver, n int) *Cube {
	c := &Cube{cols: cols, vIdx: -1, f: f, resolve: resolve, width: len(cols)}
	if n > 0 {
		c.cells = make([]cell, 0, n)
	}
	c.size(n)
	return c
}

// newSlots returns a free slot array that holds n entries under half
// load — a power of two, at least 8 — and the shift that maps a hash
// times fib to its first slot: the layout of every hash table of this
// package (Cube, joinTable, idKeys).
func newSlots(n int) ([]int32, uint) {
	slots, shift := 8, uint(61)
	for slots < 2*n {
		slots, shift = slots<<1, shift-1
	}
	return make([]int32, slots), shift
}

// size allocates a slot array that holds n cells under half load and
// slots the cells already open.
func (c *Cube) size(n int) {
	c.slots, c.shift = newSlots(n)
	mask := len(c.slots) - 1
	for j := range c.cells {
		i := int((c.cells[j].hash * fib) >> c.shift)
		for c.slots[i] != 0 {
			i = (i + 1) & mask
		}
		c.slots[i] = int32(j) + 1
	}
}

// Add feeds row to its cell, opening the cell when its group values are
// new, and returns the cell's index. The cube copies the group values;
// it keeps no reference to row.
func (c *Cube) Add(row Row) int {
	j := c.add(row, nil, hashKey(c.cols, row, nil), c.added, -1)
	c.added++
	if c.vIdx >= 0 {
		c.feed(j, row[c.vIdx])
	}
	return int(j)
}

// add returns the cell of the key of the match (l, r) — left row lrow,
// right row rrow — whose hash is h, opening the cell when the key is new.
func (c *Cube) add(lrow, rrow Row, h uint64, l, r int32) int32 {
	mask := len(c.slots) - 1
	i := int((h * fib) >> c.shift)
	for ; ; i = (i + 1) & mask {
		j := c.slots[i] - 1
		if j < 0 {
			break
		}
		if c.cells[j].hash == h && c.holds(j, lrow, rrow) {
			return j
		}
	}
	return c.open(lrow, rrow, h, l, r, i)
}

// holds reports whether cell j's key is the key of the match of lrow and
// rrow, comparing floats by bits.
func (c *Cube) holds(j int32, lrow, rrow Row) bool {
	if c.rows != nil {
		own := c.rows[c.cells[j].l]
		for _, k := range c.cols {
			if !valueEqualBits(own[k.i], lrow[k.i]) {
				return false
			}
		}
		return true
	}
	own := c.keys[int(j)*c.width:]
	for k, col := range c.cols {
		if !valueEqualBits(own[k], col.of(lrow, rrow)) {
			return false
		}
	}
	return true
}

// open appends the cell of the key of the match (l, r) in the free slot
// s and returns its index.
func (c *Cube) open(lrow, rrow Row, h uint64, l, r int32, s int) int32 {
	j := int32(len(c.cells))
	cl := cell{hash: h, l: l, r: r}
	if c.f != nil {
		cl.acc = c.f.New()
	}
	c.cells = append(c.cells, cl)
	if c.rows == nil {
		for _, col := range c.cols {
			c.keys = append(c.keys, col.of(lrow, rrow))
		}
	}
	if 2*len(c.cells) > len(c.slots) {
		c.size(len(c.cells))
	} else {
		c.slots[s] = j + 1
	}
	return j
}

// feed adds the measure v to cell j.
func (c *Cube) feed(j int32, v Value) {
	acc := c.cells[j].acc
	switch v.Kind {
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
func (c *Cube) Row(i int) (Row, bool) {
	out := make(Row, c.width+1)
	if !c.fill(i, out) {
		return nil, false
	}
	return out, true
}

// fill writes cell i's output row into out, which has width+1 cells, and
// reports whether the cell has an aggregate.
func (c *Cube) fill(i int, out Row) bool {
	v, ok := c.cells[i].acc.Result()
	if ok {
		copy(out, c.keys[i*c.width:(i+1)*c.width])
		out[c.width] = NumV(v)
	}
	return ok
}
