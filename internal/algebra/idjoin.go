package algebra

import (
	"slices"

	"rdfcube/internal/agg"
	"rdfcube/internal/dict"
	"rdfcube/internal/hash64"
)

// JoinAggregateIDs is JoinAggregate on rows of dictionary IDs, as a BGP
// evaluation returns them: γ_{d1..dn, f(v)}(c ⋈_x m) where every row of
// c is (x, d1, …, dn) and every row of m is (x, v). cols names the
// output columns, d1..dn then v, so len(cols) is the width of c's rows.
// No cell is boxed into a Value before the output: the join and γ run
// on the IDs, and only the cube's rows are built as Values. This is late
// materialisation (Abadi et al., "Materialization Strategies in a
// Column-Oriented DBMS", ICDE 2007) applied to the fused pass.
//
// The build side keys m's rows on x, each key's chain in ascending row
// order, and resolves every row's measure once per distinct term. Each
// row of c with a match finds its γ cell once, by its packed dimension
// IDs, then feeds it every match in chain order. That is JoinAggregate's
// feed order, so the cube equals c.JoinAggregate(m, …) over the same
// rows as Values — rows, order and float bits — and so Pres followed by
// AnswerFromPres. The pass is sequential.
//
// built is what the pass allocates beyond its inputs, in the byte model
// of EstimateBytes: the join table with its resolved measures
// (idJoinTable.bytes) and the cube's rows. γ's cell table, bounded by
// the cube, is not charged.
func JoinAggregateIDs(c, m [][]dict.ID, cols []string, f agg.Func, resolve NumericResolver) (out *Relation, built int64) {
	t := newIDJoinTable(m, resolve)
	w := len(cols) - 1
	cells := newIDKeys(w)
	var accs []agg.Accumulator
	// A root's classifier rows are usually adjacent too, so a row of the
	// previous row's root reuses its chain.
	k := int32(-1)
	for i, row := range c {
		if i == 0 || row[0] != c[i-1][0] {
			k = t.roots.find1(row[0])
		}
		if k < 0 {
			continue
		}
		j, fresh := cells.add(row[1:])
		if fresh {
			accs = append(accs, f.New())
		}
		acc := accs[j]
		for r := t.head[k]; r >= 0; r = t.next[r] {
			tj := t.term[r]
			n := t.nums[tj]
			acc.Add(t.terms.keys[tj], n.v, n.ok)
		}
	}
	out = NewRelation(cols...)
	block := make([]Value, (w+1)*len(accs))
	out.Rows = make([]Row, 0, len(accs))
	for j, acc := range accs {
		v, ok := acc.Result()
		if !ok {
			continue
		}
		nr := block[: w+1 : w+1]
		block = block[w+1:]
		for i, id := range cells.key(int32(j)) {
			nr[i] = TermV(id)
		}
		nr[w] = NumV(v)
		out.Rows = append(out.Rows, nr)
	}
	return out, t.bytes() + out.EstimateBytes()
}

// idJoinTable is the build side of JoinAggregateIDs: the distinct roots
// of m's rows, the head of each root's chain and a next link per row,
// in ascending row order; and the distinct measure terms, each resolved
// once, with each row's term number.
type idJoinTable struct {
	roots *idKeys
	head  []int32 // head[k] is the first row of root k
	next  []int32 // next row of row r's root, -1 at the chain's end
	terms *idKeys
	nums  []number // nums[j] is term j's numeric interpretation
	term  []int32  // term[r] is row r's term number
}

func newIDJoinTable(m [][]dict.ID, resolve NumericResolver) *idJoinTable {
	t := &idJoinTable{roots: newIDKeys(1), next: make([]int32, len(m)), terms: newIDKeys(1), term: make([]int32, len(m))}
	// Rows go in last to first, each becoming the head of its root's
	// chain, so chains run in ascending row order. A BGP result usually
	// lists a root's rows together, so a row of the previous row's root
	// skips the lookup.
	k := int32(-1)
	for r := len(m) - 1; r >= 0; r-- {
		row := m[r]
		if k < 0 || row[0] != m[r+1][0] {
			var fresh bool
			if k, fresh = t.roots.add1(row[0]); fresh {
				t.head = append(t.head, -1)
			}
		}
		t.next[r], t.head[k] = t.head[k], int32(r)
		j, fresh := t.terms.add1(row[1])
		if fresh {
			var n number
			if resolve != nil {
				n.v, n.ok = resolve(row[1])
			}
			t.nums = append(t.nums, n)
		}
		t.term[r] = j
	}
	return t
}

// bytes is the table's size: 4 bytes a slot, 8 a key, 4 a root's chain
// head, 16 a term's number, and 8 a row's next link and term number.
func (t *idJoinTable) bytes() int64 {
	slots := len(t.roots.slots) + len(t.terms.slots)
	keys := len(t.roots.keys) + len(t.terms.keys)
	return int64(4*slots + 8*keys + 4*len(t.head) + 16*len(t.nums) + 8*len(t.next))
}

// idKeys numbers the distinct keys of w dictionary IDs in first-seen
// order, in the layout of every hash table of this package (newSlots):
// slots hold 1 + a key's number, keys are packed w IDs apiece, and the
// table grows at half load.
type idKeys struct {
	slots []int32
	shift uint
	w     int
	n     int32     // keys held
	keys  []dict.ID // key j is keys[j*w : (j+1)*w]
}

func newIDKeys(w int) *idKeys {
	x := &idKeys{w: w}
	x.slots, x.shift = newSlots(0)
	return x
}

// hashIDs hashes a key of dictionary IDs.
func hashIDs(key []dict.ID) uint64 {
	h := uint64(hash64.Offset)
	for _, id := range key {
		h = hash64.Mix(h, uint64(id))
	}
	return h
}

// hash is the hash of key in x: a key of one ID is its own hash, as
// Fibonacci hashing spreads dense IDs on its own.
func (x *idKeys) hash(key []dict.ID) uint64 {
	if x.w == 1 {
		return uint64(key[0])
	}
	return hashIDs(key)
}

// key returns key j.
func (x *idKeys) key(j int32) []dict.ID {
	return x.keys[int(j)*x.w : int(j+1)*x.w]
}

// probe returns key's number and slot, or -1 and the free slot that ends
// its probe.
func (x *idKeys) probe(key []dict.ID) (int32, int) {
	mask := len(x.slots) - 1
	for i := int((x.hash(key) * fib) >> x.shift); ; i = (i + 1) & mask {
		j := x.slots[i] - 1
		if j < 0 || slices.Equal(x.key(j), key) {
			return j, i
		}
	}
}

// probe1 is probe for a table of one-ID keys, the join's roots and
// terms, which it compares without slicing them.
func (x *idKeys) probe1(id dict.ID) (int32, int) {
	mask := len(x.slots) - 1
	for i := int((uint64(id) * fib) >> x.shift); ; i = (i + 1) & mask {
		j := x.slots[i] - 1
		if j < 0 || x.keys[j] == id {
			return j, i
		}
	}
}

// find1 returns the number of the one-ID key id, or -1 when the table
// does not hold it.
func (x *idKeys) find1(id dict.ID) int32 {
	j, _ := x.probe1(id)
	return j
}

// add returns key's number, numbering it next when it is new, and
// whether it was.
func (x *idKeys) add(key []dict.ID) (int32, bool) {
	j, s := x.probe(key)
	if j >= 0 {
		return j, false
	}
	return x.insert(key, s), true
}

// add1 is add for a table of one-ID keys.
func (x *idKeys) add1(id dict.ID) (int32, bool) {
	j, s := x.probe1(id)
	if j >= 0 {
		return j, false
	}
	return x.insert([]dict.ID{id}, s), true
}

// insert numbers the new key next, in the free slot s that ended its
// probe, growing the table at half load, and returns its number.
func (x *idKeys) insert(key []dict.ID, s int) int32 {
	j := x.n
	x.n++
	x.keys = append(x.keys, key...)
	if 2*int(x.n) <= len(x.slots) {
		x.slots[s] = j + 1
		return j
	}
	x.slots, x.shift = newSlots(int(x.n))
	mask := len(x.slots) - 1
	for k := range x.n {
		i := int((x.hash(x.key(k)) * fib) >> x.shift)
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = k + 1
	}
	return j
}
