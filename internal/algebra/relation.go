// Package algebra implements a small bag-semantics relational algebra —
// selection σ, projection π, duplicate elimination δ, grouping with
// aggregation γ, and hash joins ⋈ — over tables whose cells are RDF term
// IDs, numbers, or the synthetic keys of extended measure results.
//
// Section 3 of the paper expresses its rewriting algorithms in exactly
// these operators ("all relational algebra operators are assumed to have
// bag semantics"); the core package executes Algorithms 1 and 2 and
// Equation 3 as algebra programs on pres(Q). γ and δ read only the
// columns they group on and aggregate, so a π in front of them is never
// materialized: δ takes the columns it keys on and keeps whole input
// rows, shared. γ over a join is one operator, JoinAggregate (join.go),
// which feeds each match of the probe straight into γ, so the joined
// rows are never built; JoinAggregateIDs (idjoin.go) is the same pass
// on rows of dictionary IDs, boxing only its output into Values. γ, δ
// and JoinAggregate run on one grouping primitive, Cube (cube.go), an
// open-addressed cell table; ⋈ and Equal build on a table of the same
// layout, with a chain of equal-key rows per slot, and JoinAggregateIDs
// keys its roots, terms and cells on tables of that layout too. ⋈ and π
// carve their output rows from shared cell blocks instead of allocating
// each row. Rows are never written after they are built, which is what
// lets operators share them.
package algebra

import (
	"fmt"
	"math"
	"slices"

	"rdfcube/internal/agg"
	"rdfcube/internal/dict"
	"rdfcube/internal/hash64"
)

// ValueKind discriminates cell types.
type ValueKind uint8

// Cell kinds: an RDF term ID, a numeric aggregate, or a measure key
// produced by newk() (Section 3, extended measure result).
const (
	TermValue ValueKind = iota + 1
	NumValue
	KeyValue
)

// Value is one relation cell. Values are comparable; equality is
// structural.
type Value struct {
	Kind ValueKind
	ID   dict.ID // TermValue
	Num  float64 // NumValue
	Key  uint64  // KeyValue
}

// TermV wraps a dictionary ID as a cell.
func TermV(id dict.ID) Value { return Value{Kind: TermValue, ID: id} }

// NumV wraps a number as a cell.
func NumV(f float64) Value { return Value{Kind: NumValue, Num: f} }

// KeyV wraps a measure key as a cell.
func KeyV(k uint64) Value { return Value{Kind: KeyValue, Key: k} }

// String renders the cell for debugging and table output.
func (v Value) String() string {
	switch v.Kind {
	case TermValue:
		return fmt.Sprintf("t%d", v.ID)
	case NumValue:
		if v.Num == math.Trunc(v.Num) && math.Abs(v.Num) < 1e15 {
			return fmt.Sprintf("%d", int64(v.Num))
		}
		return fmt.Sprintf("%g", v.Num)
	case KeyValue:
		return fmt.Sprintf("k%d", v.Key)
	default:
		return "?"
	}
}

// Row is one tuple.
type Row []Value

// Relation is a named-column table with bag semantics: duplicate rows are
// meaningful until an explicit δ.
type Relation struct {
	Cols []string
	Rows []Row
}

// NewRelation returns an empty relation with the given columns.
func NewRelation(cols ...string) *Relation {
	return &Relation{Cols: append([]string(nil), cols...)}
}

// Len reports the number of rows (with duplicates).
func (r *Relation) Len() int { return len(r.Rows) }

// Byte-footprint model: cells dominate; the estimate charges the Value
// array, the per-row slice header, and the column names, deliberately
// ignoring allocator slack. Shared by the view registry's byte budget
// and the per-query cost accounting.
const (
	valueBytes  = 32 // unsafe.Sizeof(Value{}) on 64-bit
	rowOverhead = 24 // slice header per row
	relOverhead = 64 // Relation struct + slice headers
)

// EstimateBytes estimates the relation's resident size. Nil-safe.
func (r *Relation) EstimateBytes() int64 {
	if r == nil {
		return 0
	}
	b := int64(relOverhead)
	for _, c := range r.Cols {
		b += int64(16 + len(c))
	}
	b += int64(len(r.Rows)) * (rowOverhead + int64(len(r.Cols))*valueBytes)
	return b
}

// Column returns the index of col, or -1.
func (r *Relation) Column(col string) int {
	for i, c := range r.Cols {
		if c == col {
			return i
		}
	}
	return -1
}

// MustColumn returns the index of col, panicking if absent; for internal
// invariants.
func (r *Relation) MustColumn(col string) int {
	i := r.Column(col)
	if i < 0 {
		panic(fmt.Sprintf("algebra: no column %q in %v", col, r.Cols))
	}
	return i
}

// Append adds a row; the row length must match the column count.
func (r *Relation) Append(row Row) {
	if len(row) != len(r.Cols) {
		panic(fmt.Sprintf("algebra: row width %d != %d columns", len(row), len(r.Cols)))
	}
	r.Rows = append(r.Rows, row)
}

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation {
	out := &Relation{Cols: append([]string(nil), r.Cols...)}
	out.Rows = make([]Row, len(r.Rows))
	for i, row := range r.Rows {
		out.Rows[i] = append(Row(nil), row...)
	}
	return out
}

// Select returns σ_pred(r): the rows satisfying pred, bag semantics.
func (r *Relation) Select(pred func(Row) bool) *Relation {
	out := &Relation{Cols: append([]string(nil), r.Cols...)}
	for _, row := range r.Rows {
		if pred(row) {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// Project returns π_cols(r) with bag semantics (duplicates retained).
// The projected rows are carved from one cell block. Projecting onto
// r's own column order copies no cell: the result shares r's rows, which
// no operator writes into.
func (r *Relation) Project(cols ...string) *Relation {
	out := &Relation{Cols: append([]string(nil), cols...)}
	if slices.Equal(cols, r.Cols) {
		out.Rows = slices.Clone(r.Rows)
		return out
	}
	idx := r.indexes(cols)
	w := len(idx)
	out.Rows = make([]Row, len(r.Rows))
	block := make([]Value, w*len(r.Rows))
	for i, row := range r.Rows {
		nr := block[w*i : w*i+w : w*i+w]
		for j, c := range idx {
			nr[j] = row[c]
		}
		out.Rows[i] = nr
	}
	return out
}

// Dedup returns δ over the columns cols, every column when none are
// named: the first row of each distinct cols-tuple, in input order. This
// is the deduplication step of Algorithm 1, which repairs the fact
// duplication caused by projecting out a multi-valued dimension. The
// rows are r's own, shared and whole, so δ on cols followed by an
// operator that reads only cols equals that operator over δ∘π_cols,
// without π's copy. δ is γ on cols without accumulators, so it runs
// γ's grouping pass (parallel.go).
func (r *Relation) Dedup(cols ...string) *Relation {
	if len(cols) == 0 {
		cols = r.Cols
	}
	cubes := r.plainPass(r.indexes(cols), -1, nil, nil).run()
	total := 0
	for _, cb := range cubes {
		total += cb.Len()
	}
	out := &Relation{Cols: append([]string(nil), r.Cols...), Rows: make([]Row, 0, total)}
	eachCell(cubes, func(cb *Cube, j int) {
		out.Rows = append(out.Rows, r.Rows[cb.cells[j].l])
	})
	return out
}

// indexes returns the positions of cols, panicking on an absent one.
func (r *Relation) indexes(cols []string) []int {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = r.MustColumn(c)
	}
	return idx
}

// Hashing: column subsets and γ keys are keyed by a word-wise FNV-1a
// hash of (kind, payload-bits) pairs instead of allocated string keys.
// Every hash lookup verifies candidates cell by cell with valueEqualBits,
// so collisions cost a comparison, never correctness. NumValue cells
// compare by bit pattern, preserving the previous string-key semantics
// (NaN equals NaN, -0 differs from +0).

func valueBits(v Value) uint64 {
	switch v.Kind {
	case TermValue:
		return uint64(v.ID)
	case NumValue:
		return math.Float64bits(v.Num)
	default:
		return v.Key
	}
}

func mixValue(h uint64, v Value) uint64 {
	return hash64.Mix(hash64.Mix(h, uint64(v.Kind)), valueBits(v))
}

// hashCols hashes the cells at the given column indexes.
func hashCols(row Row, idx []int) uint64 {
	h := uint64(hash64.Offset)
	for _, c := range idx {
		h = mixValue(h, row[c])
	}
	return h
}

func valueEqualBits(a, b Value) bool {
	return a.Kind == b.Kind && valueBits(a) == valueBits(b)
}

// colsEqualBits compares a[aIdx[i]] to b[bIdx[i]] for all i.
func colsEqualBits(a Row, aIdx []int, b Row, bIdx []int) bool {
	for i := range aIdx {
		if !valueEqualBits(a[aIdx[i]], b[bIdx[i]]) {
			return false
		}
	}
	return true
}

// NumericResolver supplies the numeric interpretation of a term ID, used
// by γ to feed sum/avg/min/max. The core package passes a resolver backed
// by the term dictionary.
type NumericResolver func(id dict.ID) (float64, bool)

// GroupAggregate returns γ_{groupCols, ⊕(valueCol)}(r): one output row
// per distinct group, carrying the group columns followed by a NumValue
// column named aggCol with the aggregate of valueCol.
//
// Groups whose accumulator reports no result (empty measure bag for
// functions requiring numeric input) are dropped, matching Definition 1's
// "if qj(I) is empty, the fact does not contribute to the cube".
// Output group order is deterministic (first-seen order), whether the
// grouping pass runs on one Cube or fans out across CPUs (parallel.go).
func (r *Relation) GroupAggregate(groupCols []string, valueCol, aggCol string, f agg.Func, resolve NumericResolver) *Relation {
	cubes := r.plainPass(r.indexes(groupCols), r.MustColumn(valueCol), f, resolve).run()
	out := NewRelation(append(append([]string(nil), groupCols...), aggCol)...)
	out.Rows = aggRows(cubes)
	return out
}

// Sort orders rows lexicographically in place (Kind, then payload) for
// deterministic output: the order CompareRows defines.
func (r *Relation) Sort() {
	slices.SortFunc(r.Rows, CompareRows)
}

// CompareRows orders rows of equal width lexicographically, each cell by
// Kind and then payload; it is the order Sort establishes, so
// slices.IsSortedFunc(r.Rows, CompareRows) tells whether r needs one.
func CompareRows(a, b Row) int {
	for k := range a {
		if c := compareValues(a[k], b[k]); c != 0 {
			return c
		}
	}
	return 0
}

func compareValues(a, b Value) int {
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case TermValue:
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
	case NumValue:
		switch {
		case a.Num < b.Num:
			return -1
		case a.Num > b.Num:
			return 1
		}
	case KeyValue:
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		}
	}
	return 0
}

// Equal reports whether two relations have identical schema and identical
// bags of rows (order-insensitive).
func Equal(a, b *Relation) bool {
	if len(a.Cols) != len(b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	// Multiset comparison on the join build table: a's rows chain by
	// whole-row key, each chain's length is its row's multiplicity in a,
	// and each of b's rows takes one off the count of its chain. Row
	// counts are equal, so every b row finding a count left means the
	// multiplicities agree.
	idx := make([]int, len(a.Cols))
	for i := range idx {
		idx[i] = i
	}
	for _, rel := range []*Relation{a, b} {
		for _, row := range rel.Rows {
			if len(row) != len(idx) {
				return false
			}
		}
	}
	t := newJoinTable(a.Rows, idx)
	left := make([]int32, len(t.slots))
	for s, head := range t.slots {
		for r := head - 1; r >= 0; r = t.next[r] {
			left[s]++
		}
	}
	for _, row := range b.Rows {
		s := t.slot(row, idx, hashCols(row, idx))
		if left[s] == 0 {
			return false
		}
		left[s]--
	}
	return true
}
