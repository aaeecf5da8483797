package store

import "rdfcube/internal/dict"

// Stats exposes cardinality statistics for query optimization.
type Stats struct {
	// Triples is the total triple count.
	Triples int
	// Predicates is the number of distinct predicates.
	Predicates int
}

// Stats returns store-level statistics.
func (st *Store) Stats() Stats {
	return Stats{Triples: st.Len(), Predicates: len(st.predCount)}
}

// PredicateCount returns the number of triples with predicate p.
func (st *Store) PredicateCount(p dict.ID) int { return st.predCount[p] }

// DistinctSubjects returns the number of distinct subjects of predicate
// p: the base's precomputed O(1) count plus — with a pending delta — the
// O(log d) count of p's delta triples, an upper bound that keeps the
// only consumer (the BGP cardinality estimator) off an O(triples-of-p)
// walk on the hot planning path.
func (st *Store) DistinctSubjects(p dict.ID) int {
	return st.frz.predDistinctS[p] + st.dlt.count(Pattern{P: p})
}

// DistinctObjects returns the number of distinct objects of predicate p
// (an upper bound under a pending delta, like DistinctSubjects).
func (st *Store) DistinctObjects(p dict.ID) int {
	return st.frz.predDistinctO[p] + st.dlt.count(Pattern{P: p})
}

// DistinctSubjectsAll returns the number of distinct subjects in the
// store (any predicate): the SPO directory keys count the base exactly
// and the delta size is added as an upper bound — the only consumer is
// the cardinality estimator.
func (st *Store) DistinctSubjectsAll() int {
	return len(st.frz.spo.keys) + st.dlt.len()
}

// DistinctObjectsAll returns the number of distinct objects in the store
// (any predicate), with the same bound as DistinctSubjectsAll.
func (st *Store) DistinctObjectsAll() int {
	return len(st.frz.osp.keys) + st.dlt.len()
}

// EstimateCardinality estimates the number of triples matching pat for
// the BGP optimizer's join ordering. Every shape resolves to an exact
// range length through the offset directories (O(log n)), plus the
// delta range when writes are pending.
func (st *Store) EstimateCardinality(pat Pattern) float64 {
	return float64(st.Count(pat))
}
