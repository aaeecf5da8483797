package viewreg

// Syntactic rewriting detection: given a materialized query Q and a
// candidate query Q_T, decide which of the paper's rewritings
// (Propositions 1-3) answers Q_T from pres(Q)/ans(Q).
// Detection is purely syntactic — classifier/measure bodies must match
// pattern for pattern (order-insensitive) with identical variable names,
// the aggregation function must be identical, and Σ must relate by
// refinement — which is exactly what holds when clients transform each
// other's queries with the OLAP operations.
//
// The file also defines the two query fingerprints the registry indexes
// by (built on internal/hash64):
//
//   - the family key groups every query that shares root, measure,
//     aggregation function and classifier *body* — the precondition of
//     all five strategies — so lookup scans one bucket, not the registry;
//   - the exact key additionally canonicalizes the dimension head and Σ,
//     identifying queries with identical answers; it keys the
//     single-flight table that collapses concurrent identical
//     evaluations.

import (
	"sort"

	"rdfcube/internal/core"
	"rdfcube/internal/hash64"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
)

type headRelationKind int

const (
	headUnrelated headRelationKind = iota
	headEqual
	headSubset   // candidate's dims ⊂ entry's dims (drill-out candidate)
	headSuperset // candidate's dims ⊃ entry's dims (drill-in candidate)
)

// headRelation compares classifier heads. The root (first variable) must
// match; dimension order is irrelevant.
func headRelation(eHead, qHead []string) headRelationKind {
	if len(eHead) == 0 || len(qHead) == 0 || eHead[0] != qHead[0] {
		return headUnrelated
	}
	eDims := toSet(eHead[1:])
	qDims := toSet(qHead[1:])
	eInQ, qInE := true, true
	for d := range eDims {
		if !qDims[d] {
			eInQ = false
		}
	}
	for d := range qDims {
		if !eDims[d] {
			qInE = false
		}
	}
	switch {
	case eInQ && qInE:
		return headEqual
	case qInE:
		return headSubset
	case eInQ:
		return headSuperset
	default:
		return headUnrelated
	}
}

func toSet(ss []string) map[string]bool {
	out := make(map[string]bool, len(ss))
	for _, s := range ss {
		out[s] = true
	}
	return out
}

// missingDims returns the elements of all that are absent from kept,
// preserving all's order.
func missingDims(all, kept []string) []string {
	k := toSet(kept)
	var out []string
	for _, d := range all {
		if !k[d] {
			out = append(out, d)
		}
	}
	return out
}

// sameMeasure reports whether the two queries' measures are syntactically
// identical (same head, same body patterns up to order).
func sameMeasure(a, b *core.Query) bool {
	if len(a.Measure.Head) != len(b.Measure.Head) {
		return false
	}
	for i := range a.Measure.Head {
		if a.Measure.Head[i] != b.Measure.Head[i] {
			return false
		}
	}
	return sameBody(a.Measure, b.Measure)
}

// sameBody reports whether two queries have the same pattern multiset.
func sameBody(a, b *sparql.Query) bool {
	if len(a.Patterns) != len(b.Patterns) {
		return false
	}
	ka := patternKeys(a)
	kb := patternKeys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func patternKeys(q *sparql.Query) []string {
	keys := make([]string, len(q.Patterns))
	for i, tp := range q.Patterns {
		keys[i] = tp.String()
	}
	sort.Strings(keys)
	return keys
}

// sigmaEqual reports Σ_a == Σ_b (same restricted dims, same value sets).
func sigmaEqual(a, b core.Sigma) bool {
	if len(a) != len(b) {
		return false
	}
	for dim, va := range a {
		vb, ok := b[dim]
		if !ok || !sameTermSet(va, vb) {
			return false
		}
	}
	return true
}

// sigmaEqualOn reports Σ_a == Σ_b restricted to the given dimensions.
func sigmaEqualOn(a, b core.Sigma, dims []string) bool {
	for _, d := range dims {
		va, aOK := a[d]
		vb, bOK := b[d]
		if aOK != bOK {
			return false
		}
		if aOK && !sameTermSet(va, vb) {
			return false
		}
	}
	return true
}

// sigmaRefines reports whether Σ_q refines Σ_e: every restriction of e
// is at least as strong in q (q's value sets are subsets), so filtering
// e's cube by Σ_q yields exactly q's cube.
func sigmaRefines(e, q core.Sigma) bool {
	for dim, ve := range e {
		vq, ok := q[dim]
		if !ok {
			// q relaxes a restriction of e: e's cube lacks the cells q
			// needs; not a refinement.
			return false
		}
		if !termSubset(vq, ve) {
			return false
		}
	}
	return true
}

func sameTermSet(a, b []rdf.Term) bool {
	if len(a) != len(b) {
		return false
	}
	return termSubset(a, b) && termSubset(b, a)
}

func termSubset(sub, super []rdf.Term) bool {
	set := make(map[rdf.Term]bool, len(super))
	for _, t := range super {
		set[t] = true
	}
	for _, t := range sub {
		if !set[t] {
			return false
		}
	}
	return true
}

// sameAnswerShape reports whether two queries are answer-identical
// including dimension order, so one's cube relation can be returned for
// the other verbatim. Used to verify single-flight coalescing; stricter
// than the cached strategy (which tolerates permuted dimension heads).
func sameAnswerShape(a, b *core.Query) bool {
	if a.Agg.Name() != b.Agg.Name() || !sameMeasure(a, b) || !sameBody(a.Classifier, b.Classifier) {
		return false
	}
	if len(a.Classifier.Head) != len(b.Classifier.Head) {
		return false
	}
	for i := range a.Classifier.Head {
		if a.Classifier.Head[i] != b.Classifier.Head[i] {
			return false
		}
	}
	return sigmaEqual(a.Sigma, b.Sigma)
}

// Fingerprints. Byte-wise FNV-1a over the canonical rendering, reusing
// the hash64 parameters shared by the query layers. Keys gate which
// entries are *scanned* and which evaluations *coalesce*; every consumer
// re-verifies candidates structurally, so a collision costs a comparison
// (or a redundant evaluation), never correctness.

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hash64.Prime
	}
	// Field separator: keeps ("ab","c") distinct from ("a","bc").
	return (h ^ 0x1f) * hash64.Prime
}

// familyKey fingerprints the rewrite-compatibility family of q: root
// variable, aggregation function, measure head and body, classifier body.
// Two queries related by SLICE/DICE/DRILL-OUT/DRILL-IN always share it.
func familyKey(q *core.Query) uint64 {
	h := uint64(hash64.Offset)
	h = mixString(h, q.Root())
	h = mixString(h, q.Agg.Name())
	for _, v := range q.Measure.Head {
		h = mixString(h, v)
	}
	for _, k := range patternKeys(q.Measure) {
		h = mixString(h, k)
	}
	h = mixString(h, "\x00")
	for _, k := range patternKeys(q.Classifier) {
		h = mixString(h, k)
	}
	return h
}

// Fingerprint returns q's canonical exact fingerprint — the same key
// the registry's single-flight and negative-cache tables use. The
// server tags traces and the workload profiler with it, so the
// profiler's per-shape reuse counts line up with the registry's
// admission decisions.
func Fingerprint(q *core.Query) uint64 {
	return exactKey(familyKey(q), q)
}

// exactKey extends q's family key with the canonicalized dimension set
// and Σ, fingerprinting the answer itself (up to dimension order).
func exactKey(fam uint64, q *core.Query) uint64 {
	dims := append([]string(nil), q.Dims()...)
	sort.Strings(dims)
	h := fam
	for _, d := range dims {
		h = mixString(h, d)
		vals, ok := q.Sigma[d]
		if !ok {
			continue
		}
		h = mixString(h, "\x01")
		ss := make([]string, len(vals))
		for i, t := range vals {
			ss[i] = t.String()
		}
		sort.Strings(ss)
		for _, s := range ss {
			h = mixString(h, s)
		}
	}
	return h
}
