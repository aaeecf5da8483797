// Package rdfs implements RDFS entailment by saturation (forward
// chaining to fixpoint) over a triple store.
//
// The rule set is the "database fragment" of RDFS used by the RDF
// analytics framework the paper builds on — the rules that derive new
// data triples from schema triples:
//
//	rdfs2 : (p rdfs:domain c)        ∧ (s p o)        ⇒ (s rdf:type c)
//	rdfs3 : (p rdfs:range c)         ∧ (s p o)        ⇒ (o rdf:type c)
//	rdfs5 : (p rdfs:subPropertyOf q) ∧ (q ⊑ r)        ⇒ (p ⊑ r)
//	rdfs7 : (p rdfs:subPropertyOf q) ∧ (s p o)        ⇒ (s q o)
//	rdfs9 : (c rdfs:subClassOf d)    ∧ (s rdf:type c) ⇒ (s rdf:type d)
//	rdfs11: (c rdfs:subClassOf d)    ∧ (d ⊑ e)        ⇒ (c ⊑ e)
//
// Saturating the base graph before building an analytical-schema instance
// makes node/edge queries see all entailed facts, which is what makes AnS
// instances "semantic-rich".
package rdfs

import (
	"rdfcube/internal/dict"
	"rdfcube/internal/rdf"
	"rdfcube/internal/store"
)

// Saturate forward-chains the RDFS rules on st until fixpoint and returns
// the number of triples added. The store is modified in place.
//
// Strategy: first compute the transitive closures of subClassOf and
// subPropertyOf (rules 5/11) — these touch only schema triples, which are
// few. Then apply the data rules (2/3/7/9) in a semi-naive loop seeded
// with all data triples, re-deriving from newly added triples only. Each
// round's derivations are added with one AddBatch, whose new triples
// are the next round's frontier.
func Saturate(st *store.Store) int {
	d := st.Dict()
	typeID := d.Encode(rdf.Type)
	scID := d.Encode(rdf.SubClassOf)
	spID := d.Encode(rdf.SubPropertyOf)
	domID := d.Encode(rdf.Domain)
	rngID := d.Encode(rdf.Range)

	added := 0

	// Transitive closure of subClassOf / subPropertyOf (rdfs11, rdfs5).
	added += closeTransitive(st, scID)
	added += closeTransitive(st, spID)

	// Super-relation maps for the data rules.
	superClass := relationMap(st, scID)
	superProp := relationMap(st, spID)
	domains := relationMap(st, domID)
	ranges := relationMap(st, rngID)

	// Semi-naive evaluation: the frontier holds triples not yet used as
	// premises of rules 2/3/7/9.
	frontier := st.Match(store.Pattern{})
	for len(frontier) > 0 {
		var derived []store.IDTriple
		derive := func(t store.IDTriple) {
			if !st.ContainsID(t) { // most rounds re-derive known facts
				derived = append(derived, t)
			}
		}
		for _, t := range frontier {
			if t.P == typeID {
				// rdfs9.
				for _, super := range superClass[t.O] {
					derive(store.IDTriple{S: t.S, P: typeID, O: super})
				}
				continue
			}
			// rdfs7.
			for _, super := range superProp[t.P] {
				derive(store.IDTriple{S: t.S, P: super, O: t.O})
			}
			// rdfs2.
			for _, c := range domains[t.P] {
				derive(store.IDTriple{S: t.S, P: typeID, O: c})
			}
			// rdfs3.
			for _, c := range ranges[t.P] {
				derive(store.IDTriple{S: t.O, P: typeID, O: c})
			}
		}
		frontier = st.AddBatch(derived)
		added += len(frontier)
	}
	return added
}

// closeTransitive adds the transitive closure of the binary relation
// encoded by predicate p and returns the number of added triples.
func closeTransitive(st *store.Store, p dict.ID) int {
	succ := relationMap(st, p)
	added := 0
	// Floyd–Warshall-style fixpoint on the (small) schema relation.
	for {
		grew := false
		for a, bs := range succ {
			for _, b := range bs {
				for _, c := range succ[b] {
					if a == c {
						continue // skip reflexive derivations
					}
					if st.AddID(store.IDTriple{S: a, P: p, O: c}) {
						added++
						succ[a] = append(succ[a], c)
						grew = true
					}
				}
			}
		}
		if !grew {
			return added
		}
	}
}

// relationMap materializes predicate p as a subject → objects adjacency map.
func relationMap(st *store.Store, p dict.ID) map[dict.ID][]dict.ID {
	m := make(map[dict.ID][]dict.ID)
	st.ForEach(store.Pattern{P: p}, func(t store.IDTriple) bool {
		m[t.S] = append(m[t.S], t.O)
		return true
	})
	return m
}

// IsSaturated reports whether applying Saturate to a copy of st would add
// nothing, i.e. st is already a fixpoint. Used by tests.
func IsSaturated(st *store.Store) bool {
	cp := store.NewWithDict(st.Dict())
	cp.AddBatch(st.Match(store.Pattern{}))
	return Saturate(cp) == 0
}
