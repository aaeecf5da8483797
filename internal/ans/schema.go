// Package ans implements analytical schemas (AnS) — the "lenses" of the
// RDF analytics framework the paper builds on.
//
// An AnS is a labeled directed graph: each node is an analysis class
// defined by a unary BGP query over the base RDF graph, each edge an
// analysis property defined by a binary BGP query. Node and edge queries
// are completely independent, which is what lets an AnS describe
// heterogeneous RDF data — a resource can belong to a class without
// having values for any of the class's properties.
//
// Materializing an AnS over a base graph produces its instance: an RDF
// graph (sharing the base dictionary) holding one `u rdf:type C` triple
// per node-query answer and one `s p o` triple per edge-query answer.
// Analytical queries are evaluated over this instance.
package ans

import (
	"fmt"

	"rdfcube/internal/bgp"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// Node is an analysis class: a class IRI plus its defining unary query.
type Node struct {
	// Class is the analysis class IRI introduced by the schema.
	Class rdf.Term
	// Query is the defining unary query (one head variable) over the
	// base graph.
	Query *sparql.Query
}

// Edge is an analysis property: a property IRI, its endpoints, and its
// defining binary query.
type Edge struct {
	// Property is the analysis property IRI introduced by the schema.
	Property rdf.Term
	// From and To name the class IRIs this edge connects in the schema
	// graph (informational; the framework does not constrain instances
	// to them).
	From, To rdf.Term
	// Query is the defining binary query (two head variables).
	Query *sparql.Query
}

// Schema is an analytical schema: a set of analysis classes and
// properties with their defining queries.
type Schema struct {
	Name  string
	Nodes []Node
	Edges []Edge
}

// AddNode declares an analysis class.
func (s *Schema) AddNode(class rdf.Term, q *sparql.Query) {
	s.Nodes = append(s.Nodes, Node{Class: class, Query: q})
}

// AddEdge declares an analysis property between two classes.
func (s *Schema) AddEdge(property, from, to rdf.Term, q *sparql.Query) {
	s.Edges = append(s.Edges, Edge{Property: property, From: from, To: to, Query: q})
}

// Node returns the node declaring class, or nil.
func (s *Schema) Node(class rdf.Term) *Node {
	for i := range s.Nodes {
		if s.Nodes[i].Class == class {
			return &s.Nodes[i]
		}
	}
	return nil
}

// Edge returns the edge declaring property, or nil.
func (s *Schema) Edge(property rdf.Term) *Edge {
	for i := range s.Edges {
		if s.Edges[i].Property == property {
			return &s.Edges[i]
		}
	}
	return nil
}

// Validate checks the schema: class/property IRIs well-formed and unique,
// node queries unary, edge queries binary, edge endpoints declared.
func (s *Schema) Validate() error {
	classes := map[rdf.Term]bool{}
	for _, n := range s.Nodes {
		if !n.Class.IsIRI() {
			return fmt.Errorf("ans: node class %s is not an IRI", n.Class)
		}
		if classes[n.Class] {
			return fmt.Errorf("ans: duplicate node class %s", n.Class)
		}
		classes[n.Class] = true
		if n.Query == nil {
			return fmt.Errorf("ans: node %s has no defining query", n.Class)
		}
		if err := n.Query.Validate(); err != nil {
			return fmt.Errorf("ans: node %s: %w", n.Class, err)
		}
		if len(n.Query.Head) != 1 {
			return fmt.Errorf("ans: node %s query must be unary, has %d head variables", n.Class, len(n.Query.Head))
		}
	}
	props := map[rdf.Term]bool{}
	for _, e := range s.Edges {
		if !e.Property.IsIRI() {
			return fmt.Errorf("ans: edge property %s is not an IRI", e.Property)
		}
		if props[e.Property] {
			return fmt.Errorf("ans: duplicate edge property %s", e.Property)
		}
		props[e.Property] = true
		if e.Query == nil {
			return fmt.Errorf("ans: edge %s has no defining query", e.Property)
		}
		if err := e.Query.Validate(); err != nil {
			return fmt.Errorf("ans: edge %s: %w", e.Property, err)
		}
		if len(e.Query.Head) != 2 {
			return fmt.Errorf("ans: edge %s query must be binary, has %d head variables", e.Property, len(e.Query.Head))
		}
		if e.From.IsValid() && !classes[e.From] {
			return fmt.Errorf("ans: edge %s references undeclared class %s", e.Property, e.From)
		}
		if e.To.IsValid() && !classes[e.To] {
			return fmt.Errorf("ans: edge %s references undeclared class %s", e.Property, e.To)
		}
	}
	return nil
}

// Materialize evaluates every node and edge query on base and returns
// the AnS instance as a new store sharing base's dictionary, bulk-loaded
// with one AddBatch (so it has no pending delta); base is only read.
func (s *Schema) Materialize(base *store.Store) (*store.Store, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	d := base.Dict()
	var ts []store.IDTriple
	typeID := d.Encode(rdf.Type)
	for _, n := range s.Nodes {
		classID := d.Encode(n.Class)
		res, err := bgp.EvalSet(base, n.Query)
		if err != nil {
			return nil, fmt.Errorf("ans: node %s: %w", n.Class, err)
		}
		for _, row := range res.Rows {
			ts = append(ts, store.IDTriple{S: row[0], P: typeID, O: classID})
		}
	}
	for _, e := range s.Edges {
		propID := d.Encode(e.Property)
		res, err := bgp.EvalSet(base, e.Query)
		if err != nil {
			return nil, fmt.Errorf("ans: edge %s: %w", e.Property, err)
		}
		for _, row := range res.Rows {
			ts = append(ts, store.IDTriple{S: row[0], P: propID, O: row[1]})
		}
	}
	inst := store.NewWithDict(d)
	inst.AddBatch(ts)
	return inst, nil
}

// CheckQuery verifies that q is homomorphic to the schema: every triple
// pattern either has predicate rdf:type with a declared analysis class as
// object, or a declared analysis property as predicate. Classifier and
// measure queries of analytical queries must pass this check.
func (s *Schema) CheckQuery(q *sparql.Query) error {
	classes := map[rdf.Term]bool{}
	for _, n := range s.Nodes {
		classes[n.Class] = true
	}
	props := map[rdf.Term]bool{}
	for _, e := range s.Edges {
		props[e.Property] = true
	}
	for _, tp := range q.Patterns {
		if tp.P.IsVar() {
			return fmt.Errorf("ans: pattern %s has a variable predicate; AnQ queries must use schema properties", tp)
		}
		p := tp.P.Term
		if p == rdf.Type {
			if tp.O.IsVar() {
				return fmt.Errorf("ans: pattern %s: rdf:type object must be a declared class", tp)
			}
			if !classes[tp.O.Term] {
				return fmt.Errorf("ans: pattern %s: %s is not a class of schema %q", tp, tp.O.Term, s.Name)
			}
			continue
		}
		if !props[p] {
			return fmt.Errorf("ans: pattern %s: %s is not a property of schema %q", tp, p, s.Name)
		}
	}
	return nil
}
