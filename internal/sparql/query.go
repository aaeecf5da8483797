// Package sparql defines the conjunctive (basic graph pattern) query
// model used throughout the library, together with two concrete text
// syntaxes: the paper's datalog-style notation
//
//	q(x, d1) :- x rdf:type :Blogger, x :hasAge d1
//
// and a SPARQL 1.1 SELECT subset
//
//	SELECT ?x ?d1 WHERE { ?x rdf:type :Blogger . ?x :hasAge ?d1 }
//
// Both parse to the same Query value. Queries default to set semantics;
// measure queries in analytical queries are evaluated under bag semantics
// by the evaluator, per the paper.
package sparql

import (
	"fmt"
	"sort"
	"strings"

	"rdfcube/internal/rdf"
)

// Node is one position of a triple pattern: either a variable or a
// constant RDF term.
type Node struct {
	// Var is the variable name when the node is a variable; "" otherwise.
	Var string
	// Term is the constant when the node is not a variable.
	Term rdf.Term
}

// V returns a variable node.
func V(name string) Node { return Node{Var: name} }

// C returns a constant node.
func C(t rdf.Term) Node { return Node{Term: t} }

// IRI returns a constant IRI node.
func IRI(iri string) Node { return Node{Term: rdf.NewIRI(iri)} }

// IsVar reports whether the node is a variable.
func (n Node) IsVar() bool { return n.Var != "" }

// String renders the node in the datalog syntax.
func (n Node) String() string {
	if n.IsVar() {
		return n.Var
	}
	return n.Term.String()
}

// Equal reports structural equality of nodes.
func (n Node) Equal(m Node) bool { return n.Var == m.Var && n.Term == m.Term }

// TriplePattern is one atom of a BGP.
type TriplePattern struct {
	S, P, O Node
}

// String renders the pattern in the datalog syntax.
func (tp TriplePattern) String() string {
	return tp.S.String() + " " + tp.P.String() + " " + tp.O.String()
}

// Vars returns the variable names of the pattern in S, P, O order,
// without duplicates.
func (tp TriplePattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	for _, n := range []Node{tp.S, tp.P, tp.O} {
		if n.IsVar() && !seen[n.Var] {
			seen[n.Var] = true
			out = append(out, n.Var)
		}
	}
	return out
}

// Query is a conjunctive BGP query with a distinguished head.
type Query struct {
	// Name is the query symbol from the datalog head (informational).
	Name string
	// Head lists the distinguished (answer) variables, in order.
	Head []string
	// Patterns is the query body.
	Patterns []TriplePattern
}

// String renders the query in the paper's datalog notation.
func (q *Query) String() string {
	var b strings.Builder
	name := q.Name
	if name == "" {
		name = "q"
	}
	b.WriteString(name)
	b.WriteString("(")
	b.WriteString(strings.Join(q.Head, ", "))
	b.WriteString(") :- ")
	for i, tp := range q.Patterns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(tp.String())
	}
	return b.String()
}

// Clone returns a deep copy of q.
func (q *Query) Clone() *Query {
	cp := &Query{Name: q.Name}
	cp.Head = append([]string(nil), q.Head...)
	cp.Patterns = append([]TriplePattern(nil), q.Patterns...)
	return cp
}

// Vars returns all variable names occurring in the body, sorted.
func (q *Query) Vars() []string {
	seen := map[string]bool{}
	for _, tp := range q.Patterns {
		for _, v := range tp.Vars() {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// ExistentialVars returns the body variables that are not distinguished
// (do not appear in the head), sorted.
func (q *Query) ExistentialVars() []string {
	head := map[string]bool{}
	for _, v := range q.Head {
		head[v] = true
	}
	var out []string
	for _, v := range q.Vars() {
		if !head[v] {
			out = append(out, v)
		}
	}
	return out
}

// HasHeadVar reports whether name is a distinguished variable of q.
func (q *Query) HasHeadVar(name string) bool {
	for _, v := range q.Head {
		if v == name {
			return true
		}
	}
	return false
}

// Validate checks structural well-formedness: non-empty head and body,
// no duplicate head variables, every head variable bound in the body,
// and no literal subjects.
func (q *Query) Validate() error {
	if len(q.Head) == 0 {
		return fmt.Errorf("sparql: query %q has empty head", q.Name)
	}
	if len(q.Patterns) == 0 {
		return fmt.Errorf("sparql: query %q has empty body", q.Name)
	}
	seen := map[string]bool{}
	for _, v := range q.Head {
		if seen[v] {
			return fmt.Errorf("sparql: duplicate head variable %q", v)
		}
		seen[v] = true
	}
	bodyVars := map[string]bool{}
	for _, tp := range q.Patterns {
		if !tp.S.IsVar() && tp.S.Term.IsLiteral() {
			return fmt.Errorf("sparql: literal subject in pattern %s", tp)
		}
		for _, v := range tp.Vars() {
			bodyVars[v] = true
		}
	}
	for _, v := range q.Head {
		if !bodyVars[v] {
			return fmt.Errorf("sparql: head variable %q not bound in body", v)
		}
	}
	return nil
}

// Root returns the first head variable, the distinguished root of a
// rooted BGP (the fact variable of classifiers and measures).
func (q *Query) Root() string {
	if len(q.Head) == 0 {
		return ""
	}
	return q.Head[0]
}

// IsRooted reports whether every body variable is reachable from the root
// variable following triple patterns subject→object, as required of
// classifier and measure queries (Section 2 of the paper).
func (q *Query) IsRooted() bool {
	root := q.Root()
	if root == "" {
		return false
	}
	// Adjacency over variables: s —> o for each pattern; constants do not
	// propagate reachability.
	adj := map[string][]string{}
	for _, tp := range q.Patterns {
		if tp.S.IsVar() && tp.O.IsVar() {
			adj[tp.S.Var] = append(adj[tp.S.Var], tp.O.Var)
		}
		if tp.S.IsVar() && tp.P.IsVar() {
			adj[tp.S.Var] = append(adj[tp.S.Var], tp.P.Var)
		}
	}
	reach := map[string]bool{root: true}
	stack := []string{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !reach[w] {
				reach[w] = true
				stack = append(stack, w)
			}
		}
	}
	for _, v := range q.Vars() {
		if !reach[v] {
			return false
		}
	}
	return true
}
