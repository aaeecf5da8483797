// Package rdfcube is an OLAP engine for RDF analytics, reproducing
// "Efficient OLAP Operations For RDF Analytics" (Akbari Azirani,
// Goasdoué, Manolescu, Roatiş; DESWeb @ ICDE 2015).
//
// The library provides, bottom to top:
//
//   - an in-memory, dictionary-encoded RDF triple store with N-Triples /
//     Turtle-lite I/O and RDFS saturation;
//   - conjunctive (BGP) queries in the paper's datalog-style syntax,
//     evaluated with statistics-driven join ordering;
//   - analytical schemas (AnS): lenses whose node and edge queries
//     restructure a base graph into an analysis-ready instance;
//   - analytical queries (AnQ): ⟨classifier, measure, ⊕⟩ cubes over an
//     AnS instance, with multi-valued dimensions and bag-semantics
//     measures;
//   - the four OLAP operations (SLICE, DICE, DRILL-OUT, DRILL-IN) as
//     query transformations, and the paper's view-based rewriting
//     algorithms that answer a transformed cube from the materialized
//     partial result pres(Q) or answer ans(Q) of the original query;
//   - a Session (the view registry) that applies those rewritings on its
//     own: it answers each query by the cheapest applicable strategy and
//     keeps its materialized views maintained across instance writes.
//
// # Quick start
//
//	base := rdfcube.NewGraph()
//	// ... load triples (rdfcube.ReadNTriples) ...
//	rdfcube.Saturate(base)
//	inst, _ := schema.Materialize(base)
//	q, _ := rdfcube.NewQuery(classifier, measure, rdfcube.Count)
//	ev := rdfcube.NewEvaluator(inst)
//	cube, _ := ev.Answer(q)
//
// See examples/ for complete programs.
package rdfcube

import (
	"io"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/ans"
	"rdfcube/internal/bgp"
	"rdfcube/internal/core"
	"rdfcube/internal/export"
	"rdfcube/internal/incr"
	"rdfcube/internal/nt"
	"rdfcube/internal/rdf"
	"rdfcube/internal/rdfs"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
	"rdfcube/internal/viewreg"
)

// Re-exported data-model types.
type (
	// Term is an RDF term (IRI, literal or blank node).
	Term = rdf.Term
	// Triple is an RDF statement.
	Triple = rdf.Triple
	// Graph is an indexed, dictionary-encoded triple store.
	Graph = store.Store
	// BGPQuery is a conjunctive (basic graph pattern) query.
	BGPQuery = sparql.Query
	// Prefixes maps prefix names to namespace IRIs for the parsers.
	Prefixes = sparql.Prefixes
	// Schema is an analytical schema (AnS).
	Schema = ans.Schema
	// Query is an (extended) analytical query (AnQ).
	Query = core.Query
	// Sigma is the dimension-restriction function of extended AnQs.
	Sigma = core.Sigma
	// Evaluator answers analytical queries over an AnS instance.
	Evaluator = core.Evaluator
	// Cube is a relation: ans(Q) cubes, pres(Q) partial results.
	Cube = algebra.Relation
	// CubeCell is a decoded cube row.
	CubeCell = core.CubeCell
	// AggFunc is an aggregation function ⊕.
	AggFunc = agg.Func
	// BindingTable is a BGP evaluation result.
	BindingTable = bgp.Result
)

// Aggregation functions.
var (
	Count         = agg.Count
	Sum           = agg.Sum
	Avg           = agg.Avg
	Min           = agg.Min
	Max           = agg.Max
	CountDistinct = agg.CountDistinct
)

// Term constructors.
var (
	NewIRI          = rdf.NewIRI
	NewLiteral      = rdf.NewLiteral
	NewTypedLiteral = rdf.NewTypedLiteral
	NewLangLiteral  = rdf.NewLangLiteral
	NewInt          = rdf.NewInt
	NewFloat        = rdf.NewFloat
	NewBool         = rdf.NewBool
	NewBlank        = rdf.NewBlank
	NewTriple       = rdf.NewTriple
)

// NewGraph returns an empty triple store.
func NewGraph() *Graph { return store.New() }

// WriteFrozenSnapshot serializes g in the frozen binary snapshot format
// (v2): front-coded dictionary plus the sorted columnar indexes, so
// OpenFrozenSnapshot loads it without re-sorting or rebuilding. Any
// pending writes are compacted in first.
func WriteFrozenSnapshot(g *Graph, w io.Writer) error { return g.WriteFrozenSnapshot(w) }

// OpenFrozenSnapshot loads a binary snapshot written by
// WriteFrozenSnapshot (or the legacy flat format of rdfcubed's GET
// /snapshot); the returned graph is frozen and ready to query.
func OpenFrozenSnapshot(r io.Reader) (*Graph, error) { return store.OpenFrozenSnapshot(r) }

// ReadNTriples bulk-loads an N-Triples / Turtle-lite document into g:
// the parsed triples (up to a parse error, if any) are added with one
// AddBatch, so g comes back with no pending delta. It returns the
// number of distinct triples added.
func ReadNTriples(g *Graph, r io.Reader) (int, error) {
	var ts []store.IDTriple
	rd := nt.NewReader(r)
	t, err := rd.Next()
	for ; err == nil; t, err = rd.Next() {
		ts = append(ts, g.EncodeTriple(t))
	}
	if err == io.EOF {
		err = nil
	}
	return len(g.AddBatch(ts)), err
}

// WriteNTriples serializes every triple of g to w in N-Triples syntax.
func WriteNTriples(g *Graph, w io.Writer) error {
	wr := nt.NewWriter(w)
	d := g.Dict()
	var outErr error
	g.ForEach(store.Pattern{}, func(t store.IDTriple) bool {
		tr, ok := d.DecodeTriple(t.S, t.P, t.O)
		if !ok {
			return true
		}
		if err := wr.Write(tr); err != nil {
			outErr = err
			return false
		}
		return true
	})
	if outErr != nil {
		return outErr
	}
	return wr.Flush()
}

// Saturate applies RDFS entailment rules to g until fixpoint and returns
// the number of derived triples.
func Saturate(g *Graph) int { return rdfs.Saturate(g) }

// ParseQuery parses a BGP query in the paper's datalog notation, e.g.
//
//	c(x, dage) :- x rdf:type :Blogger, x :hasAge dage
func ParseQuery(text string, prefixes Prefixes) (*BGPQuery, error) {
	return sparql.ParseDatalog(text, prefixes)
}

// ParseTerm parses a constant RDF term in the datalog surface syntax
// (<IRI>, prefixed:name, quoted literal, integer, float, _:blank).
func ParseTerm(text string, prefixes Prefixes) (Term, error) {
	return sparql.ParseTerm(text, prefixes)
}

// DefaultPrefixes returns the rdf/rdfs/xsd prefix table.
func DefaultPrefixes() Prefixes { return sparql.DefaultPrefixes() }

// EvalBGP evaluates a BGP query over g with set semantics.
func EvalBGP(g *Graph, q *BGPQuery) (*BindingTable, error) { return bgp.EvalSet(g, q) }

// NewQuery constructs and validates an analytical query
// ⟨classifier, measure, ⊕⟩.
func NewQuery(classifier, measure *BGPQuery, f AggFunc) (*Query, error) {
	return core.New(classifier, measure, f)
}

// NewEvaluator returns an evaluator over the AnS instance inst.
func NewEvaluator(inst *Graph) *Evaluator { return core.NewEvaluator(inst) }

// AggByName resolves an aggregation function name ("count", "sum",
// "avg", "min", "max", "countdistinct").
func AggByName(name string) (AggFunc, error) { return agg.ByName(name) }

// The OLAP operations (Section 2) as query transformations.
var (
	// SliceOp binds one dimension to a single value.
	SliceOp = core.Slice
	// DiceOp restricts several dimensions to value sets.
	DiceOp = core.Dice
	// DrillOutOp removes dimensions from the classifier.
	DrillOutOp = core.DrillOut
	// DrillInOp adds existential classifier variables as dimensions.
	DrillInOp = core.DrillIn
)

// DecodeCube renders a cube's rows with terms resolved through g's
// dictionary.
func DecodeCube(c *Cube, g *Graph) []CubeCell { return core.DecodeCube(c, g.Dict()) }

// CubesEqual reports whether two cubes hold identical bags of rows.
func CubesEqual(a, b *Cube) bool { return algebra.Equal(a, b) }

// Session-level reuse: a Session answers successive analytical queries,
// automatically detecting when a new query is a SLICE/DICE/DRILL-OUT/
// DRILL-IN of a previously materialized one and applying the paper's
// rewriting instead of re-evaluating (the problem statement of Figure 2).
// It is the view registry rdfcubed serves from, so it is safe for
// concurrent use. To write to its instance, call Instance().Add and
// then NotifyWrite, in one critical section that no Answer runs
// beside: the registered views are maintained through the write
// rather than dropped.
type (
	// Session is a materialized-view registry over one AnS instance.
	Session = viewreg.Registry
	// Strategy names how a Session answered a query ("cached",
	// "dice-rewrite", "drillout-rewrite", "drillin-rewrite", "direct").
	Strategy = viewreg.Strategy
)

// NewSession returns an unbounded session over the AnS instance inst;
// SetLimits bounds it.
func NewSession(inst *Graph) *Session { return viewreg.New(inst, viewreg.Config{}) }

// MaintainedPres is a pres(Q) materialization that absorbs instance
// insertions incrementally (Δ-rules over Definition 4), keeping the
// rewriting algorithms valid under updates without recomputation.
type MaintainedPres = incr.MaintainedPres

// NewMaintainedPres fully evaluates q and returns a maintained pres(Q);
// feed updates through its Insert method.
func NewMaintainedPres(ev *Evaluator, q *Query) (*MaintainedPres, error) {
	return incr.New(ev, q)
}

// ExportOptions controls cube rendering (dictionary, prefix
// abbreviation, sorting).
type ExportOptions = export.Options

// WriteCube renders a cube to w in the given format: "text" (aligned
// table), "csv", or "json".
func WriteCube(w io.Writer, c *Cube, g *Graph, format string, prefixes Prefixes) error {
	return export.Format(w, c, format, export.Options{
		Dict:     g.Dict(),
		Prefixes: prefixes,
		SortRows: true,
	})
}
