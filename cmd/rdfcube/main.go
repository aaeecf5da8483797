// Command rdfcube answers an analytical query — optionally after an OLAP
// transformation — over an RDF graph loaded from an N-Triples file.
//
// The tool runs the full pipeline: load → RDFS saturation → evaluate the
// AnQ (the instance is the loaded graph itself; use -schema-free data
// such as the output of cmd/datagen piped through materialization, or
// any graph whose vocabulary the queries match).
//
// Usage:
//
//	rdfcube {-data graph.nt | -load graph.rdfc} \
//	   -classifier 'c(x, dage) :- x rdf:type :Blogger, x :hasAge dage' \
//	   -measure    'm(x, v) :- x :wrotePost p, p :postedOn v' \
//	   -agg count \
//	   [-prefix :=http://example.org/] \
//	   [-updates delta.nt] [-save graph.rdfc] \
//	   [-slice dage=28 | -drillout dage | -drillin d3] \
//	   [-explain]
//
// -updates streams a second N-Triples file into the graph one triple at
// a time *after* the bulk load: the triples land in the store's delta
// overlay (the sorted base survives) and the query is answered over the
// merged base+delta view without a compaction — the CLI face of the
// delta-layer write path.
//
// -save writes the loaded (and saturated/updated) graph as a frozen v2
// snapshot — the same format the rdfcubed daemon checkpoints — and -load
// starts from such a snapshot instead of re-parsing N-Triples, skipping
// saturation and the sort/freeze work entirely. -load also accepts
// legacy v1 flat snapshots.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rdfcube"
	"rdfcube/internal/nt"
	"rdfcube/internal/obs"
)

func main() {
	data := flag.String("data", "", "N-Triples input file (or use -load)")
	load := flag.String("load", "", "binary snapshot input file (v2 frozen or legacy v1)")
	save := flag.String("save", "", "write the prepared graph as a frozen v2 snapshot to this file")
	classifier := flag.String("classifier", "", "classifier query, datalog syntax (required)")
	measure := flag.String("measure", "", "measure query, datalog syntax (required)")
	aggName := flag.String("agg", "count", "aggregation: count, sum, avg, min, max, countdistinct")
	var prefixFlags multiFlag
	flag.Var(&prefixFlags, "prefix", "prefix binding name=IRI (repeatable)")
	sliceSpec := flag.String("slice", "", "SLICE: dim=value")
	diceSpec := flag.String("dice", "", "DICE: dim=v1|v2;dim2=v3|v4")
	drillOut := flag.String("drillout", "", "DRILL-OUT: comma-separated dimensions")
	drillIn := flag.String("drillin", "", "DRILL-IN: existential classifier variable")
	saturate := flag.Bool("saturate", true, "apply RDFS saturation before answering")
	updates := flag.String("updates", "", "N-Triples file applied after loading, through the delta overlay")
	format := flag.String("format", "text", "output format: text, csv or json")
	explain := flag.Bool("explain", false, "print the traced per-operator plan tree (timings, rows, seeks) to stderr")
	flag.Parse()

	if (*data == "") == (*load == "") || *classifier == "" || *measure == "" {
		flag.Usage()
		os.Exit(2)
	}

	prefixes := rdfcube.DefaultPrefixes()
	for _, p := range prefixFlags {
		name, iri, ok := strings.Cut(p, "=")
		if !ok {
			die("bad -prefix %q, want name=IRI", p)
		}
		prefixes[strings.TrimSuffix(name, ":")] = iri
	}

	var g *rdfcube.Graph
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			die("%v", err)
		}
		g, err = rdfcube.OpenFrozenSnapshot(f)
		f.Close()
		if err != nil {
			die("loading snapshot %s: %v", *load, err)
		}
		// A snapshot normally holds an already-saturated graph, so no
		// saturation pass runs by default; passing -saturate explicitly
		// forces one (each round's entailed triples are bulk-added with
		// one base rebuild).
		fmt.Fprintf(os.Stderr, "loaded snapshot: %d triples (frozen)\n", g.Len())
		saturateSet := false
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "saturate" {
				saturateSet = true
			}
		})
		if saturateSet && *saturate {
			fmt.Fprintf(os.Stderr, "saturation added %d triples\n", rdfcube.Saturate(g))
		}
	} else {
		f, err := os.Open(*data)
		if err != nil {
			die("%v", err)
		}
		g = rdfcube.NewGraph()
		n, err := rdfcube.ReadNTriples(g, f)
		f.Close()
		if err != nil {
			die("loading %s: %v", *data, err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d triples\n", n)
		if *saturate {
			fmt.Fprintf(os.Stderr, "saturation added %d triples\n", rdfcube.Saturate(g))
		}
		// Loading is done: compact onto the read-optimized sorted indexes.
		g.Freeze()
	}

	if *updates != "" {
		uf, err := os.Open(*updates)
		if err != nil {
			die("%v", err)
		}
		un, err := applyUpdates(g, uf)
		uf.Close()
		if err != nil {
			die("loading updates %s: %v", *updates, err)
		}
		fmt.Fprintf(os.Stderr, "applied %d update triples (delta overlay: %d)\n", un, g.DeltaLen())
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			die("%v", err)
		}
		if err := rdfcube.WriteFrozenSnapshot(g, f); err != nil {
			f.Close()
			die("saving snapshot %s: %v", *save, err)
		}
		if err := f.Close(); err != nil {
			die("saving snapshot %s: %v", *save, err)
		}
		fmt.Fprintf(os.Stderr, "saved frozen snapshot %s (%d triples)\n", *save, g.Len())
	}

	c, err := rdfcube.ParseQuery(*classifier, prefixes)
	if err != nil {
		die("classifier: %v", err)
	}
	m, err := rdfcube.ParseQuery(*measure, prefixes)
	if err != nil {
		die("measure: %v", err)
	}
	aggFn, err := rdfcube.AggByName(*aggName)
	if err != nil {
		die("%v", err)
	}
	q, err := rdfcube.NewQuery(c, m, aggFn)
	if err != nil {
		die("%v", err)
	}

	switch {
	case *sliceSpec != "":
		dim, val, ok := strings.Cut(*sliceSpec, "=")
		if !ok {
			die("bad -slice %q, want dim=value", *sliceSpec)
		}
		q, err = rdfcube.SliceOp(q, dim, parseValue(val, prefixes))
		if err != nil {
			die("%v", err)
		}
	case *diceSpec != "":
		restrictions := map[string][]rdfcube.Term{}
		for _, part := range strings.Split(*diceSpec, ";") {
			dim, vals, ok := strings.Cut(part, "=")
			if !ok {
				die("bad -dice %q, want dim=v1|v2;dim2=v3", *diceSpec)
			}
			for _, v := range strings.Split(vals, "|") {
				restrictions[dim] = append(restrictions[dim], parseValue(v, prefixes))
			}
		}
		q, err = rdfcube.DiceOp(q, restrictions)
		if err != nil {
			die("%v", err)
		}
	case *drillOut != "":
		q, err = rdfcube.DrillOutOp(q, strings.Split(*drillOut, ",")...)
		if err != nil {
			die("%v", err)
		}
	case *drillIn != "":
		q, err = rdfcube.DrillInOp(q, *drillIn)
		if err != nil {
			die("%v", err)
		}
	}

	ev := rdfcube.NewEvaluator(g)
	var tr *obs.Trace
	var qcost *obs.Cost
	if *explain {
		// EXPLAIN ANALYZE, CLI face: trace the evaluation through the
		// planner and physical operators with a cost accumulator
		// attached, then render the span tree and the exact per-query
		// resource accounting.
		tracer := &obs.Tracer{}
		var ctx context.Context
		ctx, tr = tracer.Start(context.Background(), "query")
		ctx, qcost = obs.WithCost(ctx)
		ev = ev.WithContext(ctx)
	}
	t0 := time.Now()
	cube, err := ev.Answer(q)
	if err != nil {
		die("%v", err)
	}
	if tr != nil {
		tr.Root.End()
		fmt.Fprint(os.Stderr, tr.Root.Dump().Render())
		qcost.AddWallNs(time.Since(t0).Nanoseconds())
		fmt.Fprintf(os.Stderr, "cost: %s\n", qcost.Snapshot().HeaderString())
	}
	if err := rdfcube.WriteCube(os.Stdout, cube, g, *format, prefixes); err != nil {
		die("%v", err)
	}
	fmt.Fprintf(os.Stderr, "%d cube cells\n", cube.Len())
}

// parseValue interprets a slice/dice value through the shared constant-
// term parser (integer, float, prefixed name, <IRI>, quoted literal);
// bare words fall back to a plain literal for CLI convenience.
func parseValue(s string, prefixes rdfcube.Prefixes) rdfcube.Term {
	if t, err := rdfcube.ParseTerm(s, prefixes); err == nil {
		return t
	}
	return rdfcube.NewLiteral(s)
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rdfcube: "+format+"\n", args...)
	os.Exit(1)
}

// multiFlag collects repeated flag values.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// applyUpdates streams an N-Triples document into g one triple at a
// time — the incremental write path, so the triples land in the delta
// overlay — and returns the number of new triples.
func applyUpdates(g *rdfcube.Graph, r io.Reader) (int, error) {
	added := 0
	rd := nt.NewReader(r)
	for {
		t, err := rd.Next()
		if err == io.EOF {
			return added, nil
		}
		if err != nil {
			return added, err
		}
		if g.Add(t) {
			added++
		}
	}
}
