// Blogger analytics: the paper's running scenario at scale, end to end —
// synthetic base graph, RDFS saturation, analytical-schema
// materialization, a 3-dimensional cube, and all four OLAP operations
// answered both directly and by rewriting, with timings.
package main

import (
	"fmt"
	"log"
	"time"

	"rdfcube"
	"rdfcube/internal/core"
	"rdfcube/internal/datagen"
)

func main() {
	cfg := datagen.DefaultBloggerConfig()
	cfg.Bloggers = 20000
	cfg.Dimensions = 3
	cfg.MultiValueProb = 0.15

	fmt.Printf("building blogger workload (%d bloggers, %d dims)...\n", cfg.Bloggers, cfg.Dimensions)
	base, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}
	rdfcube.Saturate(base)
	base.Freeze() // loading done; materialization queries run on the fast path
	schema, err := datagen.BloggerSchema(cfg.Dimensions)
	if err != nil {
		log.Fatal(err)
	}
	inst, err := schema.Materialize(base)
	if err != nil {
		log.Fatal(err)
	}
	q, err := datagen.BloggerQuery(cfg.Dimensions, "sum")
	if err != nil {
		log.Fatal(err)
	}
	ev := rdfcube.NewEvaluator(inst)
	t0 := time.Now()
	pres, err := ev.Pres(q)
	if err != nil {
		log.Fatal(err)
	}
	presBuild := time.Since(t0)
	ansQ, err := ev.AnswerFromPres(q, pres)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  base graph: %d triples, AnS instance: %d triples\n", base.Len(), inst.Len())
	fmt.Printf("  pres(Q): %d rows (built in %v), ans(Q): %d cells\n\n",
		pres.Len(), presBuild.Round(time.Millisecond), ansQ.Len())

	// SLICE on the age dimension.
	sliced, err := rdfcube.SliceOp(q, "d0", datagen.DimValue(0, 7))
	if err != nil {
		log.Fatal(err)
	}
	compare("SLICE d0=25",
		func() (*rdfcube.Cube, error) { return ev.Answer(sliced) },
		func() (*rdfcube.Cube, error) { return ev.DiceRewrite(sliced, ansQ) })

	// DICE on age and city.
	diced, err := rdfcube.DiceOp(q, map[string][]rdfcube.Term{
		"d0": {datagen.DimValue(0, 1), datagen.DimValue(0, 2)},
		"d1": {datagen.DimValue(1, 0), datagen.DimValue(1, 1), datagen.DimValue(1, 2)},
	})
	if err != nil {
		log.Fatal(err)
	}
	compare("DICE d0,d1",
		func() (*rdfcube.Cube, error) { return ev.Answer(diced) },
		func() (*rdfcube.Cube, error) { return ev.DiceRewrite(diced, ansQ) })

	// DRILL-OUT the third dimension (Algorithm 1).
	qOut, err := rdfcube.DrillOutOp(q, "d2")
	if err != nil {
		log.Fatal(err)
	}
	compare("DRILL-OUT d2",
		func() (*rdfcube.Cube, error) { return ev.Answer(qOut) },
		func() (*rdfcube.Cube, error) { return ev.DrillOutRewrite(q, pres, "d2") })

	// The incorrect naive drill-out, for contrast.
	correct, err := ev.DrillOutRewrite(q, pres, "d2")
	if err != nil {
		log.Fatal(err)
	}
	naive, err := core.NaiveDrillOutFromAns(q, ansQ, "d2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive ans(Q)-based drill-out: %d cells, identical to Algorithm 1: %v\n",
		naive.Len(), rdfcube.CubesEqual(correct, naive))
	fmt.Println("  (multi-valued dimensions make the naive rewrite double-count; see Example 5)")
}

func compare(label string, direct, rewrite func() (*rdfcube.Cube, error)) {
	t0 := time.Now()
	d, err := direct()
	if err != nil {
		log.Fatal(err)
	}
	dDur := time.Since(t0)
	t0 = time.Now()
	r, err := rewrite()
	if err != nil {
		log.Fatal(err)
	}
	rDur := time.Since(t0)
	fmt.Printf("%-14s direct %-10v rewrite %-10v speedup %4.1fx cells %-6d equal=%v\n",
		label, dDur.Round(time.Microsecond), rDur.Round(time.Microsecond),
		float64(dDur)/float64(rDur), r.Len(), rdfcube.CubesEqual(d, r))
}
