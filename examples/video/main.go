// Video analytics: the DRILL-IN scenario of Example 6 / Figure 3 at
// scale. A cube of view counts per website URL is refined by drilling in
// the supported-browser dimension; Algorithm 2 answers the refined cube
// from pres(Q) plus one auxiliary query instead of re-evaluating
// classifier and measure.
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
	cfg := datagen.DefaultVideoConfig()
	cfg.Videos = 20000
	cfg.Websites = 2000
	cfg.BrowsersPerSite = 3

	fmt.Printf("building video workload (%d videos, %d websites)...\n", cfg.Videos, cfg.Websites)
	base, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}
	rdfcube.Saturate(base)
	base.Freeze()
	inst, err := datagen.VideoSchema().Materialize(base)
	if err != nil {
		log.Fatal(err)
	}
	q, err := datagen.VideoQuery("sum")
	if err != nil {
		log.Fatal(err)
	}
	ev := rdfcube.NewEvaluator(inst)
	pres, err := ev.Pres(q)
	if err != nil {
		log.Fatal(err)
	}
	ansQ, err := ev.AnswerFromPres(q, pres)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  AnS instance: %d triples; pres(Q): %d rows; ans(Q): %d cells\n\n",
		inst.Len(), pres.Len(), ansQ.Len())

	// Show the auxiliary query Algorithm 2 derives (Definition 6).
	aux, err := core.AuxQuery(q.Classifier, "d3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auxiliary drill-in query:\n  %s\n\n", aux)

	qIn, err := rdfcube.DrillInOp(q, "d3")
	if err != nil {
		log.Fatal(err)
	}

	t0 := time.Now()
	direct, err := ev.Answer(qIn)
	if err != nil {
		log.Fatal(err)
	}
	dDur := time.Since(t0)

	t0 = time.Now()
	rewritten, err := ev.DrillInRewrite(q, pres, "d3")
	if err != nil {
		log.Fatal(err)
	}
	rDur := time.Since(t0)

	fmt.Printf("DRILL-IN d3 (browser): direct %v, Algorithm 2 %v (speedup %.1fx)\n",
		dDur.Round(time.Microsecond), rDur.Round(time.Microsecond), float64(dDur)/float64(rDur))
	fmt.Printf("refined cube: %d cells, strategies agree: %v\n\n",
		rewritten.Len(), rdfcube.CubesEqual(direct, rewritten))

	rewritten.Sort()
	fmt.Println("first cells of the refined cube (url, browser, views):")
	cells := rdfcube.DecodeCube(rewritten, inst)
	for i, cell := range cells {
		if i == 5 {
			break
		}
		fmt.Printf("  %v -> %g\n", cell.Dims, cell.Value)
	}
}
