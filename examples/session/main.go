// Interactive-style OLAP session: a Session manager answers a sequence
// of analytical queries, automatically detecting that each one is a
// SLICE, DICE, DRILL-OUT or DRILL-IN of an earlier, materialized query
// and answering it by rewriting instead of re-evaluation — the paper's
// problem statement (Figure 2) as a running system.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"rdfcube"
	"rdfcube/internal/datagen"
)

func main() {
	cfg := datagen.DefaultBloggerConfig()
	cfg.Bloggers = 10000
	cfg.Dimensions = 3
	fmt.Println("building blogger instance...")
	g, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}
	rdfcube.Saturate(g)
	g.Freeze()
	schema, err := datagen.BloggerSchema(cfg.Dimensions)
	if err != nil {
		log.Fatal(err)
	}
	inst, err := schema.Materialize(g)
	if err != nil {
		log.Fatal(err)
	}
	base, err := datagen.BloggerQuery(cfg.Dimensions, "sum")
	if err != nil {
		log.Fatal(err)
	}
	sess := rdfcube.NewSession(inst)

	steps := []struct {
		name  string
		query func() (*rdfcube.Query, error)
	}{
		{"Q: base 3-dim cube", func() (*rdfcube.Query, error) { return base, nil }},
		{"SLICE age", func() (*rdfcube.Query, error) {
			return rdfcube.SliceOp(base, "d0", datagen.DimValue(0, 5))
		}},
		{"DICE age,city", func() (*rdfcube.Query, error) {
			return rdfcube.DiceOp(base, map[string][]rdfcube.Term{
				"d0": {datagen.DimValue(0, 1), datagen.DimValue(0, 2)},
				"d1": {datagen.DimValue(1, 0)},
			})
		}},
		{"DRILL-OUT gender", func() (*rdfcube.Query, error) {
			return rdfcube.DrillOutOp(base, "d2")
		}},
		{"Q again", func() (*rdfcube.Query, error) { return base, nil }},
	}

	fmt.Printf("\n%-20s %-18s %10s %8s\n", "step", "strategy", "time", "cells")
	for _, step := range steps {
		q, err := step.query()
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		cube, strategy, err := sess.Answer(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %-18s %10v %8d\n",
			step.name, strategy, time.Since(t0).Round(time.Microsecond), cube.Len())
	}

	fmt.Printf("\nstrategy totals: %v\n", sess.Stats())
	fmt.Println("only the first answer touched the AnS instance; every later one reused it.")

	// Show the final drill-out cube.
	qOut, err := rdfcube.DrillOutOp(base, "d2")
	if err != nil {
		log.Fatal(err)
	}
	cube, _, err := sess.Answer(qOut)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndrill-out cube (first rows):")
	small := cube.Clone()
	small.Sort()
	if len(small.Rows) > 5 {
		small.Rows = small.Rows[:5]
	}
	px := datagen.Prefixes()
	px["d"] = datagen.NS
	if err := rdfcube.WriteCube(os.Stdout, small, inst, "text", px); err != nil {
		log.Fatal(err)
	}
}
