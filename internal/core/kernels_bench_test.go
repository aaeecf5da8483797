package core_test

// BenchmarkRewriteKernels times the three rewrites that answer from
// pres(Q) — Algorithm 1, Algorithm 2 and Equation 3 — on the blogger
// data and the four base cubes of the end-to-end benchmark (bench/ops.go),
// without the server, registry or BGP evaluation of pres around them,
// and, as the pres leg, Definition 4's pres(Q) = c ⋈ m_k itself for the
// four bases, BGP evaluation of c and m_k included.

import (
	"fmt"
	"sync"
	"testing"

	"rdfcube/internal/agg"
	"rdfcube/internal/algebra"
	"rdfcube/internal/core"
	"rdfcube/internal/datagen"
	"rdfcube/internal/rdfs"
	"rdfcube/internal/sparql"
)

// kernelBases mirrors the end-to-end benchmark's base cubes: the
// classifier body binds all three dimensions, the head keeps the first
// dims of them.
var kernelBases = []struct {
	dims         int
	agg, measure string
}{
	{3, "count", "postedOn"},
	{3, "sum", "hasWordCount"},
	{2, "avg", "hasWordCount"},
	{2, "max", "hasWordCount"},
}

var kernelFixture struct {
	once sync.Once
	ev   *core.Evaluator
	qs   []*core.Query
	pres []*algebra.Relation
	err  error
}

// loadKernelFixture generates 20k bloggers with three dimensions (seed
// 7), saturates, materializes the analytical schema and computes pres
// of every base cube, once per process.
func loadKernelFixture() error {
	fx := &kernelFixture
	fx.once.Do(func() {
		cfg := datagen.DefaultBloggerConfig()
		cfg.Seed, cfg.Bloggers, cfg.Dimensions = 7, 20000, 3
		base, err := cfg.Generate()
		if fx.err = err; err != nil {
			return
		}
		rdfs.Saturate(base)
		base.Freeze()
		schema, err := datagen.BloggerSchema(3)
		if fx.err = err; err != nil {
			return
		}
		inst, err := schema.Materialize(base)
		if fx.err = err; err != nil {
			return
		}
		inst.Freeze()
		fx.ev = core.NewEvaluator(inst)
		for _, b := range kernelBases {
			head, body := "x", "x rdf:type :Blogger"
			for d := 0; d < 3; d++ {
				if d < b.dims {
					head += fmt.Sprintf(", d%d", d)
				}
				body += fmt.Sprintf(", x :%s d%d", datagen.DimensionProps[d], d)
			}
			c := sparql.MustParseDatalog(fmt.Sprintf("c(%s) :- %s", head, body), datagen.Prefixes())
			m := sparql.MustParseDatalog("m(x, v) :- x rdf:type :Blogger, x :wrotePost p, p :"+b.measure+" v", datagen.Prefixes())
			f, err := agg.ByName(b.agg)
			if fx.err = err; err != nil {
				return
			}
			q, err := core.New(c, m, f)
			if fx.err = err; err != nil {
				return
			}
			pres, err := fx.ev.Pres(q)
			if fx.err = err; err != nil {
				return
			}
			fx.qs, fx.pres = append(fx.qs, q), append(fx.pres, pres)
		}
	})
	return fx.err
}

func BenchmarkRewriteKernels(b *testing.B) {
	if err := loadKernelFixture(); err != nil {
		b.Fatal(err)
	}
	fx := &kernelFixture
	run := func(name string, bases []int, kernel func(q *core.Query, pres *algebra.Relation) (*algebra.Relation, error)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, j := range bases {
					if _, err := kernel(fx.qs[j], fx.pres[j]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	run("drillout", []int{0, 1}, func(q *core.Query, pres *algebra.Relation) (*algebra.Relation, error) {
		return fx.ev.DrillOutRewrite(q, pres, "d0")
	})
	run("drillin", []int{2, 3}, func(q *core.Query, pres *algebra.Relation) (*algebra.Relation, error) {
		return fx.ev.DrillInRewrite(q, pres, "d2")
	})
	run("ans_from_pres", []int{0, 1, 2, 3}, fx.ev.AnswerFromPres)
	run("pres", []int{0, 1, 2, 3}, func(q *core.Query, _ *algebra.Relation) (*algebra.Relation, error) {
		return fx.ev.Pres(q)
	})
}
