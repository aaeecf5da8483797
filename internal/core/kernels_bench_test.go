package core_test

// BenchmarkRewriteKernels times the three rewrites that answer from
// pres(Q) — Algorithm 1, Algorithm 2 and Equation 3 — on the blogger
// data and the four base cubes of the end-to-end benchmark (bench/ops.go),
// without the server, registry or BGP evaluation of pres around them;
// as the pres leg, Definition 4's pres(Q) = c ⋈ m_k itself for the four
// bases, BGP evaluation of c and m_k included; and, as the direct leg,
// Answer for the four bases: the BGP results of c and m evaluated and
// fused into γ(c ⋈ m) on their dictionary-ID rows, without pres, m_k or
// a Value of the inputs — the work the pres and ans_from_pres legs do
// between them.
//
// TestEquation3KernelBase checks Answer on one base of the same
// fixture, whose classifier is wide enough for the rewrites' γ to fan
// out; Answer's own pass is sequential.

import (
	"fmt"
	"math"
	"slices"
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
	run("direct", []int{0, 1, 2, 3}, func(q *core.Query, _ *algebra.Relation) (*algebra.Relation, error) {
		return fx.ev.Answer(q)
	})
}

// TestEquation3KernelBase: on the sum base of the kernel fixture, whose
// classifier has more rows than the 16,384 at which γ and ⋈ fan out by
// default, Answer is byte-identical to AnswerFromPres(Pres) — same rows,
// same order, same float bits — with the fan-out sized by GOMAXPROCS and
// pinned to 1, 2 and 4 workers.
func TestEquation3KernelBase(t *testing.T) {
	if err := loadKernelFixture(); err != nil {
		t.Fatal(err)
	}
	fx := &kernelFixture
	q, pres := fx.qs[1], fx.pres[1]
	c, err := fx.ev.EvalClassifier(q)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() <= 16384 {
		t.Fatalf("classifier has %d rows, too few for the parallel pass", c.Len())
	}
	defer func() { algebra.GroupWorkers = 0 }()
	for _, workers := range []int{0, 1, 2, 4} {
		algebra.GroupWorkers = workers
		got, err := fx.ev.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fx.ev.AnswerFromPres(q, pres)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Cols, want.Cols) || len(got.Rows) != len(want.Rows) {
			t.Fatalf("workers %d: fused cube %v × %d rows, pres cube %v × %d", workers, got.Cols, len(got.Rows), want.Cols, len(want.Rows))
		}
		for i, row := range got.Rows {
			for j, x := range row {
				y := want.Rows[i][j]
				if x.Kind != y.Kind || x.ID != y.ID || math.Float64bits(x.Num) != math.Float64bits(y.Num) {
					t.Fatalf("workers %d: row %d is %v, pres gives %v", workers, i, row, want.Rows[i])
				}
			}
		}
	}
}
