package datagen

import (
	"runtime"
	"testing"

	"rdfcube/internal/bgp"
	"rdfcube/internal/core"
	"rdfcube/internal/rdf"
	"rdfcube/internal/rdfs"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

func TestBloggerDeterministic(t *testing.T) {
	cfg := DefaultBloggerConfig()
	cfg.Bloggers = 200
	a, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("same seed produced %d then %d triples", a.Len(), b.Len())
	}
	// Every triple of a is in b.
	d := a.Dict()
	a.ForEach(store.Pattern{}, func(tr store.IDTriple) bool {
		term, _ := d.DecodeTriple(tr.S, tr.P, tr.O)
		if !b.Contains(term) {
			t.Fatalf("non-deterministic generation: %v missing", term)
		}
		return true
	})
	// Different seed differs.
	cfg.Seed = 99
	c, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() == a.Len() {
		// Sizes could coincide; check content.
		same := true
		a.ForEach(store.Pattern{}, func(tr store.IDTriple) bool {
			term, _ := d.DecodeTriple(tr.S, tr.P, tr.O)
			if !c.Contains(term) {
				same = false
				return false
			}
			return true
		})
		if same {
			t.Error("different seeds generated identical graphs")
		}
	}
}

func TestBloggerConfigValidation(t *testing.T) {
	bad := []BloggerConfig{
		{Bloggers: 0, Dimensions: 2, PostsPerBlogger: 1, Sites: 1},
		{Bloggers: 1, Dimensions: 0, PostsPerBlogger: 1, Sites: 1},
		{Bloggers: 1, Dimensions: 7, PostsPerBlogger: 1, Sites: 1},
		{Bloggers: 1, Dimensions: 2, PostsPerBlogger: 0, Sites: 1},
		{Bloggers: 1, Dimensions: 2, PostsPerBlogger: 1, Sites: 0},
		{Bloggers: 1, Dimensions: 2, PostsPerBlogger: 1, Sites: 1, MultiValueProb: 1.5},
		{Bloggers: 1, Dimensions: 2, PostsPerBlogger: 1, Sites: 1, MissingProb: -0.1},
	}
	for i, cfg := range bad {
		if _, err := cfg.Generate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestBloggerPipelineEndToEnd(t *testing.T) {
	cfg := DefaultBloggerConfig()
	cfg.Bloggers = 300
	cfg.Dimensions = 2
	cfg.SubPropertyShare = 0.5
	base, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	derived := rdfs.Saturate(base)
	if derived == 0 {
		t.Error("saturation derived nothing; dwellsIn ⊑ livesIn facts expected")
	}
	schema, err := BloggerSchema(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := schema.Validate(); err != nil {
		t.Fatalf("schema invalid: %v", err)
	}
	inst, err := schema.Materialize(base)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Len() == 0 {
		t.Fatal("empty instance")
	}
	// Every generated blogger is in the Blogger class.
	q := sparql.MustParseDatalog("q(x) :- x rdf:type :Blogger", Prefixes())
	res, err := bgp.EvalSet(inst, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != cfg.Bloggers {
		t.Errorf("Blogger class has %d members, want %d", res.Len(), cfg.Bloggers)
	}
	// The AnQ answers without error and produces a plausible cube.
	anq, err := BloggerQuery(2, "count")
	if err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator(inst)
	cube, err := ev.Answer(anq)
	if err != nil {
		t.Fatal(err)
	}
	if cube.Len() == 0 {
		t.Error("empty cube over generated data")
	}
	maxCells := DimCardinality(0) * DimCardinality(1)
	if cube.Len() > maxCells {
		t.Errorf("cube has %d cells, exceeding the %d-cell dimension grid", cube.Len(), maxCells)
	}
}

func TestBloggerMultiValueness(t *testing.T) {
	mk := func(p float64) int {
		cfg := DefaultBloggerConfig()
		cfg.Bloggers = 500
		cfg.MultiValueProb = p
		cfg.MissingProb = 0
		cfg.SubPropertyShare = 0
		base, err := cfg.Generate()
		if err != nil {
			t.Fatal(err)
		}
		// Count bloggers with 2 values along dimension 0.
		d := base.Dict()
		prop, ok := d.Lookup(rdf.NewIRI(NS + DimensionProps[0]))
		if !ok {
			t.Fatal("dimension property missing")
		}
		multi := 0
		for _, s := range base.Subjects(prop, store.Wild) {
			if base.Count(store.Pattern{S: s, P: prop}) > 1 {
				multi++
			}
		}
		return multi
	}
	if got := mk(0); got != 0 {
		t.Errorf("MultiValueProb=0 produced %d multi-valued bloggers", got)
	}
	if got := mk(0.5); got < 100 {
		t.Errorf("MultiValueProb=0.5 produced only %d multi-valued bloggers", got)
	}
}

func TestBloggerMissingness(t *testing.T) {
	cfg := DefaultBloggerConfig()
	cfg.Bloggers = 500
	cfg.MissingProb = 0.5
	cfg.SubPropertyShare = 0
	base, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	d := base.Dict()
	prop, _ := d.Lookup(rdf.NewIRI(NS + DimensionProps[0]))
	withValue := len(base.Subjects(prop, store.Wild))
	if withValue > 350 || withValue < 150 {
		t.Errorf("MissingProb=0.5: %d/500 bloggers carry dim0; expected roughly half", withValue)
	}
}

func TestBloggerQueryDimensions(t *testing.T) {
	for dims := 1; dims <= 6; dims++ {
		q, err := BloggerQuery(dims, "sum")
		if err != nil {
			t.Fatalf("dims=%d: %v", dims, err)
		}
		if len(q.Dims()) != dims {
			t.Errorf("dims=%d: query has %d dimensions", dims, len(q.Dims()))
		}
	}
	if _, err := BloggerQuery(0, "sum"); err == nil {
		t.Error("0 dimensions accepted")
	}
	if _, err := BloggerQuery(7, "sum"); err == nil {
		t.Error("7 dimensions accepted")
	}
	if _, err := BloggerQuery(2, "median"); err == nil {
		t.Error("unknown aggregation accepted")
	}
}

func TestVideoPipelineEndToEnd(t *testing.T) {
	cfg := DefaultVideoConfig()
	cfg.Videos = 200
	cfg.Websites = 20
	base, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := VideoSchema().Materialize(base)
	if err != nil {
		t.Fatal(err)
	}
	q, err := VideoQuery("sum")
	if err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator(inst)
	pres, err := ev.Pres(q)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Len() == 0 {
		t.Fatal("empty pres over video data")
	}
	// Drill-in round trip at small scale.
	rewritten, err := ev.DrillInRewrite(q, pres, "d3")
	if err != nil {
		t.Fatal(err)
	}
	qIn, err := core.DrillIn(q, "d3")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ev.Answer(qIn)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Len() != rewritten.Len() {
		t.Fatalf("drill-in sizes differ: %d vs %d", direct.Len(), rewritten.Len())
	}
}

func TestVideoConfigValidation(t *testing.T) {
	bad := []VideoConfig{
		{Videos: 0, Websites: 1, SitesPerVideo: 1, BrowsersPerSite: 1},
		{Videos: 1, Websites: 0, SitesPerVideo: 1, BrowsersPerSite: 1},
		{Videos: 1, Websites: 1, SitesPerVideo: 0, BrowsersPerSite: 1},
		{Videos: 1, Websites: 1, SitesPerVideo: 1, BrowsersPerSite: 0},
	}
	for i, cfg := range bad {
		if _, err := cfg.Generate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestDimValueKinds(t *testing.T) {
	// Ages and years are integer literals; the rest IRIs.
	if !DimValue(0, 3).IsLiteral() {
		t.Error("age must be a literal")
	}
	if !DimValue(3, 3).IsLiteral() {
		t.Error("memberSince must be a literal")
	}
	if !DimValue(1, 3).IsIRI() {
		t.Error("city must be an IRI")
	}
	for d := range DimensionProps {
		if DimCardinality(d) < 2 {
			t.Errorf("dimension %d cardinality too small", d)
		}
		// Distinct values really are distinct.
		seen := map[rdf.Term]bool{}
		for v := 0; v < DimCardinality(d); v++ {
			val := DimValue(d, v)
			if seen[val] {
				t.Errorf("dimension %d value %d duplicates an earlier one", d, v)
			}
			seen[val] = true
		}
	}
}

func TestBloggerSchemaRejectsBadDims(t *testing.T) {
	if _, err := BloggerSchema(0); err == nil {
		t.Error("0 dims accepted")
	}
	if _, err := BloggerSchema(99); err == nil {
		t.Error("99 dims accepted")
	}
	for dims := 1; dims <= 6; dims++ {
		s, err := BloggerSchema(dims)
		if err != nil {
			t.Fatalf("dims=%d: %v", dims, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("dims=%d schema invalid: %v", dims, err)
		}
	}
}

func TestGeneratedGraphValidTriples(t *testing.T) {
	cfg := DefaultBloggerConfig()
	cfg.Bloggers = 100
	base, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	d := base.Dict()
	n := 0
	base.ForEach(store.Pattern{}, func(tr store.IDTriple) bool {
		term, ok := d.DecodeTriple(tr.S, tr.P, tr.O)
		if !ok || !term.IsValid() {
			t.Fatalf("invalid generated triple %v (%v)", term, ok)
		}
		n++
		return true
	})
	if n != base.Len() {
		t.Errorf("iterated %d triples, store reports %d", n, base.Len())
	}
}

func BenchmarkGenerateBlogger(b *testing.B) {
	cfg := DefaultBloggerConfig()
	cfg.Bloggers = 5000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := cfg.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaterializeSchema(b *testing.B) {
	cfg := DefaultBloggerConfig()
	cfg.Bloggers = 5000
	base, err := cfg.Generate()
	if err != nil {
		b.Fatal(err)
	}
	rdfs.Saturate(base)
	schema, err := BloggerSchema(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := schema.Materialize(base); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGenerateBulkLoads: Generate loads its graph with one AddBatch, never
// through the per-triple delta path — ~20k triples leave no pending
// delta and rebuild the empty store's base exactly once.
func TestGenerateBulkLoads(t *testing.T) {
	cfg := DefaultBloggerConfig()
	cfg.Bloggers = 1500
	base, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if base.Len() < 15000 {
		t.Fatalf("generated %d triples, want a graph of ~20k", base.Len())
	}
	if base.DeltaLen() != 0 {
		t.Errorf("Generate left a delta of %d triples", base.DeltaLen())
	}
	if v := base.Version(); v != (store.Version{Base: 1}) {
		t.Errorf("Generate left version %+v, want one base rebuild", v)
	}
}

// BenchmarkLoadPipeline runs the paper's pipeline at the bench's `small`
// size (20k bloggers, 3 dimensions): Generate → Saturate → Freeze →
// Materialize. Besides ns/op it reports live-MB, the heap in use after
// a GC with the base graph and the AnS instance both alive.
func BenchmarkLoadPipeline(b *testing.B) {
	cfg := DefaultBloggerConfig()
	cfg.Bloggers = 20000
	cfg.Dimensions = 3
	schema, err := BloggerSchema(3)
	if err != nil {
		b.Fatal(err)
	}
	var liveMB float64
	for i := 0; i < b.N; i++ {
		base, err := cfg.Generate()
		if err != nil {
			b.Fatal(err)
		}
		rdfs.Saturate(base)
		base.Freeze()
		inst, err := schema.Materialize(base)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		liveMB = float64(ms.HeapAlloc) / (1 << 20)
		runtime.KeepAlive(base)
		runtime.KeepAlive(inst)
		b.StartTimer()
	}
	b.ReportMetric(liveMB, "live-MB")
}
