package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"rdfcube/internal/server"
)

// streamBytes serializes everything a workload would send for a seed.
func streamBytes(t *testing.T, seed int64, w workload) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool, err := genPool(rng, w.poolSize, w.direct, w.bases)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, o := range pool {
		buf.Write(o.body)
		buf.WriteByte('\n')
	}
	for _, idx := range genStream(rng, len(pool), 1000) {
		buf.WriteByte(byte(idx))
	}
	buf.Write(insertBody("win", 3))
	return buf.Bytes()
}

func TestOpStreamsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamBytes(t, 7, w), streamBytes(t, 7, w), streamBytes(t, 8, w)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different op streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same op stream", w.name)
		}
	}
}

func TestPoolMixAndTypedQueries(t *testing.T) {
	pool, err := genPool(rand.New(rand.NewSource(1)), 256, false, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, numClasses)
	for _, o := range pool {
		counts[o.class]++
		if _, err := o.query(); err != nil {
			t.Errorf("op %d (%s): %v", o.id, classNames[o.class], err)
		}
	}
	if want := []int{26, 77, 64, 51, 38}; !slices.Equal(counts, want) {
		t.Errorf("class counts %v, want %v", counts, want)
	}
	if got := len(insertBatch("x", 5)); got != triplesPerBatch {
		t.Errorf("insert batch has %d triples, want %d", got, triplesPerBatch)
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 95: 10, 90: 9, 10: 1} {
		if got := percentile(append([]float64(nil), xs...), p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN")
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %g %g %g", q1, q2, q3)
	}
}

func TestAttributeSelfTimes(t *testing.T) {
	sp := func(op int, name, parent string, start, end int64) span {
		return span{Op: op, Name: name, Layer: name[:bytes.IndexByte([]byte(name), '.')], Parent: parent, Start: start, End: end}
	}
	spans := []span{
		// op 0: server 100 ⊃ core 60 ⊃ bgp 70 (a lower rung that ran longer)
		sp(0, "server.query", "", 0, 100),
		sp(0, "core.answer", "server.query", 100, 160),
		sp(0, "bgp.classifier", "core.answer", 160, 230),
		sp(0, "viewreg.answer", "", 230, 999), // off the chain
		// op 1: server 50 ⊃ core 20
		sp(1, "server.query", "", 1000, 1050),
		sp(1, "core.answer", "server.query", 1050, 1070),
		// not a query op at all
		sp(-1, "core.pres", "", 2000, 2500),
	}
	at := attribute(spans, "server.query")
	if at.Ops != 2 || at.Clamped != 1 {
		t.Fatalf("ops=%d clamped=%d, want 2 and 1", at.Ops, at.Clamped)
	}
	// self: op0 server 40, core 0 (clamped), bgp 70; op1 server 30, core 20.
	if got := at.Layers["server"].ShareOfTotal; math.Abs(got-70.0/150) > 1e-9 {
		t.Errorf("server share of total = %g, want %g", got, 70.0/150)
	}
	// An op without the layer counts as 0 there: median of {70 ns, 0}.
	if got := at.Layers["bgp"].SelfP50Ms; got != 35e-6 {
		t.Errorf("bgp self p50 = %g ms, want 35e-6", got)
	}
	if _, ok := at.Layers["viewreg"]; ok {
		t.Error("an off-chain span was attributed")
	}
}

func TestParseAnswerIgnoresStrategyAndElapsed(t *testing.T) {
	render := func(strategy string, elapsed int64, v string) []byte {
		b, err := json.Marshal(server.QueryResponse{
			Strategy: strategy, Cols: []string{"d0", "v"},
			Rows: [][]string{{"a", v}, {"b", "2"}}, Cells: 2, ElapsedNs: elapsed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, ok := parseAnswer(render("direct", 123, "1"))
	b, ok2 := parseAnswer(render("dice-rewrite", 999999, "1"))
	c, _ := parseAnswer(render("direct", 123, "7"))
	if !ok || !ok2 || a.strategy != "direct" || b.strategy != "dice-rewrite" || a.cells != 2 {
		t.Fatalf("parse failed: %+v %+v", a, b)
	}
	if a.hash != b.hash {
		t.Error("equal cubes hashed differently")
	}
	if a.hash == c.hash {
		t.Error("different cubes hashed the same")
	}
	if _, ok := parseAnswer([]byte(`{"error":"boom"}`)); ok {
		t.Error("an error body parsed as an answer")
	}
}

func TestPlantedWrongAnswerIsCounted(t *testing.T) {
	r := &run{seen: map[int]answer{}, res: &runResult{Strategies: map[string]int{}}}
	o := &op{id: 3, class: classSlice}
	r.check(o, answer{strategy: "direct", hash: 1, cells: 4})
	r.check(o, answer{strategy: "cached", hash: 1, cells: 4})
	if r.res.Failed != 0 {
		t.Fatalf("a repeated answer counted as failed: %v", r.res.Failures)
	}
	r.check(o, answer{strategy: "cached", hash: 2, cells: 4})
	if r.res.Failed != 1 {
		t.Fatalf("failed = %d after a wrong answer, want 1", r.res.Failed)
	}
	// Beside a writer a cube may grow but not shrink.
	r.w.writeRate = 5
	r.check(o, answer{hash: 9, cells: 5})
	r.check(o, answer{hash: 8, cells: 4})
	if r.res.Failed != 2 {
		t.Fatalf("failed = %d after a shrinking cube, want 2", r.res.Failed)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "query_p50_ms", Better: "lower", Bound: 0.1}
	higher := specMetric{Name: "throughput_ops_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100}
	for _, tc := range []struct {
		m    specMetric
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 106}, "ok"},
		{lower, steady, []float64{120, 121}, "worse"},
		{lower, steady, []float64{50}, "ok"},
		{higher, steady, []float64{80}, "worse"},
		{higher, steady, []float64{130}, "ok"},
		{lower, []float64{80, 100, 120, 140}, []float64{105}, "unresolved"},
	} {
		if got, _, _, _ := judge(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("%s %v→%v: %s, want %s", tc.m.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestSmoke runs every workload for one second on a 500-blogger dataset,
// untraced and traced, against the real rdfcubed binary, and checks that
// each run is correct and reports every metric BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots rdfcubed")
	}
	benchDir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(filepath.Join(filepath.Dir(benchDir), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q breaks the naming rule", m.Name)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench has %d", len(sp.Workloads), len(workloads))
	}
	e := &env{repoRoot: filepath.Dir(benchDir), outDir: t.TempDir()}
	e.bin = filepath.Join(e.outDir, "rdfcubed")
	if err := buildServer(e.repoRoot, e.bin); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the bench %q", i, sp.Workloads[i].Name, w.name)
		}
		w.bloggers = 500
		for _, trace := range []bool{false, true} {
			r, err := newRun(e, w, 42)
			if err != nil {
				t.Fatal(err)
			}
			// A traced run halves its window.
			seconds := 1.0
			if trace {
				seconds = 2
			}
			if err := r.execute(seconds, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !r.res.Correct {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, trace, r.res.Failed, r.res.Attempted, r.res.Failures)
			}
			if _, err := sp.report(&bytes.Buffer{}, r.res); err != nil {
				t.Errorf("trace=%v: %v", trace, err)
			}
		}
	}
}
