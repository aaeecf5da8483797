package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rdfcube/internal/algebra"
	"rdfcube/internal/dict"
	"rdfcube/internal/obs"
	"rdfcube/internal/rdf"
	"rdfcube/internal/store"
	"rdfcube/internal/viewreg"
)

// renderCube is the /query renderer appendQueryBody replaced, kept as
// its reference: it sorts a copy of the cube's row list and builds the
// QueryResponse that encoding/json then writes, with each distinct term
// decoded and rendered once per response.
func renderCube(cube *algebra.Relation, d *dict.Dictionary, strategy viewreg.Strategy, elapsedNs int64) *QueryResponse {
	sorted := &algebra.Relation{Cols: cube.Cols, Rows: slices.Clone(cube.Rows)}
	sorted.Sort()
	terms := map[dict.ID]string{}
	rows := make([][]string, len(sorted.Rows))
	for i, row := range sorted.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			if v.Kind == algebra.TermValue {
				if s, ok := terms[v.ID]; ok {
					cells[j] = s
					continue
				}
				if t, ok := d.Decode(v.ID); ok {
					cells[j] = t.String()
					terms[v.ID] = cells[j]
					continue
				}
			}
			cells[j] = v.String()
		}
		rows[i] = cells
	}
	return &QueryResponse{
		Strategy:  string(strategy),
		Cols:      append([]string(nil), sorted.Cols...),
		Rows:      rows,
		Cells:     len(rows),
		ElapsedNs: elapsedNs,
	}
}

// referenceBody is the response body the server used to send: resp
// through json.Encoder, trailing newline included.
func referenceBody(t *testing.T, resp *QueryResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// renderCases builds the cubes TestRenderCubeMatchesReference renders
// over one dictionary: the number forms Value.String distinguishes,
// repeated and unknown terms, strings that exercise every escape
// encoding/json makes, and empty cubes.
func renderCases(t *testing.T) (*dict.Dictionary, map[string]*algebra.Relation) {
	t.Helper()
	d := dict.New()
	terms := []rdf.Term{
		rdf.NewIRI("http://e.org/a"),
		rdf.NewIRI("http://e.org/b"),
		rdf.NewInt(42),
		rdf.NewLiteral(`say "hi"\n`),
		rdf.NewLangLiteral("chat", "fr"),
		rdf.NewBlank("b0"),
	}
	ids := make([]dict.ID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Encode(tm)
	}
	unknown := ids[len(ids)-1] + 1000 // never encoded: rendered as tN
	nums := []float64{
		0, math.Copysign(0, -1), 1, -7, 1.5, -2.25, 1e15 - 1, 1e15, -1e15, 1e15 + 2,
		999999999999999.5, 1e300, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
	}
	numbers := algebra.NewRelation("d0", "d1", "v")
	for i, f := range nums {
		for j := range ids {
			numbers.Append(algebra.Row{algebra.TermV(ids[j]), algebra.TermV(ids[(i+j)%len(ids)]), algebra.NumV(f)})
		}
		numbers.Append(algebra.Row{algebra.TermV(unknown), algebra.KeyV(uint64(i)), algebra.NumV(f)})
	}

	// N-Triples escapes only " \ and \n \r \t inside a literal's lexical
	// form, and nothing in IRIs, blank labels, lang tags or datatypes:
	// everything else reaches the JSON encoder raw.
	awkward := []rdf.Term{
		rdf.NewLiteral(`quote " backslash \ tab	cr` + "\r nl\n"),
		rdf.NewLiteral("ctl \x01 \x1f bs \b ff \f del \x7f"),
		rdf.NewLiteral("é ü 日本 🦆"),
		rdf.NewLiteral("ls \u2028 ps \u2029"),
		rdf.NewLiteral("bad \xff utf8"),
		rdf.NewIRI("http://e.org/raw\xffbyte\xc3"),
		rdf.NewIRI("http://e.org/q?a<b>&c=\u2028"),
		rdf.NewIRI("http://e.org/ctl\x01\x1f\b\f\t\r\n\"\\"),
		rdf.NewBlank("b\t\r\n\b\f<&>"),
		rdf.NewLangLiteral("tag", "en-<x>&y"),
		rdf.NewTypedLiteral("5 < 6 & 7 > 3", "http://e.org/t?<a>&b"),
		rdf.NewTypedLiteral("ë", "http://e.org/dt\u2028"),
	}
	strs := algebra.NewRelation("a<b>", "c&d", "v")
	for i, a := range awkward {
		for j, b := range awkward {
			if (i+j)%3 == 0 {
				strs.Append(algebra.Row{algebra.TermV(d.Encode(a)), algebra.TermV(d.Encode(b)), algebra.NumV(float64(i*len(awkward) + j))})
			}
		}
	}

	// Three IRI dimensions with repeats, in the first-seen order a γ
	// leaves: the same shape BenchmarkQueryBody renders.
	wide := benchCube(d, 40)

	return d, map[string]*algebra.Relation{
		"numbers":    numbers,
		"strings":    strs,
		"wide":       wide,
		"empty":      algebra.NewRelation("d0", "v"),
		"empty-cols": {},
	}
}

// TestRenderCubeMatchesReference: appendQueryBody writes the body
// json.NewEncoder(w).Encode(renderCube(…)) wrote, byte for byte — for
// every strategy string, on shuffled rows (the sort path) and presorted
// rows (the skip path) — and leaves the caller's row order alone.
func TestRenderCubeMatchesReference(t *testing.T) {
	d, cases := renderCases(t)
	rng := rand.New(rand.NewSource(1))
	for name, cube := range cases {
		sorted := &algebra.Relation{Cols: cube.Cols, Rows: slices.Clone(cube.Rows)}
		sorted.Sort()
		shuffled := &algebra.Relation{Cols: cube.Cols, Rows: slices.Clone(cube.Rows)}
		rng.Shuffle(len(shuffled.Rows), func(i, j int) {
			shuffled.Rows[i], shuffled.Rows[j] = shuffled.Rows[j], shuffled.Rows[i]
		})
		if len(cube.Rows) > 2 && slices.IsSortedFunc(shuffled.Rows, algebra.CompareRows) {
			t.Fatalf("%s: shuffled rows are sorted; the sort path is not exercised", name)
		}
		for _, order := range []struct {
			name string
			rel  *algebra.Relation
		}{{"original", cube}, {"sorted", sorted}, {"shuffled", shuffled}} {
			before := slices.Clone(order.rel.Rows)
			for i, strategy := range viewreg.Strategies {
				elapsed := int64(i*1_000_003 + 7)
				want := referenceBody(t, renderCube(order.rel, d, strategy, elapsed))
				got := appendQueryBody(nil, termMemo{}, order.rel, d, strategy, elapsed)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/%s/%s: body differs from encoding/json\n got %q\nwant %q", name, order.name, strategy, got, want)
				}
			}
			for i := range before {
				if &before[i][0] != &order.rel.Rows[i][0] {
					t.Fatalf("%s/%s: rendering reordered the caller's rows", name, order.name)
				}
			}
		}
	}

	// The pooled buffer and memo are reused across responses: a second
	// body appended after the first must still be the reference body.
	memo := termMemo{}
	first := appendQueryBody(nil, memo, cases["strings"], d, viewreg.StrategyCached, 1)
	clear(memo)
	both := appendQueryBody(first, memo, cases["wide"], d, viewreg.StrategyDice, 2)
	if want := referenceBody(t, renderCube(cases["wide"], d, viewreg.StrategyDice, 2)); !bytes.Equal(both[len(first):], want) {
		t.Fatalf("body appended to a used buffer differs\n got %q\nwant %q", both[len(first):], want)
	}
}

// TestRenderExplainMatchesReference: the trace ID, span dump and cost
// that ?explain=analyze adds come out in QueryResponse's order, escaped
// as encoding/json escapes them, and left out when empty.
func TestRenderExplainMatchesReference(t *testing.T) {
	d, cases := renderCases(t)
	cube := cases["strings"]
	root := &obs.SpanDump{
		Name: "/query", DurNs: 1234, Rows: 5,
		Attrs: map[string]string{"fingerprint": "<a&b>", "z": "\u2029"},
		Children: []*obs.SpanDump{
			{Name: "viewreg.answer", DurNs: 900, Rows: 5, Seeks: 2, Bytes: 64},
			{Name: "render", DurNs: 300},
		},
	}
	cost := &obs.CostSnapshot{RowsScanned: 10, RowsProduced: 5, Seeks: 2, Nexts: 3, Batches: 1, Bytes: 64, WallNs: 1500, CPUNs: 1400}
	for _, c := range []struct {
		id   string
		root *obs.SpanDump
		cost *obs.CostSnapshot
	}{
		{"4bf92f3577b34da6a3ce929d0e0e4736", root, cost},
		{"", root, cost},
		{"id<&>", nil, cost},
		{"", nil, nil},
	} {
		resp := renderCube(cube, d, viewreg.StrategyDrillIn, 99)
		resp.TraceID, resp.Explain, resp.Cost = c.id, c.root, c.cost
		want := referenceBody(t, resp)
		got, err := appendExplain(appendQueryBody(nil, termMemo{}, cube, d, viewreg.StrategyDrillIn, 99), &obs.TraceDump{ID: c.id, Root: c.root}, c.cost)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("explain body (id %q) differs from encoding/json\n got %q\nwant %q", c.id, got, want)
		}
	}
}

// benchCube is a 3-dimensional count cube over IRI dimensions, rows in a
// γ's first-seen order, which is not sorted: n cities × 5 ages × 3
// topics, encoded into d in an order that makes later rows carry smaller
// IDs.
func benchCube(d *dict.Dictionary, n int) *algebra.Relation {
	cube := algebra.NewRelation("city", "age", "topic", "v")
	iri := func(kind string, i int) algebra.Value {
		return algebra.TermV(d.Encode(rdf.NewIRI(fmt.Sprintf("http://rdfcube.example.org/%s/%d", kind, i))))
	}
	for c := n - 1; c >= 0; c-- {
		iri("city", c)
	}
	for c := 0; c < n; c++ {
		for a := 4; a >= 0; a-- {
			for tp := 0; tp < 3; tp++ {
				cube.Append(algebra.Row{iri("city", c), iri("age", a), iri("topic", tp), algebra.NumV(float64(c%17 + a + tp))})
			}
		}
	}
	return cube
}

// jsonStringCases are strings whose encoding/json rendering escapes
// something: every byte class appendJSONString handles, alone and
// between safe runs.
var jsonStringCases = []string{
	"",
	"plain ascii",
	"<http://example.org/a?b=1&c=2>",
	`"quoted" and \backslash\`,
	"\b\f\n\r\t",
	"\x00\x01\x1f \x7f",
	"<>&",
	"\u2028 line \u2029 para \u202f",
	"héllo wörld ✓ 𝄞",
	"\xff",
	"a\xc3",
	"\xe2\x80",
	"\xed\xa0\x80 surrogate",
	"ok\xf0\x9f\x98",
	`"literal"@en`,
	`"42"^^<http://www.w3.org/2001/XMLSchema#integer>`,
}

// TestAppendJSONString: appendJSONString writes each string as
// json.Marshal does, appended after whatever dst already holds.
func TestAppendJSONString(t *testing.T) {
	for _, s := range jsonStringCases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s, want %s", s, got, want)
		}
		if got := appendJSONString([]byte("x,"), s); !bytes.Equal(got, append([]byte("x,"), want...)) {
			t.Fatalf("%q after a prefix: got %s", s, got)
		}
	}
	if n := testing.AllocsPerRun(100, func() { appendJSONString(make([]byte, 0, 64), "<a & \"b\">") }); n > 1 {
		t.Fatalf("%v allocations per string into a fresh buffer, want at most its one", n)
	}
}

// FuzzAppendJSONString: for any string, appendJSONString writes what
// json.Marshal writes.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range jsonStringCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s, want %s", s, got, want)
		}
	})
}

// BenchmarkQueryBody renders a 3,000-row cube over three IRI dimensions
// into a reused buffer, as /query does: sorted is a registered cube
// (one IsSorted pass), unsorted one a γ left in first-seen order (sorted
// through a copy of the row list).
func BenchmarkQueryBody(b *testing.B) {
	d := dict.New()
	unsorted := benchCube(d, 200)
	sorted := &algebra.Relation{Cols: unsorted.Cols, Rows: slices.Clone(unsorted.Rows)}
	sorted.Sort()
	for _, leg := range []struct {
		name string
		cube *algebra.Relation
	}{{"sorted", sorted}, {"unsorted", unsorted}} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			body := getQueryBody()
			defer putQueryBody(body)
			for b.Loop() {
				body.buf = appendQueryBody(body.buf[:0], body.terms, leg.cube, d, viewreg.StrategyCached, 12345)
				clear(body.terms)
			}
			b.SetBytes(int64(len(body.buf)))
		})
	}
}

// TestCachedBodyMatchesDirectBytes: on a cube whose γ leaves its rows
// unsorted, a cached answer (sorted once, when the registry published
// it) and a direct one (sorted through a copy at render) send the same
// bytes except strategy and elapsed_ns.
func TestCachedBodyMatchesDirectBytes(t *testing.T) {
	const n = 40
	st := store.New()
	iri := func(s string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("%s%s%d", starNS, s, i)) }
	// Dimension values are interned high-to-low before the facts that
	// carry them, so facts in subject order meet them in falling ID order.
	for i := n - 1; i >= 0; i-- {
		st.Add(rdf.NewTriple(iri("v", i), iri("rank", 0), rdf.NewInt(int64(i))))
	}
	for i := 0; i < n; i++ {
		s := iri("s", i)
		st.Add(rdf.NewTriple(s, iri("a", 1), iri("v", i%3)))
		st.Add(rdf.NewTriple(s, iri("a", 2), iri("v", i)))
		st.Add(rdf.NewTriple(s, iri("a", 0), rdf.NewInt(int64(i))))
	}
	st.Freeze()
	srv := New(st, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	req := &QueryRequest{
		Classifier: "c(x, d, e) :- x s:a1 d, x s:a2 e",
		Measure:    "m(x, v) :- x s:a0 v",
		Agg:        "sum",
		Prefixes:   map[string]string{"s": starNS},
	}
	q, err := buildQuery(req)
	if err != nil {
		t.Fatal(err)
	}
	g, err := srv.reg.Evaluator().Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != n || slices.IsSortedFunc(g.Rows, algebra.CompareRows) {
		t.Fatalf("γ gave %d rows, sorted=%t: want %d unsorted rows, or the sort paths go unexercised",
			len(g.Rows), slices.IsSortedFunc(g.Rows, algebra.CompareRows), n)
	}

	mask := regexp.MustCompile(`"strategy":"[^"]*"|"elapsed_ns":\d+`)
	body := func(direct bool, want string) string {
		r := *req
		r.Direct = direct
		status, b := postJSON(t, ts.Client(), ts.URL+"/query", &r, nil)
		if status != http.StatusOK || !strings.Contains(b, `"strategy":"`+want+`"`) {
			t.Fatalf("direct=%t: status %d, want strategy %s: %s", direct, status, want, b)
		}
		return mask.ReplaceAllString(b, "")
	}
	first := body(false, "direct")
	cached := body(false, "cached")
	direct := body(true, "direct")
	if cached != direct || first != direct {
		t.Fatalf("bodies differ once strategy and elapsed_ns are masked\nregistered %s\n    cached %s\n    direct %s", first, cached, direct)
	}
}
