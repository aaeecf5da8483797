package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfcube/internal/ans"
	"rdfcube/internal/datagen"
	"rdfcube/internal/nt"
	"rdfcube/internal/rdf"
	"rdfcube/internal/store"
)

// ntBody renders a store as an N-Triples request body.
func ntBody(t *testing.T, st *store.Store) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := nt.NewWriter(&buf)
	d := st.Dict()
	st.ForEach(store.Pattern{}, func(tr store.IDTriple) bool {
		term, ok := d.DecodeTriple(tr.S, tr.P, tr.O)
		if !ok {
			t.Fatal("undecodable triple")
		}
		if err := w.Write(term); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// schemaRequest serializes an ans.Schema through the wire format.
func schemaRequest(s *ans.Schema, saturate bool) *SchemaRequest {
	req := &SchemaRequest{Name: s.Name, Saturate: saturate}
	for _, n := range s.Nodes {
		req.Nodes = append(req.Nodes, SchemaNode{Class: n.Class.String(), Query: n.Query.String()})
	}
	for _, e := range s.Edges {
		req.Edges = append(req.Edges, SchemaEdge{
			Property: e.Property.String(),
			From:     e.From.String(),
			To:       e.To.String(),
			Query:    e.Query.String(),
		})
	}
	return req
}

func postJSON(t *testing.T, client *http.Client, url string, body any, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("unmarshal %s: %v (body %q)", url, err, data)
		}
	}
	return resp.StatusCode, string(data)
}

// startBloggerServer boots a server, loads a saturated blogger dataset
// and materializes the 2-dimensional blogger schema over HTTP.
func startBloggerServer(t *testing.T, bloggers int) (*httptest.Server, *QueryRequest) {
	t.Helper()
	return startBloggerServerCfg(t, bloggers, Config{})
}

// startBloggerServerCfg is startBloggerServer with a custom Config.
func startBloggerServerCfg(t *testing.T, bloggers int, scfg Config) (*httptest.Server, *QueryRequest) {
	t.Helper()
	srv := New(nil, scfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	cfg := datagen.DefaultBloggerConfig()
	cfg.Bloggers = bloggers
	cfg.Dimensions = 2
	base, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/load", "text/plain", ntBody(t, base))
	if err != nil {
		t.Fatal(err)
	}
	var lr LoadResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || lr.Triples == 0 {
		t.Fatalf("/load: status %d resp %+v", resp.StatusCode, lr)
	}

	schema, err := datagen.BloggerSchema(2)
	if err != nil {
		t.Fatal(err)
	}
	var mr MaterializeResponse
	status, body := postJSON(t, ts.Client(), ts.URL+"/materialize", schemaRequest(schema, true), &mr)
	if status != http.StatusOK || mr.InstanceTriples == 0 {
		t.Fatalf("/materialize: status %d body %s", status, body)
	}

	baseQuery := &QueryRequest{
		Classifier: "c(x, d0, d1) :- x rdf:type :Blogger, x :hasAge d0, x :livesIn d1",
		Measure:    "m(x, v) :- x rdf:type :Blogger, x :wrotePost p, p :postedOn v",
		Agg:        "count",
		Prefixes:   map[string]string{"": datagen.NS},
	}
	return ts, baseQuery
}

// cloneQuery deep-copies a QueryRequest through JSON.
func cloneQuery(t *testing.T, q *QueryRequest) *QueryRequest {
	t.Helper()
	raw, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	var out QueryRequest
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestEndToEndConcurrentOLAPSession is the acceptance scenario: load →
// materialize → cube → DICE → DRILL-OUT over HTTP from concurrent
// clients; the transformed queries must be answered by rewriting — or,
// once a rewrite result is registered on its second ask, from it — with
// results byte-identical to direct evaluation.
func TestEndToEndConcurrentOLAPSession(t *testing.T) {
	ts, baseQuery := startBloggerServer(t, 400)

	diceOps := []OpSpec{{
		Op: "dice",
		Restrictions: map[string][]string{
			"d0": {"20", "21", "22", "23"},
			"d1": {":livesIn_val0", ":livesIn_val1", ":livesIn_val2"},
		},
	}}
	drillOps := []OpSpec{{Op: "drillout", Dims: []string{"d1"}}}

	const clients = 5
	type session struct {
		cube, dice, drill QueryResponse
		err               error
	}
	results := make([]session, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run := func(req *QueryRequest, out *QueryResponse) bool {
				raw, _ := json.Marshal(req)
				resp, err := ts.Client().Post(ts.URL+"/query", "application/json", bytes.NewReader(raw))
				if err != nil {
					results[i].err = err
					return false
				}
				defer resp.Body.Close()
				data, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != http.StatusOK {
					results[i].err = fmt.Errorf("status %d: %s", resp.StatusCode, data)
					return false
				}
				if err := json.Unmarshal(data, out); err != nil {
					results[i].err = err
					return false
				}
				return true
			}
			if !run(baseQuery, &results[i].cube) {
				return
			}
			diced := cloneQuery(t, baseQuery)
			diced.Ops = diceOps
			if !run(diced, &results[i].dice) {
				return
			}
			drilled := cloneQuery(t, baseQuery)
			drilled.Ops = drillOps
			run(drilled, &results[i].drill)
		}(i)
	}
	wg.Wait()

	// Direct-evaluation references for the transformed queries.
	directOf := func(ops []OpSpec) *QueryResponse {
		req := cloneQuery(t, baseQuery)
		req.Ops = ops
		req.Direct = true
		var out QueryResponse
		status, body := postJSON(t, ts.Client(), ts.URL+"/query", req, &out)
		if status != http.StatusOK {
			t.Fatalf("direct query: status %d body %s", status, body)
		}
		return &out
	}
	directDice := directOf(diceOps)
	directDrill := directOf(drillOps)
	if len(directDice.Rows) == 0 || len(directDrill.Rows) == 0 {
		t.Fatalf("degenerate references: dice %d rows, drill %d rows",
			len(directDice.Rows), len(directDrill.Rows))
	}

	rowsJSON := func(r *QueryResponse) string {
		raw, err := json.Marshal(struct {
			Cols []string   `json:"cols"`
			Rows [][]string `json:"rows"`
		}{r.Cols, r.Rows})
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	wantDice, wantDrill := rowsJSON(directDice), rowsJSON(directDrill)

	directCubes := 0
	var nDice, nDrill, nCached int64
	for i := range results {
		if results[i].err != nil {
			t.Fatalf("client %d: %v", i, results[i].err)
		}
		switch results[i].cube.Strategy {
		case string("direct"):
			directCubes++
		case string("cached"):
		default:
			t.Errorf("client %d: cube strategy %q", i, results[i].cube.Strategy)
		}
		switch results[i].dice.Strategy {
		case "dice-rewrite":
			nDice++
		case "cached":
			nCached++
		default:
			t.Errorf("client %d: dice strategy %q, want dice-rewrite or cached", i, results[i].dice.Strategy)
		}
		switch results[i].drill.Strategy {
		case "drillout-rewrite":
			nDrill++
		case "cached":
			nCached++
		default:
			t.Errorf("client %d: drill strategy %q, want drillout-rewrite or cached", i, results[i].drill.Strategy)
		}
		if got := rowsJSON(&results[i].dice); got != wantDice {
			t.Errorf("client %d: dice rows differ from direct evaluation\n got %s\nwant %s", i, got, wantDice)
		}
		if got := rowsJSON(&results[i].drill); got != wantDrill {
			t.Errorf("client %d: drill rows differ from direct evaluation\n got %s\nwant %s", i, got, wantDrill)
		}
	}
	if directCubes != 1 {
		t.Errorf("direct cube evaluations = %d, want exactly 1 (single-flight)", directCubes)
	}

	// Server-side counters agree.
	var stats StatsResponse
	resp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := stats.Registry.Strategies
	if st["direct"] != 1 {
		t.Errorf("statsz direct = %d, want 1 (stats %+v)", st["direct"], st)
	}
	if st["cached"] != clients-1+nCached {
		t.Errorf("statsz cached = %d, want %d", st["cached"], clients-1+nCached)
	}
	// The first ask of each transformation is a rewrite; every ask is a
	// rewrite until the second registers the result.
	if nDice == 0 || nDrill == 0 || st["dice-rewrite"] != nDice || st["drillout-rewrite"] != nDrill {
		t.Errorf("rewrite counters %+v, want dice-rewrite %d and drillout-rewrite %d (both > 0)", st, nDice, nDrill)
	}
	if stats.Registry.Entries != 3 {
		t.Errorf("statsz entries = %d, want 3 (base + the DICE and DRILL-OUT results)", stats.Registry.Entries)
	}
	if stats.Endpoints["/query"].Count == 0 {
		t.Error("statsz missing /query endpoint metrics")
	}
	if stats.Instance.DeltaTriples != 0 {
		t.Errorf("instance has a pending delta of %d after materialize", stats.Instance.DeltaTriples)
	}
}

func TestDrillInOverHTTP(t *testing.T) {
	ts, baseQuery := startBloggerServer(t, 150)
	// The base query keeps d1 existential in the classifier body, so
	// drilling it in adds a dimension Algorithm 2 can reconstruct from
	// pres via q_aux. (The full (d0, d1) cube must NOT be materialized
	// first: it would equal the drill-in target and win as "cached".)
	drillin := &QueryRequest{
		Classifier: "c(x, d0) :- x rdf:type :Blogger, x :hasAge d0, x :livesIn d1",
		Measure:    baseQuery.Measure,
		Agg:        "count",
		Prefixes:   baseQuery.Prefixes,
	}
	var first QueryResponse
	if status, body := postJSON(t, ts.Client(), ts.URL+"/query", drillin, &first); status != http.StatusOK {
		t.Fatalf("base: %s", body)
	}
	added := cloneQuery(t, drillin)
	added.Ops = []OpSpec{{Op: "drillin", Dim: "d1"}}
	var resp QueryResponse
	if status, body := postJSON(t, ts.Client(), ts.URL+"/query", added, &resp); status != http.StatusOK {
		t.Fatalf("drillin: %s", body)
	}
	if resp.Strategy != "drillin-rewrite" {
		t.Errorf("strategy %q, want drillin-rewrite", resp.Strategy)
	}
	direct := cloneQuery(t, added)
	direct.Direct = true
	var want QueryResponse
	if status, body := postJSON(t, ts.Client(), ts.URL+"/query", direct, &want); status != http.StatusOK {
		t.Fatalf("direct: %s", body)
	}
	got, _ := json.Marshal(resp.Rows)
	wantRaw, _ := json.Marshal(want.Rows)
	if !bytes.Equal(got, wantRaw) {
		t.Errorf("drill-in rows differ from direct evaluation")
	}
}

// TestPermutedDimsAnswerInAskersOrder: a view registered as (x, d0, d1)
// answers (x, d1, d0) and its DICE in the asker's column order, with
// response bytes identical to direct evaluation's.
func TestPermutedDimsAnswerInAskersOrder(t *testing.T) {
	ts, baseQuery := startBloggerServer(t, 150)
	var first QueryResponse
	if status, body := postJSON(t, ts.Client(), ts.URL+"/query", baseQuery, &first); status != http.StatusOK {
		t.Fatalf("base: %s", body)
	}
	perm := cloneQuery(t, baseQuery)
	perm.Classifier = "c(x, d1, d0) :- x rdf:type :Blogger, x :hasAge d0, x :livesIn d1"
	diced := cloneQuery(t, perm)
	diced.Ops = []OpSpec{{Op: "dice", Restrictions: map[string][]string{"d0": {"20", "21", "22"}}}}
	for _, c := range []struct {
		req      *QueryRequest
		strategy string
	}{{perm, "cached"}, {diced, "dice-rewrite"}} {
		var got, want QueryResponse
		postJSON(t, ts.Client(), ts.URL+"/query", c.req, &got)
		if got.Strategy != c.strategy {
			t.Fatalf("%v: strategy %q, want %q", c.req.Ops, got.Strategy, c.strategy)
		}
		direct := cloneQuery(t, c.req)
		direct.Direct = true
		postJSON(t, ts.Client(), ts.URL+"/query", direct, &want)
		got.Strategy, got.ElapsedNs, want.Strategy, want.ElapsedNs = "", 0, "", 0
		gotRaw, _ := json.Marshal(got)
		wantRaw, _ := json.Marshal(want)
		if !bytes.Equal(gotRaw, wantRaw) || len(want.Rows) == 0 || want.Cols[0] != "d1" {
			t.Fatalf("%v: response differs from direct evaluation\n got %s\nwant %s", c.req.Ops, gotRaw, wantRaw)
		}
	}
}

func TestWriteInvalidatesViewsOverHTTP(t *testing.T) {
	ts, baseQuery := startBloggerServer(t, 120)
	var first QueryResponse
	postJSON(t, ts.Client(), ts.URL+"/query", baseQuery, &first)
	if first.Strategy != "direct" {
		t.Fatalf("first answer strategy %q", first.Strategy)
	}
	var again QueryResponse
	postJSON(t, ts.Client(), ts.URL+"/query", baseQuery, &again)
	if again.Strategy != "cached" {
		t.Fatalf("second answer strategy %q, want cached", again.Strategy)
	}

	// A write to the serving instance's dictionary-shared base does not
	// invalidate (the instance is separate); re-materializing does.
	schema, err := datagen.BloggerSchema(2)
	if err != nil {
		t.Fatal(err)
	}
	var mr MaterializeResponse
	if status, body := postJSON(t, ts.Client(), ts.URL+"/materialize", schemaRequest(schema, false), &mr); status != http.StatusOK {
		t.Fatalf("re-materialize: %s", body)
	}
	var after QueryResponse
	postJSON(t, ts.Client(), ts.URL+"/query", baseQuery, &after)
	if after.Strategy != "direct" {
		t.Errorf("post-rematerialize strategy %q, want direct (registry must reset)", after.Strategy)
	}
}

// insertBody renders a batch of new blogger facts — instance-vocabulary
// triples matching the benchmark query — as an N-Triples body.
func insertBody(t *testing.T, batch, perBatch int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w := nt.NewWriter(&buf)
	write := func(s, p, o rdf.Term) {
		if err := w.Write(rdf.Triple{S: s, P: p, O: o}); err != nil {
			t.Fatal(err)
		}
	}
	res := func(local string) rdf.Term { return rdf.NewIRI(datagen.NS + local) }
	for i := 0; i < perBatch; i++ {
		id := batch*perBatch + i
		u := res(fmt.Sprintf("wuser%d", id))
		write(u, rdf.Type, res("Blogger"))
		write(u, res("hasAge"), datagen.DimValue(0, id%8))
		write(u, res("livesIn"), datagen.DimValue(1, id%3))
		post := res(fmt.Sprintf("wpost%d", id))
		write(u, res("wrotePost"), post)
		write(post, res("postedOn"), res(fmt.Sprintf("wsite%d", id%5)))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestInterleavedInsertQueryDifferential is the write-heavy acceptance
// scenario: interleaved Insert/Slice/Dice through the server must
// produce cubes byte-identical to a from-scratch direct evaluation, with
// the registered views *maintained* across the writes (one direct
// evaluation per query shape in total, maintained counters growing, no
// invalidations while the delta stays below the compaction threshold).
func TestInterleavedInsertQueryDifferential(t *testing.T) {
	ts, baseQuery := startBloggerServer(t, 120)

	diced := cloneQuery(t, baseQuery)
	diced.Ops = []OpSpec{{
		Op: "dice",
		Restrictions: map[string][]string{
			"d0": {"18", "19", "20", "21"},
		},
	}}
	sliced := cloneQuery(t, baseQuery)
	sliced.Ops = []OpSpec{{Op: "slice", Dim: "d1", Value: ":livesIn_val1"}}

	query := func(req *QueryRequest, direct bool) *QueryResponse {
		t.Helper()
		q := cloneQuery(t, req)
		q.Direct = direct
		var out QueryResponse
		status, body := postJSON(t, ts.Client(), ts.URL+"/query", q, &out)
		if status != http.StatusOK {
			t.Fatalf("query: status %d body %s", status, body)
		}
		return &out
	}
	rowsJSON := func(r *QueryResponse) string {
		raw, err := json.Marshal(struct {
			Cols []string   `json:"cols"`
			Rows [][]string `json:"rows"`
		}{r.Cols, r.Rows})
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	// Materialize the base cube once; everything after must be served by
	// rewriting over the maintained views.
	if first := query(baseQuery, false); first.Strategy != "direct" {
		t.Fatalf("first cube strategy %q", first.Strategy)
	}

	var maintained int64
	for round := 0; round < 6; round++ {
		resp, err := ts.Client().Post(ts.URL+"/insert", "text/plain", insertBody(t, round, 3))
		if err != nil {
			t.Fatal(err)
		}
		var ir InsertResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ir.Added == 0 || ir.Delta == 0 {
			t.Fatalf("round %d: insert %+v", round, ir)
		}
		if ir.Invalidated != 0 {
			t.Fatalf("round %d: insert invalidated %d views below the compaction threshold", round, ir.Invalidated)
		}
		maintained += ir.Maintained

		for _, req := range []*QueryRequest{baseQuery, sliced, diced} {
			got := query(req, false)
			want := query(req, true)
			switch got.Strategy {
			case "cached", "dice-rewrite":
			default:
				t.Fatalf("round %d: strategy %q, want a view-based answer", round, got.Strategy)
			}
			if rowsJSON(got) != rowsJSON(want) {
				t.Fatalf("round %d (%v): maintained cube differs from direct evaluation\n got %s\nwant %s",
					round, req.Ops, rowsJSON(got), rowsJSON(want))
			}
		}
	}
	if maintained == 0 {
		t.Fatal("no view maintenance was reported across six write rounds")
	}

	var stats StatsResponse
	resp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Registry.Strategies["direct"] != 1 {
		t.Errorf("direct evaluations = %d, want 1 (views must be maintained, not recomputed; stats %+v)",
			stats.Registry.Strategies["direct"], stats.Registry)
	}
	if stats.Registry.Maintained == 0 {
		t.Error("statsz maintained counter is 0")
	}
	if stats.Instance.DeltaTriples == 0 || stats.Instance.DeltaSeq == 0 {
		t.Errorf("instance delta not visible in statsz: %+v", stats.Instance)
	}
	if stats.Endpoints["/insert"].Count == 0 {
		t.Error("statsz missing /insert endpoint metrics")
	}
}

func TestQueryValidation(t *testing.T) {
	srv := New(nil, Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	cases := []QueryRequest{
		{}, // missing queries
		{Classifier: "c(x) :-", Measure: "m(x, v) :- x :p v"},                                                                   // parse error
		{Classifier: "c(x) :- x :p y", Measure: "m(x, v) :- x :p v", Agg: "nope", Prefixes: map[string]string{"": "http://e/"}}, // bad agg
		{Classifier: "c(x) :- x :p y", Measure: "m(x, v) :- x :p v", Prefixes: map[string]string{"": "http://e/"},
			Ops: []OpSpec{{Op: "teleport"}}}, // bad op
	}
	for i, c := range cases {
		status, _ := postJSON(t, ts.Client(), ts.URL+"/query", &c, nil)
		if status != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, status)
		}
	}

	if resp, err := ts.Client().Post(ts.URL+"/load", "text/plain", strings.NewReader("not ntriples at all")); err == nil {
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/load garbage: status %d, want 400", resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v %v", err, resp)
	}
	resp.Body.Close()
}

func TestSnapshotRoundTripOverHTTP(t *testing.T) {
	ts, baseQuery := startBloggerServer(t, 100)

	// Pull a snapshot of the materialized instance, boot a second server
	// from it, and check it answers the same cube.
	resp, err := ts.Client().Get(ts.URL + "/snapshot?graph=instance")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(snap) == 0 {
		t.Fatalf("snapshot: %v (%d bytes)", err, len(snap))
	}

	srv2 := New(nil, Config{})
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	resp, err = ts2.Client().Post(ts2.URL+"/load-snapshot", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	var lr LoadResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if lr.Triples == 0 {
		t.Fatalf("load-snapshot: %+v", lr)
	}

	var a, b QueryResponse
	postJSON(t, ts.Client(), ts.URL+"/query", baseQuery, &a)
	postJSON(t, ts2.Client(), ts2.URL+"/query", baseQuery, &b)
	ra, _ := json.Marshal(a.Rows)
	rb, _ := json.Marshal(b.Rows)
	if !bytes.Equal(ra, rb) {
		t.Error("snapshot round trip changed the cube")
	}
}

// TestBackgroundCompaction: with Config.BackgroundCompaction, a write
// that fills the delta overlay past the threshold returns immediately
// and a background goroutine folds the overlay into a rebuilt base —
// observable as the /statsz background_compactions counter, a drained
// delta, an advanced instance base epoch, and answers that stay
// byte-identical to direct evaluation throughout.
func TestBackgroundCompaction(t *testing.T) {
	const threshold = 12
	ts, baseQuery := startBloggerServerCfg(t, 120, Config{
		CompactThreshold:     threshold,
		BackgroundCompaction: true,
	})

	statsz := func() *StatsResponse {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return &out
	}
	epoch0 := statsz().Instance.BaseEpoch

	var first QueryResponse
	postJSON(t, ts.Client(), ts.URL+"/query", baseQuery, &first)
	if first.Strategy != "direct" {
		t.Fatalf("first answer strategy %q", first.Strategy)
	}

	// One insert round writes 15 instance triples — past the threshold.
	// The response must come back with the overlay still pending (the
	// compaction happens behind it, not on the write path).
	resp, err := ts.Client().Post(ts.URL+"/insert", "text/plain", insertBody(t, 0, 3))
	if err != nil {
		t.Fatal(err)
	}
	var ir InsertResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ir.Added == 0 {
		t.Fatalf("insert: %+v", ir)
	}
	if ir.Delta < threshold {
		t.Fatalf("insert returned delta %d < threshold %d: compaction ran inline", ir.Delta, threshold)
	}

	deadline := time.Now().Add(10 * time.Second)
	var st *StatsResponse
	for {
		st = statsz()
		if st.BackgroundCompactions >= 1 && st.Instance.DeltaTriples == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never completed: %+v", st.Instance)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Instance.BaseEpoch <= epoch0 {
		t.Fatalf("instance base epoch %d did not advance past %d", st.Instance.BaseEpoch, epoch0)
	}

	// Correctness across the swap: registry answer == direct answer.
	reg := cloneQuery(t, baseQuery)
	direct := cloneQuery(t, baseQuery)
	direct.Direct = true
	var got, want QueryResponse
	postJSON(t, ts.Client(), ts.URL+"/query", reg, &got)
	postJSON(t, ts.Client(), ts.URL+"/query", direct, &want)
	gotRows, _ := json.Marshal(got.Rows)
	wantRows, _ := json.Marshal(want.Rows)
	if string(gotRows) != string(wantRows) {
		t.Fatalf("post-compaction cube differs from direct evaluation\n got %s\nwant %s", gotRows, wantRows)
	}
}
