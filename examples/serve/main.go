// Client walkthrough of the rdfcubed HTTP API: load the blogger dataset
// into a running server, materialize the blogger analytical schema,
// then run an interactive-style OLAP session — the base cube, a DICE
// and a DRILL-OUT — printing which strategy answered each request. The
// transformed queries are answered by the server's shared view registry
// rewriting another request's materialized results (the paper's
// Figure 2 as a service): only the first cube touches the instance.
//
// Point it at a daemon with -addr, or run it standalone (it boots an
// in-process server on a loopback port):
//
//	go run ./examples/serve                  # self-contained
//	rdfcubed -addr :8344 &                   # or against a daemon
//	go run ./examples/serve -addr http://localhost:8344
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"rdfcube/internal/datagen"
	"rdfcube/internal/nt"
	"rdfcube/internal/server"
	"rdfcube/internal/store"
)

func main() {
	addr := flag.String("addr", "", "server base URL (empty: start an in-process server)")
	bloggers := flag.Int("bloggers", 5000, "blogger count for the generated dataset")
	flag.Parse()

	base := *addr
	if base == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := server.New(nil, server.Config{MaxViewBytes: 64 << 20})
		go http.Serve(ln, srv.Handler())
		base = "http://" + ln.Addr().String()
		fmt.Printf("started in-process rdfcubed on %s\n", base)
	}

	// 1. Load the blogger dataset (Figure 1's scenario) as N-Triples.
	cfg := datagen.DefaultBloggerConfig()
	cfg.Bloggers = *bloggers
	cfg.Dimensions = 2
	graph, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	w := nt.NewWriter(&buf)
	d := graph.Dict()
	graph.ForEach(store.Pattern{}, func(t store.IDTriple) bool {
		tr, _ := d.DecodeTriple(t.S, t.P, t.O)
		w.Write(tr)
		return true
	})
	w.Flush()
	var load server.LoadResponse
	mustCall(base+"/load", "text/plain", buf.Bytes(), &load)
	fmt.Printf("loaded %d triples\n", load.Triples)

	// 2. Materialize the blogger analytical schema (RDFS-saturating the
	// base first, so :dwellsIn facts reach :livesIn).
	schema, err := datagen.BloggerSchema(2)
	if err != nil {
		log.Fatal(err)
	}
	schemaReq := server.SchemaRequest{Name: schema.Name, Saturate: true}
	for _, n := range schema.Nodes {
		schemaReq.Nodes = append(schemaReq.Nodes, server.SchemaNode{
			Class: n.Class.String(), Query: n.Query.String(),
		})
	}
	for _, e := range schema.Edges {
		schemaReq.Edges = append(schemaReq.Edges, server.SchemaEdge{
			Property: e.Property.String(), From: e.From.String(), To: e.To.String(),
			Query: e.Query.String(),
		})
	}
	raw, _ := json.Marshal(schemaReq)
	var mat server.MaterializeResponse
	mustCall(base+"/materialize", "application/json", raw, &mat)
	fmt.Printf("materialized %q: %d instance triples\n\n", mat.Name, mat.InstanceTriples)

	// 3. The OLAP session. Example 1's cube — bloggers by (age, city),
	// counting the sites they post on — then a DICE on young city
	// dwellers, then Example 5's drill-out (drop the city dimension;
	// Algorithm 1 deduplicates multi-valued facts before re-aggregating).
	cube := server.QueryRequest{
		Classifier: "c(x, age, city) :- x rdf:type :Blogger, x :hasAge age, x :livesIn city",
		Measure:    "m(x, site) :- x rdf:type :Blogger, x :wrotePost p, p :postedOn site",
		Agg:        "count",
		Prefixes:   map[string]string{"": datagen.NS},
	}
	dice := cube
	dice.Ops = []server.OpSpec{{
		Op: "dice",
		Restrictions: map[string][]string{
			"age":  {"20", "21", "22", "23", "24"},
			"city": {":livesIn_val0", ":livesIn_val1"},
		},
	}}
	drill := cube
	drill.Ops = []server.OpSpec{{Op: "drillout", Dims: []string{"city"}}}

	fmt.Printf("%-28s %-18s %10s %8s\n", "request", "strategy", "time", "cells")
	for _, step := range []struct {
		name string
		req  server.QueryRequest
	}{
		{"Q: cube (age, city)", cube},
		{"DICE age∈20..24, 2 cities", dice},
		{"DRILL-OUT city (Example 5)", drill},
	} {
		raw, _ := json.Marshal(step.req)
		t0 := time.Now()
		var resp server.QueryResponse
		mustCall(base+"/query", "application/json", raw, &resp)
		fmt.Printf("%-28s %-18s %10v %8d\n",
			step.name, resp.Strategy, time.Since(t0).Round(time.Microsecond), resp.Cells)
	}

	// 4. Server-side strategy totals.
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		log.Fatal(err)
	}
	var stats server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nserver strategies: %v\n", stats.Registry.Strategies)
	fmt.Printf("views registered: %d (~%d KiB)\n", stats.Registry.Entries, stats.Registry.Bytes>>10)
	fmt.Println("only the first request evaluated the instance; the DICE and the")
	fmt.Println("DRILL-OUT were rewritten from its registered pres(Q)/ans(Q).")
}

// mustCall POSTs a body and decodes the JSON response, aborting on any
// failure.
func mustCall(url, contentType string, body []byte, out any) {
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		log.Fatalf("%s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("%s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: HTTP %d: %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		log.Fatalf("%s: %v (%s)", url, err, data)
	}
}
