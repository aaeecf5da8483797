package main

// Operation streams. Everything a workload sends is generated here from
// the seed before the server starts: a pool of distinct OLAP requests
// over four base cubes, one index stream per closed-loop client, and
// the insert batches of the writer. The server sees only the rendered
// JSON / N-Triples bodies.

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"rdfcube/internal/agg"
	"rdfcube/internal/core"
	"rdfcube/internal/datagen"
	"rdfcube/internal/nt"
	"rdfcube/internal/rdf"
	"rdfcube/internal/server"
	"rdfcube/internal/sparql"
)

// dims is the dataset dimensionality: every classifier body mentions
// all three dimension properties, so a 2-dimensional cube keeps d2 as an
// existential variable that DRILL-IN can promote.
const dims = 3

// Operation classes. The class of a request is the OLAP operation it
// applies to its base cube, whatever strategy the server answers with.
const (
	classBase = iota
	classSlice
	classDice
	classDrillOut
	classDrillIn
	numClasses
)

var classNames = [numClasses]string{"base", "slice", "dice", "drillout", "drillin"}

// classShare is the request mix in percent: 10 % exact repeats of a
// base cube, 30 % SLICE, 25 % DICE, 20 % DRILL-OUT, 15 % DRILL-IN.
var classShare = [numClasses]int{10, 30, 25, 20, 15}

// baseCube is one of the cubes the warm-up materializes.
type baseCube struct {
	dims    int
	agg     string
	measure string // measured property
}

// The 2-dimensional cubes aggregate differently from the 3-dimensional
// ones, so no DRILL-IN or DRILL-OUT of one base is literally another
// base (which the registry would answer as a plain cached hit).
var baseCubes = []baseCube{
	{3, "count", "postedOn"},
	{3, "sum", "hasWordCount"},
	{2, "avg", "hasWordCount"},
	{2, "max", "hasWordCount"},
}

func (b baseCube) classifier() string {
	head, body := "x", "x rdf:type :Blogger"
	for d := 0; d < dims; d++ {
		if d < b.dims {
			head += fmt.Sprintf(", d%d", d)
		}
		body += fmt.Sprintf(", x :%s d%d", datagen.DimensionProps[d], d)
	}
	return fmt.Sprintf("c(%s) :- %s", head, body)
}

func (b baseCube) measureQuery() string {
	return fmt.Sprintf("m(x, v) :- x rdf:type :Blogger, x :wrotePost p, p :%s v", b.measure)
}

// op is one request of the pool: a base cube plus at most one OLAP
// operation, in both its typed form (for the in-process ladder) and its
// rendered HTTP body.
type op struct {
	id    int
	class int
	base  int
	// Parameters of the operation, by class.
	dim    string     // slice, drillin
	values []rdf.Term // slice (one value), dice (value set on dim d0)
	drop   []string   // drillout
	body   []byte     // POST /query payload
}

// request renders the op as the server's wire type.
func (o *op) request(direct bool) *server.QueryRequest {
	b := baseCubes[o.base]
	req := &server.QueryRequest{
		Classifier: b.classifier(),
		Measure:    b.measureQuery(),
		Agg:        b.agg,
		Prefixes:   map[string]string{"": datagen.NS},
		Direct:     direct,
	}
	switch o.class {
	case classSlice:
		req.Ops = []server.OpSpec{{Op: "slice", Dim: o.dim, Value: o.values[0].String()}}
	case classDice:
		vals := make([]string, len(o.values))
		for i, v := range o.values {
			vals[i] = v.String()
		}
		req.Ops = []server.OpSpec{{Op: "dice", Restrictions: map[string][]string{"d0": vals}}}
	case classDrillOut:
		req.Ops = []server.OpSpec{{Op: "drillout", Dims: o.drop}}
	case classDrillIn:
		req.Ops = []server.OpSpec{{Op: "drillin", Dim: o.dim}}
	}
	return req
}

// baseQuery builds the typed analytical query of base cube b.
func baseQuery(b baseCube) (*core.Query, error) {
	px := datagen.Prefixes()
	c, err := sparql.ParseDatalog(b.classifier(), px)
	if err != nil {
		return nil, err
	}
	m, err := sparql.ParseDatalog(b.measureQuery(), px)
	if err != nil {
		return nil, err
	}
	f, err := agg.ByName(b.agg)
	if err != nil {
		return nil, err
	}
	return core.New(c, m, f)
}

// query builds the typed transformed query, the same one the server
// derives from the JSON body.
func (o *op) query() (*core.Query, error) {
	q, err := baseQuery(baseCubes[o.base])
	if err != nil {
		return nil, err
	}
	switch o.class {
	case classSlice:
		return core.Slice(q, o.dim, o.values[0])
	case classDice:
		return core.Dice(q, map[string][]rdf.Term{"d0": o.values})
	case classDrillOut:
		return core.DrillOut(q, o.drop...)
	case classDrillIn:
		return core.DrillIn(q, o.dim)
	}
	return q, nil
}

// genPool returns n ops over the given base cubes. What decides an op's
// cost is laid out by its index within its class, not drawn: class
// counts follow classShare exactly (largest remainders); SLICE, DICE and
// DRILL-OUT take the 3-dimensional cubes in turn and DRILL-IN the
// 2-dimensional ones, so a class is one cost population per cube; SLICE
// takes the dimensions in turn, DICE sizes step evenly from 1 value to
// half the age domain, DRILL-OUT drops d0 and d1 in turn (never d2
// alone, whose result would be another base cube). The seed picks the
// values and the order. A class median then moves with the system, not
// with the seed's draw of the mix.
func genPool(rng *rand.Rand, n int, direct bool, bases []int) ([]*op, error) {
	var wide, flat []int
	for _, b := range bases {
		if baseCubes[b].dims == dims {
			wide = append(wide, b)
		} else {
			flat = append(flat, b)
		}
	}
	card := datagen.DimCardinality(0)
	var pool []*op
	for class, cnt := range apportion(n, classShare[:]) {
		for i := 0; i < cnt; i++ {
			o := &op{class: class}
			switch class {
			case classBase:
				o.base = bases[i%len(bases)]
			case classSlice:
				o.base = wide[i%len(wide)]
				d := i / len(wide) % dims
				o.dim = fmt.Sprintf("d%d", d)
				o.values = []rdf.Term{datagen.DimValue(d, rng.Intn(datagen.DimCardinality(d)))}
			case classDice:
				o.base = wide[i%len(wide)]
				k := 1 + i*(card/2)/cnt
				start := rng.Intn(card)
				for j := 0; j < k; j++ {
					o.values = append(o.values, datagen.DimValue(0, (start+j)%card))
				}
			case classDrillOut:
				o.base = wide[i%len(wide)]
				o.drop = []string{fmt.Sprintf("d%d", i/len(wide)%2)}
			case classDrillIn:
				o.base = flat[i%len(flat)]
				o.dim = "d2"
			}
			pool = append(pool, o)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for i, o := range pool {
		o.id = i
		body, err := json.Marshal(o.request(direct))
		if err != nil {
			return nil, err
		}
		o.body = body
	}
	return pool, nil
}

// apportion splits n into parts proportional to shares (which sum to
// 100), by largest remainder.
func apportion(n int, shares []int) []int {
	out := make([]int, len(shares))
	rem := make([]int, len(shares))
	left := n
	for i, s := range shares {
		out[i] = n * s / 100
		rem[i] = n * s % 100
		left -= out[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		out[best]++
		rem[best] = -1
	}
	return out
}

// genStream returns the order in which one client walks the pool:
// repeated seeded permutations, so every op is issued once before any is
// issued twice and the class mix holds over any window.
func genStream(rng *rand.Rand, poolSize, length int) []int {
	out := make([]int, 0, length+poolSize)
	for len(out) < length {
		out = append(out, rng.Perm(poolSize)...)
	}
	return out[:length]
}

// triplesPerBatch is fixed so data growth is identical on both sides of
// a comparison: one new blogger with its three dimension values and
// seven posts (4 + 7×3 triples).
const triplesPerBatch = 25

// insertBatch renders write batch n of a phase as instance-vocabulary
// N-Triples. Names derive from (phase, n) alone, so every triple is new
// and the server must report added == triplesPerBatch.
func insertBatch(phase string, n int) []rdf.Triple {
	res := func(local string) rdf.Term { return rdf.NewIRI(datagen.NS + local) }
	u := res(fmt.Sprintf("w%s_user%d", phase, n))
	out := make([]rdf.Triple, 0, triplesPerBatch)
	out = append(out, rdf.NewTriple(u, rdf.Type, res("Blogger")))
	for d := 0; d < dims; d++ {
		v := datagen.DimValue(d, (n*7+d)%datagen.DimCardinality(d))
		out = append(out, rdf.NewTriple(u, res(datagen.DimensionProps[d]), v))
	}
	for p := 0; p < 7; p++ {
		post := res(fmt.Sprintf("w%s_post%d_%d", phase, n, p))
		out = append(out,
			rdf.NewTriple(u, res("wrotePost"), post),
			rdf.NewTriple(post, res("postedOn"), res(fmt.Sprintf("site%d", (n+p)%50))),
			rdf.NewTriple(post, res("hasWordCount"), rdf.NewInt(int64(50+(n*13+p*101)%1000))))
	}
	return out
}

// insertBody renders a batch as the POST /insert payload.
func insertBody(phase string, n int) []byte {
	return []byte(nt.FormatAll(insertBatch(phase, n)))
}
