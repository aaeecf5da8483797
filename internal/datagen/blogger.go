// Package datagen produces deterministic synthetic RDF datasets modeled
// on the paper's two running scenarios: the blogger analytical schema of
// Figure 1 and the video/website schema of Figure 3.
//
// The generators make the two structural features that motivate the
// paper's algorithms first-class parameters:
//
//   - multi-valuedness: the probability that a fact carries a second
//     value along a dimension (MultiValueProb), which is what makes the
//     naive drill-out incorrect; and
//   - heterogeneity: the probability that a fact lacks a property
//     entirely (MissingProb), the hallmark of RDF data that analytical
//     schemas are designed to absorb.
//
// All randomness flows from a caller-supplied seed, so every experiment
// is reproducible.
package datagen

import (
	"fmt"
	"math/rand"

	"rdfcube/internal/agg"
	"rdfcube/internal/ans"
	"rdfcube/internal/core"
	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// NS is the namespace of all generated resources.
const NS = "http://rdfcube.example.org/"

// Prefixes returns the parser prefix table for generated data (the empty
// prefix maps to NS).
func Prefixes() sparql.Prefixes {
	p := sparql.DefaultPrefixes()
	p[""] = NS
	return p
}

func res(local string) rdf.Term { return rdf.NewIRI(NS + local) }

// DimensionProps lists the blogger dimension properties in the order the
// n-dimensional classifier uses them. Up to 6 dimensions are supported.
var DimensionProps = []string{
	"hasAge", "livesIn", "hasGender", "memberSince", "usesLanguage", "hasOccupation",
}

// dimCardinality gives each dimension's value-domain size.
var dimCardinality = []int{50, 30, 3, 20, 12, 25}

// BloggerConfig parameterizes the blogger dataset generator.
type BloggerConfig struct {
	// Seed drives all randomness; equal configs generate equal graphs.
	Seed int64
	// Bloggers is the number of blogger facts.
	Bloggers int
	// PostsPerBlogger is the mean number of posts per blogger (the
	// actual count is uniform in [1, 2*mean-1], at least 1).
	PostsPerBlogger int
	// Sites is the number of distinct sites posts can appear on.
	Sites int
	// Dimensions is how many of DimensionProps each blogger gets values
	// for (2..6). The n-dimensional classifier of the benchmarks uses
	// the same count.
	Dimensions int
	// MultiValueProb is the probability that a blogger has a second,
	// distinct value along each dimension.
	MultiValueProb float64
	// MissingProb is the probability that a blogger lacks a dimension
	// value entirely (heterogeneity). Such bloggers do not appear in
	// classifiers mentioning that dimension.
	MissingProb float64
	// SubPropertyShare is the fraction of livesIn facts asserted through
	// the base-level :dwellsIn property, which is declared an
	// rdfs:subPropertyOf :livesIn; reaching them requires RDFS
	// saturation before materializing the analytical schema.
	SubPropertyShare float64
}

// DefaultBloggerConfig returns a small, fully-featured configuration.
func DefaultBloggerConfig() BloggerConfig {
	return BloggerConfig{
		Seed:             1,
		Bloggers:         1000,
		PostsPerBlogger:  4,
		Sites:            50,
		Dimensions:       2,
		MultiValueProb:   0.1,
		MissingProb:      0.05,
		SubPropertyShare: 0.2,
	}
}

// Validate checks configuration bounds.
func (c BloggerConfig) Validate() error {
	if c.Bloggers <= 0 {
		return fmt.Errorf("datagen: Bloggers must be positive")
	}
	if c.Dimensions < 1 || c.Dimensions > len(DimensionProps) {
		return fmt.Errorf("datagen: Dimensions must be in [1,%d]", len(DimensionProps))
	}
	if c.PostsPerBlogger < 1 {
		return fmt.Errorf("datagen: PostsPerBlogger must be at least 1")
	}
	if c.Sites < 1 {
		return fmt.Errorf("datagen: Sites must be at least 1")
	}
	for _, p := range []float64{c.MultiValueProb, c.MissingProb, c.SubPropertyShare} {
		if p < 0 || p > 1 {
			return fmt.Errorf("datagen: probabilities must be in [0,1]")
		}
	}
	return nil
}

// dimValue returns the v-th value of dimension dim as a term. Age and
// memberSince are integer literals; the rest are IRIs.
func dimValue(dim, v int) rdf.Term {
	switch DimensionProps[dim] {
	case "hasAge":
		return rdf.NewInt(int64(18 + v))
	case "memberSince":
		return rdf.NewInt(int64(2000 + v))
	default:
		return res(fmt.Sprintf("%s_val%d", DimensionProps[dim], v))
	}
}

// DimValue exposes dimension value construction to benchmarks that build
// Σ restrictions; dim indexes DimensionProps and v the value domain.
func DimValue(dim, v int) rdf.Term { return dimValue(dim, v) }

// DimCardinality reports the value-domain size of dimension dim.
func DimCardinality(dim int) int { return dimCardinality[dim] }

// Generate builds the base RDF graph. The graph contains, per blogger:
// an rdf:type :BlogAuthor triple (the analysis class :Blogger is defined
// over it), dimension values, posts with :postedOn and :hasWordCount,
// and — for a SubPropertyShare fraction — :dwellsIn instead of :livesIn
// plus the schema triple making :dwellsIn a sub-property of :livesIn.
func (c BloggerConfig) Generate() (*store.Store, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	st := store.New()
	var ts []store.IDTriple
	add := func(s, p, o rdf.Term) { ts = append(ts, st.EncodeTriple(rdf.Triple{S: s, P: p, O: o})) }

	blogAuthor := res("BlogAuthor")
	wrotePost := res("wrotePost")
	postedOn := res("postedOn")
	hasWordCount := res("hasWordCount")
	dwellsIn := res("dwellsIn")
	livesIn := res("livesIn")

	// Schema triple enabling the RDFS-saturation path.
	add(dwellsIn, rdf.SubPropertyOf, livesIn)

	postID := 0
	for b := 0; b < c.Bloggers; b++ {
		u := res(fmt.Sprintf("user%d", b))
		add(u, rdf.Type, blogAuthor)
		for dim := 0; dim < c.Dimensions; dim++ {
			if rng.Float64() < c.MissingProb {
				continue // heterogeneous: no value for this dimension
			}
			prop := res(DimensionProps[dim])
			card := dimCardinality[dim]
			v := rng.Intn(card)
			emit := func(val rdf.Term) {
				if DimensionProps[dim] == "livesIn" && rng.Float64() < c.SubPropertyShare {
					add(u, dwellsIn, val)
				} else {
					add(u, prop, val)
				}
			}
			emit(dimValue(dim, v))
			if rng.Float64() < c.MultiValueProb {
				w := (v + 1 + rng.Intn(card-1)) % card // distinct second value
				emit(dimValue(dim, w))
			}
		}
		nPosts := 1 + rng.Intn(2*c.PostsPerBlogger-1)
		for p := 0; p < nPosts; p++ {
			post := res(fmt.Sprintf("post%d", postID))
			postID++
			add(u, wrotePost, post)
			add(post, postedOn, res(fmt.Sprintf("site%d", rng.Intn(c.Sites))))
			add(post, hasWordCount, rdf.NewInt(int64(50+rng.Intn(1000))))
		}
	}
	st.AddBatch(ts)
	return st, nil
}

// BloggerSchema returns the analytical schema of Figure 1, restricted to
// the classes and properties the generator populates. Node and edge
// queries are BGPs over the (saturated) base graph.
func BloggerSchema(dimensions int) (*ans.Schema, error) {
	if dimensions < 1 || dimensions > len(DimensionProps) {
		return nil, fmt.Errorf("datagen: dimensions must be in [1,%d]", len(DimensionProps))
	}
	px := Prefixes()
	s := &ans.Schema{Name: "bloggers"}
	s.AddNode(res("Blogger"), sparql.MustParseDatalog("n(x) :- x rdf:type :BlogAuthor", px))
	s.AddNode(res("BlogPost"), sparql.MustParseDatalog("n(p) :- u :wrotePost p", px))
	s.AddNode(res("Site"), sparql.MustParseDatalog("n(s) :- p :postedOn s", px))
	s.AddNode(res("Value"), sparql.MustParseDatalog("n(w) :- p :hasWordCount w", px))
	s.AddEdge(res("wrotePost"), res("Blogger"), res("BlogPost"),
		sparql.MustParseDatalog("e(u, p) :- u rdf:type :BlogAuthor, u :wrotePost p", px))
	s.AddEdge(res("postedOn"), res("BlogPost"), res("Site"),
		sparql.MustParseDatalog("e(p, s) :- p :postedOn s", px))
	s.AddEdge(res("hasWordCount"), res("BlogPost"), res("Value"),
		sparql.MustParseDatalog("e(p, w) :- p :hasWordCount w", px))
	for dim := 0; dim < dimensions; dim++ {
		prop := DimensionProps[dim]
		s.AddEdge(res(prop), res("Blogger"), res("Value"),
			sparql.MustParseDatalog(
				fmt.Sprintf("e(u, v) :- u rdf:type :BlogAuthor, u :%s v", prop), px))
	}
	return s, nil
}

// BloggerQuery builds the n-dimensional benchmark AnQ over the blogger
// AnS instance: classify bloggers by their first `dimensions` dimension
// properties; the measure depends on aggName:
//
//	count          -> sites the blogger posts on (Example 1)
//	sum, avg, ...  -> word counts of the blogger's posts (Example 4)
func BloggerQuery(dimensions int, aggName string) (*core.Query, error) {
	if dimensions < 1 || dimensions > len(DimensionProps) {
		return nil, fmt.Errorf("datagen: dimensions must be in [1,%d]", len(DimensionProps))
	}
	f, err := agg.ByName(aggName)
	if err != nil {
		return nil, err
	}
	px := Prefixes()
	head := "x"
	body := "x rdf:type :Blogger"
	for dim := 0; dim < dimensions; dim++ {
		head += fmt.Sprintf(", d%d", dim)
		body += fmt.Sprintf(", x :%s d%d", DimensionProps[dim], dim)
	}
	c, err := sparql.ParseDatalog(fmt.Sprintf("c(%s) :- %s", head, body), px)
	if err != nil {
		return nil, err
	}
	var m *sparql.Query
	if aggName == "count" || aggName == "countdistinct" {
		m, err = sparql.ParseDatalog(
			"m(x, vsite) :- x rdf:type :Blogger, x :wrotePost p, p :postedOn vsite", px)
	} else {
		m, err = sparql.ParseDatalog(
			"m(x, vwords) :- x rdf:type :Blogger, x :wrotePost p, p :hasWordCount vwords", px)
	}
	if err != nil {
		return nil, err
	}
	return core.New(c, m, f)
}
