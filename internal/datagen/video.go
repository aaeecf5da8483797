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

// VideoConfig parameterizes the Figure 3 (video/website) dataset
// generator, the workload of the DRILL-IN experiments: videos posted on
// websites, websites carrying a URL and one or more supported browsers.
type VideoConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Videos is the number of video facts.
	Videos int
	// Websites is the number of websites.
	Websites int
	// SitesPerVideo is the mean number of websites a video is posted on
	// (multi-valued classifier path).
	SitesPerVideo int
	// BrowsersPerSite is the mean number of supported browsers per
	// website (the drilled-in dimension's multi-valuedness).
	BrowsersPerSite int
}

// DefaultVideoConfig returns a small configuration.
func DefaultVideoConfig() VideoConfig {
	return VideoConfig{Seed: 1, Videos: 1000, Websites: 100, SitesPerVideo: 2, BrowsersPerSite: 2}
}

// browsers is the browser value domain.
var browsers = []string{"firefox", "chrome", "safari", "edge", "opera"}

// Validate checks configuration bounds.
func (c VideoConfig) Validate() error {
	if c.Videos <= 0 || c.Websites <= 0 {
		return fmt.Errorf("datagen: Videos and Websites must be positive")
	}
	if c.SitesPerVideo < 1 || c.BrowsersPerSite < 1 {
		return fmt.Errorf("datagen: per-entity means must be at least 1")
	}
	return nil
}

// Generate builds the video base graph.
func (c VideoConfig) Generate() (*store.Store, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	st := store.New()
	var ts []store.IDTriple
	add := func(s, p, o rdf.Term) { ts = append(ts, st.EncodeTriple(rdf.Triple{S: s, P: p, O: o})) }

	videoClass := res("VideoItem")
	postedOn := res("postedOn")
	hasUrl := res("hasUrl")
	supportsBrowser := res("supportsBrowser")
	viewNum := res("viewNum")

	for w := 0; w < c.Websites; w++ {
		site := res(fmt.Sprintf("website%d", w))
		add(site, hasUrl, res(fmt.Sprintf("URL%d", w)))
		nb := 1 + rng.Intn(2*c.BrowsersPerSite-1)
		if nb > len(browsers) {
			nb = len(browsers)
		}
		perm := rng.Perm(len(browsers))
		for i := 0; i < nb; i++ {
			add(site, supportsBrowser, res(browsers[perm[i]]))
		}
	}
	for v := 0; v < c.Videos; v++ {
		video := res(fmt.Sprintf("video%d", v))
		add(video, rdf.Type, videoClass)
		add(video, viewNum, rdf.NewInt(int64(rng.Intn(100000))))
		ns := 1 + rng.Intn(2*c.SitesPerVideo-1)
		if ns > c.Websites {
			ns = c.Websites
		}
		perm := rng.Perm(c.Websites)
		for i := 0; i < ns; i++ {
			add(video, postedOn, res(fmt.Sprintf("website%d", perm[i])))
		}
	}
	st.AddBatch(ts)
	return st, nil
}

// VideoSchema returns the analytical schema for the video scenario.
func VideoSchema() *ans.Schema {
	px := Prefixes()
	s := &ans.Schema{Name: "videos"}
	s.AddNode(res("Video"), sparql.MustParseDatalog("n(x) :- x rdf:type :VideoItem", px))
	s.AddNode(res("Website"), sparql.MustParseDatalog("n(w) :- x :postedOn w", px))
	s.AddNode(res("Value"), sparql.MustParseDatalog("n(v) :- x :viewNum v", px))
	s.AddEdge(res("postedOn"), res("Video"), res("Website"),
		sparql.MustParseDatalog("e(x, w) :- x rdf:type :VideoItem, x :postedOn w", px))
	s.AddEdge(res("hasUrl"), res("Website"), res("Value"),
		sparql.MustParseDatalog("e(w, u) :- w :hasUrl u", px))
	s.AddEdge(res("supportsBrowser"), res("Website"), res("Value"),
		sparql.MustParseDatalog("e(w, b) :- w :supportsBrowser b", px))
	s.AddEdge(res("viewNum"), res("Video"), res("Value"),
		sparql.MustParseDatalog("e(x, v) :- x rdf:type :VideoItem, x :viewNum v", px))
	return s
}

// VideoQuery builds the Example 6 AnQ over the video AnS instance: sum
// of view counts per website URL, with the supported browser left as an
// existential variable — the drill-in target.
func VideoQuery(aggName string) (*core.Query, error) {
	f, err := agg.ByName(aggName)
	if err != nil {
		return nil, err
	}
	px := Prefixes()
	c, err := sparql.ParseDatalog(
		"c(x, d2) :- x rdf:type :Video, x :postedOn d1, d1 :hasUrl d2, d1 :supportsBrowser d3", px)
	if err != nil {
		return nil, err
	}
	m, err := sparql.ParseDatalog(
		"m(x, v) :- x rdf:type :Video, x :viewNum v", px)
	if err != nil {
		return nil, err
	}
	return core.New(c, m, f)
}
