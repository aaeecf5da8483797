// Command datagen writes a synthetic RDF dataset (the blogger scenario
// of Figure 1 or the video scenario of Figure 3) to an N-Triples file.
//
// Usage:
//
//	datagen -kind blogger -bloggers 10000 -out blogger.nt
//	datagen -kind video -videos 5000 -out video.nt
package main

import (
	"flag"
	"fmt"
	"os"

	"rdfcube"
	"rdfcube/internal/datagen"
	"rdfcube/internal/store"
)

func main() {
	kind := flag.String("kind", "blogger", "dataset kind: blogger or video")
	out := flag.String("out", "", "output file (default stdout)")
	seed := flag.Int64("seed", 1, "random seed")
	bloggers := flag.Int("bloggers", 1000, "blogger count (kind=blogger)")
	dims := flag.Int("dims", 2, "dimension properties per blogger (kind=blogger)")
	multiValue := flag.Float64("multivalue", 0.1, "multi-valued dimension probability")
	missing := flag.Float64("missing", 0.05, "missing dimension probability")
	videos := flag.Int("videos", 1000, "video count (kind=video)")
	websites := flag.Int("websites", 100, "website count (kind=video)")
	flag.Parse()

	var st *store.Store
	var err error
	switch *kind {
	case "blogger":
		cfg := datagen.DefaultBloggerConfig()
		cfg.Seed = *seed
		cfg.Bloggers = *bloggers
		cfg.Dimensions = *dims
		cfg.MultiValueProb = *multiValue
		cfg.MissingProb = *missing
		st, err = cfg.Generate()
	case "video":
		cfg := datagen.DefaultVideoConfig()
		cfg.Seed = *seed
		cfg.Videos = *videos
		cfg.Websites = *websites
		st, err = cfg.Generate()
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown kind %q\n", *kind)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := rdfcube.WriteNTriples(st, w); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "datagen: wrote %d triples\n", st.Len())
}
