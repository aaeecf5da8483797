package main

import (
	"fmt"
	"os"
	"path/filepath"

	"rdfcube/internal/datagen"
	"rdfcube/internal/rdfs"
	"rdfcube/internal/store"
)

// Dataset sizes in bloggers. `small` (0.40 M instance triples, a 5.7 MiB
// snapshot) fits the mapped store's 8 MiB decoded-block cache; `large`
// (0.80 M triples, 11.3 MiB) does not. `tiny` (0.16 M triples) is for
// the write workload: the server re-aggregates every maintained view on
// every insert, which costs time in proportion to the view, and on
// `small` the writer then held the write lock 40 % of the time — the
// reader's median latency sat on the edge between queries that met an
// insert and queries that did not, and moved 27 % from run to run.
const (
	tinyBloggers  = 8000
	smallBloggers = 20000
	largeBloggers = 40000
)

// dataset is one generated AnS instance: the bench's own frozen heap
// copy (oracle and ladder) and the v3 snapshot handed to rdfcubed.
type dataset struct {
	inst      *store.Store
	snapPath  string
	snapBytes int64
}

// buildDataset runs the paper's pipeline on the blogger generator —
// generate, saturate, materialize the analytical schema, freeze — and
// writes the instance as a v3 snapshot under dir.
func buildDataset(seed int64, bloggers int, dir string) (*dataset, error) {
	cfg := datagen.DefaultBloggerConfig()
	cfg.Seed = seed
	cfg.Bloggers = bloggers
	cfg.Dimensions = dims
	base, err := cfg.Generate()
	if err != nil {
		return nil, err
	}
	rdfs.Saturate(base)
	base.Freeze()
	schema, err := datagen.BloggerSchema(dims)
	if err != nil {
		return nil, err
	}
	inst, err := schema.Materialize(base)
	if err != nil {
		return nil, err
	}
	inst.Freeze()
	ds := &dataset{inst: inst, snapPath: filepath.Join(dir, "instance.snap")}
	if err := writeSnapshot(inst, ds.snapPath); err != nil {
		return nil, err
	}
	fi, err := os.Stat(ds.snapPath)
	if err != nil {
		return nil, err
	}
	ds.snapBytes = fi.Size()
	return ds, nil
}

func writeSnapshot(st *store.Store, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := st.WriteFrozenSnapshotV3(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// openHeap loads a private heap copy of the dataset, for ladder rungs
// that mutate their store.
func (ds *dataset) openHeap() (*store.Store, error) {
	f, err := os.Open(ds.snapPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return store.OpenFrozenSnapshot(f)
}
