package bgp

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rdfcube/internal/rdf"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// crossGraph builds a store where "q(x, y, z, w) :- x :p y, z :q w" is a
// pure cross product: n rows per pattern, n*n result rows. Big enough to
// keep the evaluator busy for much longer than any cancellation latency.
func crossGraph(n int) *store.Store {
	st := store.New()
	for i := 0; i < n; i++ {
		st.Add(rdf.NewTriple(iri(fmt.Sprintf("a%d", i)), iri("p"), iri(fmt.Sprintf("b%d", i))))
		st.Add(rdf.NewTriple(iri(fmt.Sprintf("c%d", i)), iri("q"), iri(fmt.Sprintf("d%d", i))))
	}
	return st
}

func crossQuery() *sparql.Query {
	return sparql.MustParseDatalog("q(x, y, z, w) :- x :p y, z :q w", px())
}

func TestEvalCtxPreCancelled(t *testing.T) {
	onBothStores(t, crossGraph(2000), func(t *testing.T, st *store.Store) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		_, err := EvalSetCtx(ctx, st, crossQuery())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("cancelled eval took %v; cooperative checks not firing", el)
		}
	})
}

func TestEvalCtxDeadline(t *testing.T) {
	onBothStores(t, crossGraph(2000), func(t *testing.T, st *store.Store) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := EvalSetCtx(ctx, st, crossQuery())
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("deadline eval took %v; cooperative checks not firing", el)
		}
	})
}

// A background context must not change results: ctx plumbing is free when
// unused.
func TestEvalCtxBackgroundMatchesEval(t *testing.T) {
	q := crossQuery()
	onBothStores(t, crossGraph(40), func(t *testing.T, st *store.Store) {
		plain, err := EvalSet(st, q)
		if err != nil {
			t.Fatal(err)
		}
		ctxed, err := EvalSetCtx(context.Background(), st, q)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Len() != 40*40 || ctxed.Len() != plain.Len() {
			t.Fatalf("rows: plain %d ctx %d, want %d", plain.Len(), ctxed.Len(), 40*40)
		}
	})
}
