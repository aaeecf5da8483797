package bgp

// Cost-accounting differential: the per-query obs.Cost flushed by every
// way of running a query (default plan, nested-loop reference plan, the
// pipeline over a map-indexed store) must agree on the plan-invariant
// numbers — rows produced and bytes materialized — for each shape of the
// differential matrix, and the plan-dependent counters (scans, seeks)
// must be populated wherever evaluation touches the store at all.

import (
	"fmt"
	"math/rand"
	"testing"

	"rdfcube/internal/obs"
	"rdfcube/internal/sparql"
	"rdfcube/internal/store"
)

// evalCost evaluates q under opts with a fresh Cost attached and
// returns the result plus the flushed snapshot.
func evalCost(t *testing.T, st *store.Store, q *sparql.Query, opts Options) (*Result, obs.CostSnapshot) {
	t.Helper()
	ctx, cost := obs.WithCost(t.Context())
	res, err := EvalCtx(ctx, st, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, cost.Snapshot()
}

// TestCostDifferentialShapes: over the 8-shape matrix, frozen-only and
// frozen+delta, the default plan, the nested-loop reference and the
// pipeline over a delta-only twin of the same triples report the same
// rows-produced and bytes-materialized, matching the actual result, and
// each leg reads the store and reports nonzero rows-scanned.
func TestCostDifferentialShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for _, split := range []bool{false, true} {
		ts := diffTriples(rng, 300)
		st := frozenGraph(ts, split)
		deltaOnly := deltaGraph(ts)
		for _, shape := range diffShapes {
			q := sparql.MustParseDatalog(shape.query, px())
			label := fmt.Sprintf("split=%v %s", split, shape.name)

			batchRes, batch := evalCost(t, st, q, Options{Distinct: true})
			deltaRes, deltac := evalCost(t, deltaOnly, q, Options{Distinct: true})
			nestRes, nest := evalCost(t, st, q, Options{Distinct: true, ForceNestedLoop: true})

			for _, e := range []struct {
				engine string
				res    *Result
				snap   obs.CostSnapshot
			}{{"batch", batchRes, batch}, {"delta only", deltaRes, deltac}, {"nested", nestRes, nest}} {
				if e.snap.RowsProduced != int64(e.res.Len()) {
					t.Errorf("%s/%s: RowsProduced = %d, result has %d rows",
						label, e.engine, e.snap.RowsProduced, e.res.Len())
				}
				wantBytes := int64(e.res.Len()) * int64(len(e.res.Vars)) * 8
				if e.snap.Bytes != wantBytes {
					t.Errorf("%s/%s: Bytes = %d, want %d",
						label, e.engine, e.snap.Bytes, wantBytes)
				}
				if e.snap.RowsScanned == 0 {
					t.Errorf("%s/%s: RowsScanned = 0 on a %d-triple store",
						label, e.engine, 300)
				}
			}
			if batch.RowsProduced != deltac.RowsProduced || deltac.RowsProduced != nest.RowsProduced {
				t.Errorf("%s: RowsProduced disagree: batch=%d delta=%d nested=%d",
					label, batch.RowsProduced, deltac.RowsProduced, nest.RowsProduced)
			}
			if batch.Bytes != deltac.Bytes || deltac.Bytes != nest.Bytes {
				t.Errorf("%s: Bytes disagree: batch=%d delta=%d nested=%d",
					label, batch.Bytes, deltac.Bytes, nest.Bytes)
			}
		}
	}
}

// TestCostBagMatchesSet: bag semantics produce at least as many rows as
// set semantics, and the accounting follows the actual row counts.
func TestCostBagMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	st := diffGraph(rng, 200, false)
	q := sparql.MustParseDatalog("q(x, w) :- x :a0 :v0, x :a2 w", px())
	setRes, setCost := evalCost(t, st, q, Options{Distinct: true})
	bagRes, bagCost := evalCost(t, st, q, Options{})
	if setCost.RowsProduced != int64(setRes.Len()) || bagCost.RowsProduced != int64(bagRes.Len()) {
		t.Fatalf("accounting mismatch: set %d/%d bag %d/%d",
			setCost.RowsProduced, setRes.Len(), bagCost.RowsProduced, bagRes.Len())
	}
	if bagCost.RowsProduced < setCost.RowsProduced {
		t.Fatalf("bag produced %d < set %d", bagCost.RowsProduced, setCost.RowsProduced)
	}
}

// TestCostNilContext: without a Cost in the context, evaluation takes
// the no-stats fast path (nothing to observe, nothing to flush).
func TestCostNilContext(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	st := diffGraph(rng, 150, false)
	q := sparql.MustParseDatalog("q(x) :- x :a0 :v0, x :a1 :v1", px())
	res, err := EvalCtx(t.Context(), st, q, Options{Distinct: true})
	if err != nil {
		t.Fatal(err)
	}
	// Differential anchor: same query with a Cost attached agrees with
	// the plain run.
	res2, snap := evalCost(t, st, q, Options{Distinct: true})
	if res.Len() != res2.Len() {
		t.Fatalf("cost-attached run changed the result: %d vs %d rows", res2.Len(), res.Len())
	}
	if snap.RowsProduced != int64(res.Len()) {
		t.Fatalf("RowsProduced = %d, want %d", snap.RowsProduced, res.Len())
	}
}
