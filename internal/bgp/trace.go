package bgp

// EXPLAIN ANALYZE support: per-step execution statistics, collected
// only when the evaluation's context carries an active obs span. The
// counters are atomic because the pipeline fans seed chunks out across
// workers that all execute every remaining step; each worker flushes
// its per-step local counts once per step, so the per-row hot path
// never touches an atomic.
//
// Step "busy" time is the summed worker time spent inside the step —
// CPU-ish time, not wall time (the pipeline runs steps for different
// chunks concurrently). The step spans say so via the busy="sum" attr.

import (
	"fmt"
	"strings"
	"sync/atomic"

	"rdfcube/internal/obs"
	"rdfcube/internal/store"
)

// stepStat aggregates one plan step's execution counts across workers.
type stepStat struct {
	rows    atomic.Int64 // rows emitted by the step
	scanned atomic.Int64 // triples visited by nested probes
	seeks   atomic.Int64 // cursor galloping seeks (merge/leapfrog)
	nexts   atomic.Int64 // cursor single-step advances
	busyNs  atomic.Int64 // summed worker nanoseconds inside the step
	batches atomic.Int64 // batches emitted
}

// addCursorCounts flushes one cursor group's access-path counters.
func (ss *stepStat) addCursorCounts(cs []store.Cursor) {
	var seeks, nexts int64
	for i := range cs {
		s, n := cs[i].Counts()
		seeks += s
		nexts += n
	}
	ss.seeks.Add(seeks)
	ss.nexts.Add(nexts)
}

// flushCost folds the per-step execution stats into the query's cost
// accumulator. Rows scanned counts every triple position visited:
// nested-probe scans, cursor single-step advances, and cursor seeks
// (a galloping seek lands on a triple too — and merge/leapfrog steps
// move almost exclusively by seeking). Rows produced and bytes are
// accounted by EvalCtx on the final projected result, not here.
func flushCost(cost *obs.Cost, stats []stepStat) {
	var scanned, seeks, nexts, batches, busy int64
	for i := range stats {
		scanned += stats[i].scanned.Load()
		seeks += stats[i].seeks.Load()
		nexts += stats[i].nexts.Load()
		batches += stats[i].batches.Load()
		busy += stats[i].busyNs.Load()
	}
	cost.AddRowsScanned(scanned + nexts + seeks)
	cost.AddSeeks(seeks)
	cost.AddNexts(nexts)
	cost.AddBatches(batches)
	cost.AddCPUNs(busy)
}

// describeStep renders a step's pattern list for the span attrs, e.g.
// "p0,p2,p3".
func describeStep(stp planStep) string {
	parts := make([]string, len(stp.pats))
	for i, pi := range stp.pats {
		parts[i] = fmt.Sprintf("p%d", pi)
	}
	return strings.Join(parts, ",")
}

// emitStepSpans attaches one child span per executed plan step to the
// evaluation span, carrying the collected statistics. Called once, at
// the end of evalBody (including early exits — the spans then show
// where execution stopped).
func emitStepSpans(span *obs.Span, steps []planStep, vars []string, stats []stepStat) {
	if span == nil || stats == nil {
		return
	}
	for i := range steps {
		stp := steps[i]
		ss := &stats[i]
		c := span.NewChild(stp.kind.String())
		c.SetDurationNs(ss.busyNs.Load())
		c.AddRows(ss.rows.Load())
		c.AddSeeks(ss.seeks.Load())
		c.Attr("pats", describeStep(stp))
		switch stp.kind {
		case opNested:
			if n := ss.scanned.Load(); n > 0 {
				c.AttrInt("scanned", n)
			}
		case opStream:
			c.Attr("join_var", vars[stp.joinVar])
			if stp.tail >= 0 {
				c.Attr("tail_var", vars[stp.tail])
			}
			if stp.pso {
				c.Attr("perm", "pso")
			}
			c.AttrInt("nexts", ss.nexts.Load())
		default:
			c.AttrInt("cursors", int64(len(stp.pats)))
			c.Attr("join_var", vars[stp.joinVar])
			c.AttrInt("nexts", ss.nexts.Load())
		}
		if nb := ss.batches.Load(); nb > 0 {
			c.AttrInt("batches", nb)
			if rows := ss.rows.Load(); rows > 0 {
				c.AttrInt("rows_per_batch", rows/nb)
			}
		}
		c.Attr("busy", "sum") // summed worker time, not wall time
	}
}
