package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles applies BENCHMARK.json's bounds to two result files: A is
// the base, B the candidate. One row per workload × end-to-end metric
// with both medians, their ratio and its base; the verdict is `worse`
// when B's median is worse than A's by more than the bound, `unresolved`
// when A's own run-to-run spread (distance between its quartiles, as a
// share of its median) is wider than the bound, `ok` otherwise. It
// returns an error, hence a non-zero exit, when any row is worse.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-22s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "A (base)", "B", "B/A", "spread", "bound", "verdict")
	worse := 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, ma, mb, spread := judge(va, vb, m)
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-13s %-22s %12.4f %12.4f %8.3f %6.1f%% %6.1f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, ma, mb, mb/ma, 100*spread, 100*m.Bound, verdict, len(va), len(vb))
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}

// values collects one end-to-end metric over the untraced runs of a
// workload.
func values(rf *resultFile, workload, name string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// judge compares candidate values vb with base values va under m's
// direction and bound.
func judge(va, vb []float64, m specMetric) (verdict string, ma, mb, spread float64) {
	ma, mb = median(va), median(vb)
	if len(va) >= 2 {
		q1, _, q3 := quartiles(va)
		spread = (q3 - q1) / math.Abs(ma)
	}
	change := (mb - ma) / math.Abs(ma) // positive = grew
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse", ma, mb, spread
	case spread > m.Bound:
		return "unresolved", ma, mb, spread
	}
	return "ok", ma, mb, spread
}
