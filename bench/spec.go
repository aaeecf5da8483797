package main

// BENCHMARK.json is the single definition of what the benchmark reports:
// the bench reads its metric lists and bounds from it instead of
// repeating them.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// why returns the recorded reason a workload exists.
func (sp *spec) why(workload string) string {
	for _, w := range sp.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// report prints one run's metrics by name and unit, and returns the
// result line the driver reads: with tracing off every end-to-end
// metric, with tracing on every per-layer metric.
func (sp *spec) report(w io.Writer, res *runResult) (string, error) {
	list := sp.EndToEnd
	if res.Trace {
		list = sp.PerLayer
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  window=%gs  trace=%v  attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	metrics := map[string]metric{}
	for _, m := range list {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s has no value (%d samples)", res.Workload, m.Name, res.Samples[m.Name])
		}
		if got.Unit != m.Unit {
			return "", fmt.Errorf("%s: metric %s is measured in %s, BENCHMARK.json says %s", res.Workload, m.Name, got.Unit, m.Unit)
		}
		metrics[m.Name] = got
		fmt.Fprintf(w, "   %-36s %14.4f %-6s n=%d\n", m.Name, got.Value, got.Unit, res.Samples[m.Name])
	}
	for _, s := range slices.Sorted(maps.Keys(res.Strategies)) {
		fmt.Fprintf(w, "   answered %-27s %14d\n", s, res.Strategies[s])
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line), err
}

// machineMeta is what a result must carry to be compared with another:
// absolute times are only comparable on the same fingerprint.
type machineMeta struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func machineFingerprint(repoRoot string) *machineMeta {
	m := &machineMeta{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // the driver's checkout is not a git repository
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				m.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = string(bytes.TrimSpace(data))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = repoRoot
	// Never look for a repository above the checkout.
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(repoRoot))
	if out, err := cmd.Output(); err == nil {
		m.Commit = string(bytes.TrimSpace(out))
	}
	return m
}
