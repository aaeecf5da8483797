// Command bench is the end-to-end and per-layer benchmark of rdfcubed.
// It generates seeded datasets and operation streams, builds and boots
// the real cmd/rdfcubed as a subprocess, drives it over loopback HTTP
// with two connections, checks every answer, and prints the metrics
// BENCHMARK.json names. See README.md in this directory.
//
//	go run -C bench . -workload olap_session -seed 7 -seconds 12 -trace 0
//	go run -C bench . -compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	workloadName := flag.String("workload", "all", "workload to run: all, or one of BENCHMARK.json's workloads")
	seed := flag.Int64("seed", 1, "seed of the dataset and of every operation stream")
	seconds := flag.Float64("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a half-length window plus the in-process layer ladder")
	out := flag.String("out", "", "result file runs are appended to (default out/result.json)")
	compare := flag.Bool("compare", false, "compare two result files given as arguments against the bounds in BENCHMARK.json")
	flag.Parse()
	if err := realMain(*workloadName, *seed, *seconds, *trace == 1, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(workloadName string, seed int64, seconds float64, trace bool, out string, compare bool, args []string) error {
	// `go run -C bench .` starts the program in the bench directory; the
	// repository it measures is the directory above.
	benchDir, err := os.Getwd()
	if err != nil {
		return err
	}
	repoRoot := filepath.Dir(benchDir)
	sp, err := loadSpec(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, sp, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	var todo []workload
	if workloadName == "all" {
		todo = workloads
	} else if w, ok := workloadByName(workloadName); ok {
		todo = []workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", workloadName)
	}

	e := &env{repoRoot: repoRoot, outDir: filepath.Join(benchDir, "out")}
	e.bin = filepath.Join(e.outDir, "bin", "rdfcubed")
	if err := os.MkdirAll(filepath.Dir(e.bin), 0o755); err != nil {
		return err
	}
	if err := buildServer(repoRoot, e.bin); err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(e.outDir, "result.json")
	}
	meta := machineFingerprint(repoRoot)

	var results []*runResult
	for _, w := range todo {
		r, err := newRun(e, w, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		err = r.execute(seconds, trace)
		// The datasets and data-dirs are inputs, not results.
		os.RemoveAll(r.dir)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		r.res.Meta, r.res.Why = meta, sp.why(w.name)
		results = append(results, r.res)
	}
	crossCheck(results)
	if err := appendResults(out, results); err != nil {
		return err
	}
	for _, res := range results {
		line, err := sp.report(os.Stdout, res)
		if err != nil {
			return err
		}
		fmt.Println(line)
	}
	return nil
}

// crossCheck compares direct_mmap with direct_heap op for op when one
// invocation ran both: same seed, same ops, so every op both answered
// must hash the same.
func crossCheck(results []*runResult) {
	byName := map[string]*runResult{}
	for _, res := range results {
		byName[res.Workload] = res
	}
	heap, mapped := byName["direct_heap"], byName["direct_mmap"]
	if heap == nil || mapped == nil {
		return
	}
	for id, h := range mapped.answers {
		if want, ok := heap.answers[id]; ok {
			mapped.Attempted++
			if h != want {
				mapped.Failed++
				mapped.Correct = false
				mapped.Failures = append(mapped.Failures, fmt.Sprintf("op %d: direct_mmap answer differs from direct_heap's", id))
			}
		}
	}
}

// resultFile is the on-disk form of -out: every run ever appended, so
// that -compare sees a spread when a side was run several times.
type resultFile struct {
	Runs []*runResult `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func appendResults(path string, results []*runResult) error {
	rf, err := readResults(path)
	if os.IsNotExist(err) {
		rf, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, results...)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
