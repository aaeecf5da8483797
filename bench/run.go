package main

// One run of one workload: generate inputs, boot rdfcubed, drive it over
// loopback HTTP, check every answer, and reduce the samples to metrics.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rdfcube/internal/server"
)

// env is where a run finds the program and may write.
type env struct {
	repoRoot string
	outDir   string
	bin      string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run's record in result.json.
type runResult struct {
	Workload    string            `json:"workload"`
	Why         string            `json:"why"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"window_seconds"`
	Trace       bool              `json:"trace"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Samples     map[string]int    `json:"samples"`
	ServerFlags []string          `json:"server_flags"`
	Strategies  map[string]int    `json:"strategies"`
	Failures    []string          `json:"failures,omitempty"`
	Meta        *machineMeta      `json:"meta,omitempty"`

	// answers maps op id to answer hash, to compare direct_mmap with
	// direct_heap op for op when both run in one invocation.
	answers map[int]uint64
}

// set records a metric; one without samples has no value and is left
// out, which report turns into an error if BENCHMARK.json names it.
func (res *runResult) set(name string, v float64, unit string, samples int) {
	res.Samples[name] = samples
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
}

// run is the state of a run in progress.
type run struct {
	env     *env
	w       workload
	seed    int64
	dir     string
	ds      *dataset
	pool    []*op
	bases   []*op // the four base cubes, the warm-up pass
	streams [][]int
	client  *http.Client
	res     *runResult

	mu         sync.Mutex
	seen       map[int]answer
	verifyTime time.Duration
	verified   int
}

// The write probe that follows the window of a read-only workload: a
// closed loop of insert batches, so that insert latency is measured on
// every server configuration without disturbing the reads. It ends after
// tailBatches batches or tailSeconds, whichever comes first: the first
// on the servers without views (an insert is a WAL append), the second
// where four views are maintained per insert. 200 batches stay below the
// compaction threshold, so no compaction lands in some probes and not
// in others.
const (
	tailBatches = 200
	tailSeconds = 3
)

func newRun(e *env, w workload, seed int64) (*run, error) {
	r := &run{
		env: e, w: w, seed: seed,
		dir:    filepath.Join(e.outDir, w.name),
		client: newClient(),
		seen:   map[int]answer{},
		res: &runResult{
			Workload: w.name, Seed: seed,
			Metrics: map[string]metric{}, Samples: map[string]int{},
			Strategies: map[string]int{}, answers: map[int]uint64{},
		},
	}
	if err := os.RemoveAll(r.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if r.ds, err = buildDataset(seed, w.bloggers, r.dir); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	if r.pool, err = genPool(rng, w.poolSize, w.direct, w.bases); err != nil {
		return nil, err
	}
	for i, b := range w.bases {
		o := &op{id: -1 - i, class: classBase, base: b}
		if o.body, err = json.Marshal(o.request(w.direct)); err != nil {
			return nil, err
		}
		r.bases = append(r.bases, o)
	}
	for c := 0; c < w.readers; c++ {
		// Longer than any window can consume.
		r.streams = append(r.streams, genStream(rng, len(r.pool), 1<<17))
	}
	return r, nil
}

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Failed++
	if len(r.res.Failures) < 10 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) attempt() {
	r.mu.Lock()
	r.res.Attempted++
	r.mu.Unlock()
}

// bootTimes decomposes one cold boot cycle.
type bootTimes struct{ imp, boot, warm time.Duration }

func (b bootTimes) total() time.Duration { return b.imp + b.boot + b.warm }

// bootCycle takes the generated snapshot to a warmed, serving process.
// A durable workload first imports the snapshot into a fresh data-dir
// (boot, checkpoint, kill -9) and then boots again from the data-dir
// alone, which is the boot an operator pays on every restart; the
// warm-up pass issues the four base cubes.
func (r *run) bootCycle(i int) (*proc, string, bootTimes, error) {
	var bt bootTimes
	flags := append([]string{"-snapshot", r.ds.snapPath}, r.w.flags...)
	dataDir := ""
	if r.w.dataDir {
		dataDir = filepath.Join(r.dir, fmt.Sprintf("data%d", i))
		t0 := time.Now()
		p, err := startServer(r.env.bin, append([]string{"-data-dir", dataDir}, flags...))
		if err != nil {
			return nil, "", bt, fmt.Errorf("import boot: %w", err)
		}
		p.kill()
		bt.imp = time.Since(t0)
		flags = append([]string{"-data-dir", dataDir}, r.w.flags...)
	}
	r.res.ServerFlags = flags
	t0 := time.Now()
	p, err := startServer(r.env.bin, flags)
	if err != nil {
		return nil, "", bt, err
	}
	bt.boot = time.Since(t0)
	t0 = time.Now()
	for _, o := range r.bases {
		if _, _, _, err := r.query(p.base, o.body); err != nil {
			p.kill()
			return nil, "", bt, fmt.Errorf("warm-up: %w", err)
		}
	}
	bt.warm = time.Since(t0)
	return p, dataDir, bt, nil
}

// query posts one request and returns the parsed answer, its latency
// (send to last body byte) and the body size.
func (r *run) query(base string, body []byte) (answer, time.Duration, int, error) {
	t0 := time.Now()
	resp, err := r.client.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return answer{}, lat, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, lat, len(data), fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	tv := time.Now()
	a, ok := parseAnswer(data)
	r.mu.Lock()
	r.verifyTime += time.Since(tv)
	r.verified++
	r.mu.Unlock()
	if !ok {
		return a, lat, len(data), fmt.Errorf("not a query response: %.200s", data)
	}
	return a, lat, len(data), nil
}

// check compares an answer with the first one seen for the same op: on
// a read-only workload it must be byte-identical; beside a writer the
// cube may only grow.
func (r *run) check(o *op, a answer) {
	tv := time.Now()
	r.mu.Lock()
	prev, ok := r.seen[o.id]
	r.seen[o.id] = a
	r.res.Strategies[a.strategy]++
	r.verifyTime += time.Since(tv)
	r.mu.Unlock()
	switch {
	case !ok:
	case r.w.writeRate > 0:
		if a.cells < prev.cells {
			r.fail("op %d (%s): cube shrank from %d to %d cells beside inserts", o.id, classNames[o.class], prev.cells, a.cells)
		}
	case a.hash != prev.hash:
		r.fail("op %d (%s): answer changed between two requests on a read-only workload", o.id, classNames[o.class])
	}
}

type querySample struct {
	class int
	lat   time.Duration
	bytes int
}

// reader is one closed-loop client: the next request goes out when the
// previous answer has been read and checked.
func (r *run) reader(base string, stream []int, deadline time.Time) []querySample {
	var out []querySample
	for _, idx := range stream {
		if !time.Now().Before(deadline) {
			break
		}
		o := r.pool[idx]
		r.attempt()
		a, lat, n, err := r.query(base, o.body)
		if err != nil {
			r.fail("op %d (%s): %v", o.id, classNames[o.class], err)
			continue
		}
		r.check(o, a)
		out = append(out, querySample{o.class, lat, n})
	}
	return out
}

type insertSample struct{ lat, late time.Duration }

// writer is the insert client. With a rate it is an open loop: batch n
// is due at start + n/rate whatever happened to the batches before it,
// and its latency is timed from the due time. With rate 0 it is a closed
// loop: each batch is due when the previous one was acknowledged. It
// returns the samples and the number of acknowledged batches. triples0 is the instance size before the first
// batch: with a single writer every acknowledgement must report exactly
// triplesPerBatch more.
func (r *run) writer(base, phase string, rate int, dur time.Duration, maxBatches, triples0 int) ([]insertSample, int) {
	var out []insertSample
	acked := 0
	start := time.Now()
	for n := 0; n < maxBatches; n++ {
		due := time.Now()
		if rate > 0 {
			due = start.Add(time.Duration(n) * time.Second / time.Duration(rate))
		}
		if due.Sub(start) >= dur {
			break
		}
		body := insertBody(phase, n)
		time.Sleep(time.Until(due))
		sent := time.Now()
		r.attempt()
		resp, err := r.client.Post(base+"/insert", "application/n-triples", bytes.NewReader(body))
		if err != nil {
			r.fail("insert %d: %v", n, err)
			continue
		}
		var ir server.InsertResponse
		err = json.NewDecoder(resp.Body).Decode(&ir)
		resp.Body.Close()
		done := time.Now()
		switch {
		case resp.StatusCode != http.StatusOK:
			r.fail("insert %d: status %d", n, resp.StatusCode)
			continue
		case err != nil:
			r.fail("insert %d: %v", n, err)
			continue
		}
		acked++
		if ir.Added != triplesPerBatch {
			r.fail("insert %d: added %d triples, want %d", n, ir.Added, triplesPerBatch)
		} else if want := triples0 + acked*triplesPerBatch; ir.Triples != want {
			r.fail("insert %d: instance holds %d triples after the ack, want %d", n, ir.Triples, want)
		}
		// The first write after views were registered upgrades them to
		// their maintained form, a one-time cost of several inserts' worth:
		// that batch is checked like the rest but is warm-up, not a sample.
		if n > 0 {
			out = append(out, insertSample{lat: done.Sub(due), late: sent.Sub(due)})
		}
	}
	return out, acked
}

// execute runs the workload once and fills r.res. With trace set, the
// set-up is measured once instead of three times, the window is half as
// long, and the in-process layer ladder runs for the other half.
func (r *run) execute(seconds float64, trace bool) error {
	res := r.res
	res.Seconds, res.Trace = seconds, trace
	cycles := 3
	if trace {
		cycles = 1
		res.Seconds = seconds / 2
	}
	var (
		p       *proc
		dataDir string
		setups  []float64
		last    bootTimes
	)
	for i := 0; i < cycles; i++ {
		if p != nil {
			p.kill()
		}
		var err error
		if p, dataDir, last, err = r.bootCycle(i); err != nil {
			return err
		}
		setups = append(setups, last.total().Seconds())
	}
	defer func() { p.stop() }()
	res.set("setup_s", median(setups), "s", len(setups))
	res.set("server.import_boot_ms", float64(last.imp)/1e6, "ms", 1)
	res.set("server.boot_ms", float64(last.boot)/1e6, "ms", 1)
	res.set("server.warmup_ms", float64(last.warm)/1e6, "ms", 1)

	before, err := scrape(r.client, p.base)
	if err != nil {
		return err
	}
	triples0 := before.stats.Instance.Triples

	// The measured window.
	window := time.Duration(res.Seconds * float64(time.Second))
	var (
		wg      sync.WaitGroup
		queries = make([][]querySample, r.w.readers)
		inserts []insertSample
		acked   int
	)
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < r.w.readers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queries[c] = r.reader(p.base, r.streams[c], deadline)
		}()
	}
	if r.w.writeRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inserts, acked = r.writer(p.base, "win", r.w.writeRate, window, math.MaxInt, triples0)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rss, err := p.rssPeakMB()
	if err != nil {
		return err
	}
	after, err := scrape(r.client, p.base)
	if err != nil {
		return err
	}
	diskBytes := r.ds.snapBytes
	if dataDir != "" {
		if diskBytes, err = dirBytes(dataDir); err != nil {
			return err
		}
	}

	// Checks that need the server as the window left it, and on a
	// read-only workload the write probe. afterWrites is the scrape the
	// write-path counters are read from: taken before the durability check
	// restarts the server, or after the probe.
	afterWrites := after
	if r.w.writeRate > 0 {
		if p, err = r.checkDurability(p, triples0+acked*triplesPerBatch); err != nil {
			return err
		}
	} else {
		r.checkOracle(p.base)
		inserts, acked = r.writer(p.base, "tail", 0, tailSeconds*time.Second, tailBatches, triples0)
		if afterWrites, err = scrape(r.client, p.base); err != nil {
			return err
		}
	}

	// End-to-end metrics.
	var (
		every     []float64
		byClass   [numClasses][]float64
		respBytes int
	)
	for _, q := range queries {
		for _, s := range q {
			l := float64(s.lat) / float64(time.Millisecond)
			every = append(every, l)
			byClass[s.class] = append(byClass[s.class], l)
			respBytes += s.bytes
		}
	}
	ok := len(every)
	if r.w.writeRate > 0 {
		ok += acked
	}
	res.set("throughput_ops_s", float64(ok)/elapsed.Seconds(), "1/s", ok)
	res.set("query_p50_ms", percentile(every, 50), "ms", len(every))
	res.set("query_p95_ms", percentile(every, 95), "ms", len(every))
	for class := classSlice; class < numClasses; class++ {
		res.set(classNames[class]+"_p50_ms", percentile(byClass[class], 50), "ms", len(byClass[class]))
	}
	var ilat, ilate []float64
	for _, s := range inserts {
		ilat = append(ilat, float64(s.lat)/float64(time.Millisecond))
		ilate = append(ilate, float64(s.late)/float64(time.Millisecond))
	}
	res.set("insert_p50_ms", percentile(ilat, 50), "ms", len(ilat))
	res.set("server.insert_p95_ms", percentile(ilat, 95), "ms", len(ilat))
	res.set("rss_peak_mb", rss, "MB", 1)
	res.set("disk_bytes_per_triple", float64(diskBytes)/float64(after.stats.Instance.Triples), "B", 1)

	// Layer metrics that come from the load generator and from the
	// server's own counters, as differences across the window (query
	// path) or across window plus write probe (write path).
	res.set("loadgen.late_ms_p95", percentile(ilate, 95), "ms", len(ilate))
	res.set("loadgen.verify_us_per_op", ratio(float64(r.verifyTime)/1e3, float64(r.verified)), "us", r.verified)
	res.set("server.response_bytes_per_op", ratio(float64(respBytes), float64(len(every))), "B", len(every))
	r.counterMetrics(before, after, afterWrites)

	for id, a := range r.seen {
		res.answers[id] = a.hash
	}
	if trace {
		if err := r.ladder(seconds / 2); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	res.Correct = res.Failed == 0
	return nil
}

// counterMetrics reduces three scrapes to the count-type layer metrics.
func (r *run) counterMetrics(before, after, afterWrites *counters) {
	res := r.res
	d := func(series string) float64 { return delta(before, after, series) }
	dw := func(series string) float64 { return delta(before, afterWrites, series) }
	const answers = `rdfcube_viewreg_answers_total{strategy="%s"}`
	var answered, rewritten float64
	for _, s := range []string{"cached", "dice-rewrite", "drillout-rewrite", "drillin-rewrite", "direct"} {
		n := d(fmt.Sprintf(answers, s))
		answered += n
		if s != "cached" && s != "direct" {
			rewritten += n
		}
	}
	queries := d("rdfcube_workload_queries_total")
	writes := dw(`rdfcube_http_requests_total{route="/insert"}`)
	var errs float64
	for route, ep := range afterWrites.stats.Endpoints {
		errs += float64(ep.Errors - before.stats.Endpoints[route].Errors)
	}
	res.set("server.query_p99_ms", float64(after.stats.Endpoints["/query"].P99Ns)/1e6, "ms", int(after.stats.Endpoints["/query"].Count))
	res.set("server.shed_total", float64(afterWrites.stats.Shed-before.stats.Shed), "count", 1)
	res.set("server.errors_total", errs, "count", 1)
	res.set("viewreg.hit_ratio", ratio(d(fmt.Sprintf(answers, "cached")), answered), "ratio", int(answered))
	res.set("viewreg.rewrite_ratio", ratio(rewritten, answered), "ratio", int(answered))
	res.set("viewreg.maintained_per_write", ratio(dw("rdfcube_viewreg_maintained_total"), writes), "count", int(writes))
	res.set("viewreg.invalidations_total", dw("rdfcube_viewreg_invalidations_total"), "count", 1)
	res.set("viewreg.evictions_total", dw("rdfcube_viewreg_evictions_total"), "count", 1)
	res.set("viewreg.bytes", float64(after.stats.Registry.Bytes), "B", 1)
	res.set("bgp.rows_scanned_per_row_produced", ratio(d("rdfcube_workload_rows_scanned_total"), d("rdfcube_workload_rows_produced_total")), "ratio", int(queries))
	res.set("bgp.seeks_per_op", ratio(d("rdfcube_workload_seeks_total"), queries), "count", int(queries))
	res.set("bgp.batches_per_op", ratio(d("rdfcube_workload_batches_total"), queries), "count", int(queries))
	res.set("store.delta_triples", float64(afterWrites.stats.Instance.DeltaTriples), "count", 1)
	res.set("store.compactions_total", float64(afterWrites.stats.BackgroundCompactions-before.stats.BackgroundCompactions), "count", 1)
	res.set("persist.checkpoints_total", dw("rdfcube_checkpoints_total"), "count", 1)
	res.set("persist.wal_fsyncs_per_write", ratio(dw("rdfcube_wal_sync_seconds_count"), writes), "count", int(writes))
	res.set("persist.wal_bytes_per_triple", ratio(dw("rdfcube_wal_appended_bytes_total"), writes*triplesPerBatch), "B", int(writes))
	res.set("persist.snapshot_bytes_per_triple", float64(r.ds.snapBytes)/float64(r.ds.inst.Len()), "B", 1)
}

// oracleAnswer evaluates op directly, in this process, on the bench's
// own heap copy of the dataset.
func oracleAnswer(h http.Handler, o *op) (answer, error) {
	body, err := json.Marshal(o.request(true))
	if err != nil {
		return answer{}, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	a, ok := parseAnswer(rec.Body.Bytes())
	if rec.Code != http.StatusOK || !ok {
		return a, fmt.Errorf("oracle: status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	return a, nil
}

// oracleOps is how many ops a run checks against the in-process oracle;
// fewer on the large dataset, where each costs a direct evaluation.
func (r *run) oracleOps() int {
	if r.w.bloggers >= largeBloggers {
		return 4
	}
	return 12
}

// checkOracle compares a seeded subset of the pool with direct
// evaluation on a store that never went through a snapshot, an mmap or
// a rewrite: whatever the server answered from, the cube must be the
// same.
func (r *run) checkOracle(base string) {
	oracle := server.New(r.ds.inst, server.Config{}).Handler()
	rng := rand.New(rand.NewSource(r.seed ^ 0x0fac1e))
	for _, idx := range rng.Perm(len(r.pool))[:r.oracleOps()] {
		o := r.pool[idx]
		r.attempt()
		want, err := oracleAnswer(oracle, o)
		if err != nil {
			r.fail("op %d: %v", o.id, err)
			continue
		}
		r.mu.Lock()
		got, ok := r.seen[o.id]
		r.mu.Unlock()
		if !ok {
			if got, _, _, err = r.query(base, o.body); err != nil {
				r.fail("op %d (%s): %v", o.id, classNames[o.class], err)
				continue
			}
		}
		if got.hash != want.hash {
			r.fail("op %d (%s): answered by %s, differs from direct evaluation by the oracle", o.id, classNames[o.class], got.strategy)
		}
	}
}

// checkDurability ends a write workload: every maintained answer must
// equal direct evaluation on the same server; then the server is killed
// with SIGKILL and restarted from its data-dir, and must hold exactly
// the acknowledged triples and give the same answers. kill -9 leaves the
// OS page cache intact, so this checks WAL replay and checkpoint
// recovery, not whether fsync reached the device.
func (r *run) checkDurability(p *proc, wantTriples int) (*proc, error) {
	rng := rand.New(rand.NewSource(r.seed ^ 0xd07ab1e))
	ops := append([]*op(nil), r.bases...)
	for _, idx := range rng.Perm(len(r.pool))[:8] {
		ops = append(ops, r.pool[idx])
	}
	want := make([]answer, len(ops))
	for i, o := range ops {
		r.attempt()
		body, err := json.Marshal(o.request(true))
		if err != nil {
			return p, err
		}
		direct, _, _, err := r.query(p.base, body)
		if err != nil {
			r.fail("op %d direct: %v", o.id, err)
			continue
		}
		got, _, _, err := r.query(p.base, o.body)
		if err != nil {
			r.fail("op %d: %v", o.id, err)
			continue
		}
		if got.hash != direct.hash {
			r.fail("op %d (%s): maintained answer (%s) differs from direct evaluation after the writes", o.id, classNames[o.class], got.strategy)
		}
		want[i] = direct
	}
	p.kill()
	p2, err := startServer(r.env.bin, r.res.ServerFlags)
	if err != nil {
		return p, fmt.Errorf("restart after kill -9: %w", err)
	}
	r.attempt()
	c, err := scrape(r.client, p2.base)
	if err != nil {
		return p2, err
	}
	if got := c.stats.Instance.Triples; got != wantTriples {
		r.fail("after kill -9 and restart the instance holds %d triples, want %d (initial + acknowledged)", got, wantTriples)
	}
	for i, o := range ops {
		r.attempt()
		got, _, _, err := r.query(p2.base, o.body)
		if err != nil {
			r.fail("op %d after restart: %v", o.id, err)
		} else if got.hash != want[i].hash {
			r.fail("op %d (%s): answer after restart (%s) differs from the one before the kill", o.id, classNames[o.class], got.strategy)
		}
	}
	return p2, nil
}

// dirBytes sums the regular files under dir; files the server renames
// or removes mid-walk are skipped.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			var fi fs.FileInfo
			if fi, err = d.Info(); err == nil {
				total += fi.Size()
			}
		}
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	})
	return total, err
}
