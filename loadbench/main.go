// Command loadbench is the repository benchmark: it serves a seeded
// workload through the real internal/server handler on an in-process
// loopback listener, drives it with a closed loop of two clients, checks
// every reply, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as the last line of its output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// Usage, from the repository root:
//
//	bash loadbench/run.sh --workload mixed-durable --seed 1 --seconds 50 --trace 0
//
// The workloads, their reasons and their metrics are listed in
// BENCHMARK.json and in workloads.go.
//
// Seeds: 1 is the default.  9001 is held out: no tuning uses it, and a
// later change that claims a gain re-checks the claim on it.
//
// The host the figures were tuned on loses a varying share of each
// second to other tenants, so the timing figures are medians: ops_per_s
// and p50_ms over ten equal slices of the window, setup_s over
// setupReps set-ups.  p99_ms needs every sample and is taken over the
// whole window.  Dirty pages are flushed and the heap collected before
// each set-up and before the window, so neither pays for the work
// before it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets the service up; setup_s is
// their median.
const setupReps = 3

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: batch-lanes or mixed-durable")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 50, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for crash images, spans and scratch copies")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("-seconds must be positive and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(2)
	}
	r := &run{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, dir: *dir}
	var res *result
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadbench: %s seed %d: %v\n", w.name, *seed, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run is one invocation: a workload, a seed and a window length.
type run struct {
	w    *workload
	seed int64
	dur  time.Duration
	dir  string

	in      *inputs
	env     *env
	entries map[uint64]string // ID → sequence at the start of every window
	chk     *checker
	replies [][]byte // the sample's raw replies
}

// prepare generates the inputs, builds or reuses the crash image, and
// creates the scratch directory.  None of it is timed.
func (r *run) prepare() (cleanup func(), err error) {
	r.in = r.w.gen(r.seed)
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(r.dir, "work-")
	if err != nil {
		return nil, err
	}
	r.env = &env{in: r.in, work: work}
	if r.in.durable != nil {
		root := filepath.Join(r.dir, "images", fmt.Sprintf("%s-seed%d-n%d-t%d", r.w.name, r.seed, len(r.in.corpus), journalTail))
		if r.env.img, err = prepareImage(r.in, root); err != nil {
			_ = os.RemoveAll(work) // scratch space; the image error is the one to report
			return nil, fmt.Errorf("crash image: %w", err)
		}
		r.entries = r.env.img.entries
	}
	r.chk = newChecker(r.in, r.entries)
	if r.entries == nil {
		r.entries = r.chk.entries
	}
	// Scratch copies left behind by a failed removal are harmless: the
	// next run makes its own directory.
	return func() { _ = os.RemoveAll(work) }, nil
}

// sample checks the sample against the DP reference and keeps the raw
// replies for the direct JSON timings.
func (r *run) sample(s *service) (err error) {
	r.replies, err = checkSample(s, r.in, r.chk, r.entries)
	return err
}

// endToEnd is the untraced run: setupReps timed set-ups, the sample
// check, and one timed window on the last set-up.
func (r *run) endToEnd() (*result, error) {
	cleanup, err := r.prepare()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	var setups []float64
	var rounds []int
	var s *service
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		if s, d, err = r.env.setUp(nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		rounds = append(rounds, s.warmRounds)
	}
	fmt.Printf("set-ups: %.3f s, warm-up rounds %v\n", setups, rounds)
	win, before, after, _, err := r.window(s, r.dur, minSamples, nil)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	res := &result{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed, Metrics: map[string]metric{}}
	rates, p50s := win.sliced()
	fmt.Printf("slice ops/s: %.1f\nslice p50 ms: %.2f\n", rates, p50s)
	vals := map[string]float64{"setup_s": median(setups), "ops_per_s": median(rates), "p50_ms": median(p50s)}
	var ok bool
	if vals["p99_ms"], ok = win.percentile(0.99); !ok {
		return nil, fmt.Errorf("%d requests leave fewer than ten beyond p99", win.attempted)
	}
	if vals["sim_cycles_per_query"], vals["sim_energy_pj_per_query"], err = win.simPerQuery(); err != nil {
		return nil, err
	}
	if vals["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	r.report(win, props(r.in, win, before, after))
	return res.fill(endToEndMetrics, vals)
}

// traced is the per-layer run: an untraced window for the counters and
// the runtime figures, then a fresh set-up driven through the same
// sequence with span recording on, then the direct calls.
func (r *run) traced() (*result, error) {
	cleanup, err := r.prepare()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	half := r.dur / 2
	s, _, err := r.env.setUp(nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain, c0, c1, rt, err := r.window(s, half, 0, nil)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	if s, _, err = r.env.setUp(rec); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	traced, t0, t1, _, err := r.window(s, half, 0, rec)
	var checkpointMS float64
	if err == nil && r.in.durable != nil {
		checkpointMS, err = timeCheckpoints(s)
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	direct, err := directCalls(r.in, r.replies, r.env.img, r.env.work)
	if err != nil {
		return nil, fmt.Errorf("direct calls: %w", err)
	}
	spans := rec.spans()
	spanPath := filepath.Join(r.dir, "spans", fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed))
	if err := writeSpans(spanPath, spans); err != nil {
		return nil, err
	}

	// A layer the workload does not exercise reads 0.
	vals := map[string]float64{}
	for _, d := range perLayerMetrics {
		vals[d.name] = 0
	}
	p := props(r.in, plain, c0, c1)
	for _, m := range []map[string]float64{direct, spanLayers(spans, rec.ops()), p,
		counterLayers(c0, c1, t0, t1), windowLayers(plain, rt)} {
		for k, v := range m {
			vals[k] = v
		}
	}
	if firstSearch(r.in).op == opBatch {
		// The array form carries no trace: its database time comes from
		// the batch latency histogram over the traced window.
		vals["server.self_us"] = vals["server.serve_us"] - 1e6*ratio(t0, t1,
			"racelogic_search_batch_latency_seconds_sum", "racelogic_search_batch_latency_seconds_count")
	}
	vals["racelogic.checkpoint_ms"] = checkpointMS
	vals["obs.trace_overhead"] = traced.opsPerSecond() / plain.opsPerSecond()

	r.report(plain, p)
	fmt.Printf("traced window: %d requests, %.1f ops/s; spans in %s\n", traced.attempted, traced.opsPerSecond(), spanPath)
	var idle []string
	for _, d := range perLayerMetrics {
		if vals[d.name] == 0 {
			idle = append(idle, d.name)
		}
	}
	fmt.Printf("reading 0 (layer not exercised by %s, or nothing counted): %v\n", r.w.name, idle)
	res := &result{
		Correct:   plain.failed == 0 && traced.failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   map[string]metric{},
	}
	return res.fill(perLayerMetrics, vals)
}

// counterLayers derives layer figures from the /metrics scrapes around
// the untraced window (c0, c1) and the traced one (t0, t1).
func counterLayers(c0, c1, t0, t1 counters) map[string]float64 {
	meanUS := func(name string) float64 { return 1e6 * ratio(c0, c1, name+"_sum", name+"_count") }
	v := map[string]float64{
		"racelogic.batch_us":       meanUS("racelogic_search_batch_latency_seconds"),
		"store.append_us":          meanUS("racelogic_wal_append_seconds"),
		"store.fsync_us":           meanUS("racelogic_wal_fsync_seconds"),
		"store.fsyncs_per_write":   ratio(c0, c1, "racelogic_wal_group_syncs_total", "racelogic_http_mutations_total"),
		"racelogic.checkpoints":    delta(c0, c1, "racelogic_snapshot_saves_total"),
		"pipeline.packs_per_query": ratio(c0, c1, "racelogic_lane_fill_ratio_count", "racelogic_searches_total"),
		"server.failures": delta(c0, c1, "racelogic_http_failures_total") +
			delta(t0, t1, "racelogic_http_failures_total"),
	}
	if sk := delta(c0, c1, "racelogic_search_entries_skipped_total"); sk > 0 {
		v["index.skip_ratio"] = sk / (sk + delta(c0, c1, "racelogic_search_entries_scanned_total"))
	}
	return v
}

// windowLayers derives layer figures from the untraced window's replies
// and the runtime's accounting around it.
func windowLayers(w *window, rt [2]runtimeStats) map[string]float64 {
	ops := float64(len(w.lat))
	v := map[string]float64{
		"runtime.alloc_kb_per_op": float64(rt[1].allocBytes-rt[0].allocBytes) / 1024 / ops,
		"runtime.gc_per_kop":      float64(rt[1].gcs-rt[0].gcs) * 1000 / ops,
		"runtime.gc_cpu_share":    (rt[1].gcCPU - rt[0].gcCPU) / (rt[1].totalCPU - rt[0].totalCPU),
	}
	if w.sum.cached > 0 {
		v["server.cached_us"] = float64(w.sum.cachedUS) / float64(w.sum.cached)
	}
	var sim outcome
	for _, o := range w.sim {
		sim.add(o)
	}
	if sim.scanned > 0 {
		v["circuit.cycles_per_race"] = float64(sim.cycles) / float64(sim.scanned)
		v["tech.pj_per_race"] = sim.energyJ * 1e12 / float64(sim.scanned)
	}
	return v
}

// window checks the sample, settles the disk and the heap, then runs
// one timed window between two scrapes of /metrics and two readings of
// the runtime's accounting.
func (r *run) window(s *service, dur time.Duration, atLeast int64, rec *recorder) (*window, counters, counters, [2]runtimeStats, error) {
	var rt [2]runtimeStats
	if err := r.sample(s); err != nil {
		return nil, nil, nil, rt, err
	}
	quiesce()
	before, err := scrape(s.base)
	if err != nil {
		return nil, nil, nil, rt, err
	}
	rt[0] = readRuntime()
	w := runWindow(s, r.in, r.chk, dur, atLeast, rec)
	rt[1] = readRuntime()
	after, err := scrape(s.base)
	if err != nil {
		return nil, nil, nil, rt, err
	}
	if w.firstErr != nil {
		fmt.Printf("first failed request: %v\n", w.firstErr)
	}
	return w, before, after, rt, nil
}

// timeCheckpoints times Checkpoint on the live durable database, each
// after one insert so there is something to fold.
func timeCheckpoints(s *service) (float64, error) {
	var total time.Duration
	const reps = 3
	for i := 0; i < reps; i++ {
		if _, err := s.db.Insert(strings.Repeat("ACGT", queryLen/4)); err != nil {
			return 0, err
		}
		began := time.Now()
		if err := s.db.Checkpoint(); err != nil {
			return 0, err
		}
		total += time.Since(began)
	}
	return float64(total.Microseconds()) / 1e3 / reps, nil
}

// props measures the input properties each workload was built around,
// over one untraced window.
func props(in *inputs, w *window, before, after counters) map[string]float64 {
	p := map[string]float64{
		"server.cache_hit_ratio":     float64(w.sum.cached) / math.Max(1, float64(w.sum.queries)),
		"pipeline.lane_fill_ratio":   ratio(before, after, "racelogic_lane_fill_ratio_sum", "racelogic_lane_fill_ratio_count"),
		"index.candidates_per_query": ratio(before, after, "racelogic_seed_candidates_total", "racelogic_searches_total"),
		"workload.write_share":       float64(w.sum.mutations) / float64(w.attempted),
		"workload.journal_tail":      0,
		"racelogic.engines_built":    delta(before, after, "racelogic_engines_built_total"),
	}
	if in.durable != nil {
		p["workload.journal_tail"] = journalTail
	}
	return p
}

// report prints what a run measured beyond its result line: sample
// counts and the workload's properties.
func (r *run) report(w *window, p map[string]float64) {
	fmt.Printf("%s seed %d: %d requests, %d failed, %.2f s window, %.1f ops/s\n",
		r.w.name, r.seed, w.attempted, w.failed, w.elapsed.Seconds(), w.opsPerSecond())
	n := len(w.lat) + w.failed
	fmt.Printf("latency samples %d, %d beyond p99:", n, n-int(math.Ceil(0.99*float64(n))))
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		if v, ok := w.percentile(q); ok {
			fmt.Printf(" p%g=%.3fms", q*100, v)
		}
	}
	fmt.Println()
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("properties (%s):", r.w.property)
	for _, k := range keys {
		fmt.Printf(" %s=%.4g", k, p[k])
	}
	fmt.Println()
}

// fill copies the named metrics from vals, failing on any that was not
// measured.
func (res *result) fill(defs []metricDef, vals map[string]float64) (*result, error) {
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
