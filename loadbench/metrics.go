package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// counters is one scrape of GET /metrics: every sample value summed
// over its label sets, keyed by sample name (histograms contribute
// their _sum and _count samples).
type counters map[string]float64

func scrape(base string) (counters, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	c := counters{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		c[name] += v
	}
	return c, sc.Err()
}

// delta returns after[name] - before[name].
func delta(before, after counters, name string) float64 { return after[name] - before[name] }

// ratio returns the delta of num over the delta of den, or 0 when den
// did not move.
func ratio(before, after counters, num, den string) float64 {
	d := delta(before, after, den)
	if d == 0 {
		return 0
	}
	return delta(before, after, num) / d
}

// runtimeStats is the process-wide allocation, GC and CPU accounting
// at one instant.
type runtimeStats struct {
	allocBytes uint64
	gcs        uint32
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return runtimeStats{
		allocBytes: ms.TotalAlloc,
		gcs:        ms.NumGC,
		gcCPU:      samples[0].Value.Float64(),
		totalCPU:   samples[1].Value.Float64(),
	}
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// metricDef names one reported metric and its unit, as BENCHMARK.json
// lists it.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"sim_cycles_per_query", "cycles"},
	{"sim_energy_pj_per_query", "pJ"},
	{"peak_rss_mb", "MiB"},
}

var perLayerMetrics = []metricDef{
	{"server.serve_us", "us"},
	{"server.self_us", "us"},
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"server.wire_us", "us"},
	{"server.cached_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.failures", "count"},
	{"index.seed_us", "us"},
	{"index.lookup_us", "us"},
	{"index.candidates_per_query", "count"},
	{"index.skip_ratio", "ratio"},
	{"index.grow_ms", "ms"},
	{"pipeline.plan_us", "us"},
	{"pipeline.merge_us", "us"},
	{"pipeline.chunks_per_query", "count"},
	{"pipeline.checkouts_per_query", "count"},
	{"pipeline.checkout_wait_us", "us"},
	{"pipeline.race_us", "us"},
	{"pipeline.lane_fill_ratio", "ratio"},
	{"pipeline.packs_per_query", "count"},
	{"race.pack_us", "us"},
	{"race.ns_per_candidate", "ns"},
	{"race.alloc_kb_per_pack", "KiB"},
	{"tech.energy_us_per_race", "us"},
	{"race.pair_us.cycle", "us"},
	{"race.pair_us.event", "us"},
	{"race.pair_us.lanes", "us"},
	{"circuit.cycles_per_race", "cycles"},
	{"tech.pj_per_race", "pJ"},
	{"racelogic.insert_us", "us"},
	{"racelogic.remove_us", "us"},
	{"racelogic.checkpoints", "count"},
	{"racelogic.checkpoint_ms", "ms"},
	{"racelogic.open_base_s", "s"},
	{"racelogic.replay_ms_per_record", "ms"},
	{"racelogic.search_us", "us"},
	{"racelogic.batch_us", "us"},
	{"racelogic.engines_built", "count"},
	{"store.append_us", "us"},
	{"store.fsync_us", "us"},
	{"store.fsyncs_per_write", "ratio"},
	{"store.wal_bytes_per_user_byte", "ratio"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.gc_per_kop", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"obs.trace_overhead", "ratio"},
	{"workload.write_share", "ratio"},
	{"workload.journal_tail", "count"},
}
