package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"racelogic"
	"racelogic/internal/obs"
)

// scrapeMetrics fetches GET /metrics and returns the body, failing the
// test on any transport or status problem.
func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("GET /metrics: Content-Type %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue returns the sample value of the first series whose
// "name{labels}" rendering starts with prefix, or fails.
func metricValue(t *testing.T, body, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no series with prefix %q in scrape", prefix)
	return 0
}

// TestMetricsEndpoint asserts the scrape is valid Prometheus text
// format and carries the catalogue's key families from both registries.
func TestMetricsEndpoint(t *testing.T) {
	ts, db, _ := newTestServer(t, racelogic.WithSeedIndex(4))
	if _, err := db.Search("ACGTACGT"); err != nil {
		t.Fatal(err)
	}
	body := scrapeMetrics(t, ts.URL)
	if err := obs.ValidatePrometheusText(body); err != nil {
		t.Fatalf("scrape is not valid Prometheus text: %v\n%s", err, body)
	}
	for _, want := range []string{
		"racelogic_search_latency_seconds_bucket{backend=\"cycle\",le=\"",
		"racelogic_search_cycles_sum{backend=\"cycle\"}",
		"racelogic_search_energy_joules_count{backend=\"cycle\"}",
		"racelogic_searches_total{backend=\"cycle\"}",
		"racelogic_lane_fill_ratio_count{backend=\"cycle\"}",
		"racelogic_seed_lookups_total",
		"racelogic_shard_entries{shard=\"0\"}",
		"racelogic_build_info{",
		"racelogic_http_requests_total",
		"racelogic_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
	if !strings.Contains(body, "go_version=") || !strings.Contains(body, "backend=\"cycle\"") {
		t.Error("build info labels missing from scrape")
	}

	resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d, want 405", resp.StatusCode)
	}
}

// TestMetricsLanesBackend asserts a lanes-backed database exports the
// lane-fill-ratio histogram and relabels the shared backend-labeled
// families, and that searches actually feed the fill observer.
func TestMetricsLanesBackend(t *testing.T) {
	ts, db, _ := newTestServer(t, racelogic.WithBackend(racelogic.BackendLanes))
	if _, err := db.Search("ACGTACGT"); err != nil {
		t.Fatal(err)
	}
	body := scrapeMetrics(t, ts.URL)
	if err := obs.ValidatePrometheusText(body); err != nil {
		t.Fatalf("scrape is not valid Prometheus text: %v\n%s", err, body)
	}
	for _, want := range []string{
		"racelogic_lane_fill_ratio_bucket{backend=\"lanes\",le=\"",
		"racelogic_lane_fill_ratio_sum{backend=\"lanes\"}",
		"racelogic_search_latency_seconds_bucket{backend=\"lanes\",le=\"",
		"racelogic_search_cycles_sum{backend=\"lanes\"}",
		"racelogic_searches_total{backend=\"lanes\"}",
		"backend=\"lanes\"",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}
	// Every raced pack observes one fill sample; the seed corpus has
	// several length buckets, so at least one partial pack was recorded.
	if v := metricValue(t, body, "racelogic_lane_fill_ratio_count{backend=\"lanes\"}"); v < 1 {
		t.Errorf("racelogic_lane_fill_ratio_count = %v, want >= 1", v)
	}
}

// TestMetricsCountersAdvance drives a search, an insert, a remove, and
// a compaction through HTTP against a durable database, then takes a
// checkpoint, and asserts the corresponding counters move.
func TestMetricsCountersAdvance(t *testing.T) {
	ts, db, _ := newTestServer(t)
	if err := db.Persist(t.TempDir(), racelogic.WithSnapshotInterval(0), racelogic.WithSnapshotEvery(0)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	before := scrapeMetrics(t, ts.URL)

	if _, sr := postSearch(t, ts.URL, `{"query":"ACGTACGT"}`); sr == nil {
		t.Fatal("search failed")
	}
	resp, err := http.Post(ts.URL+"/entries", "application/json",
		bytes.NewBufferString(`{"entries":["ACGTAAAA"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var mr MutationResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/entries/%d", ts.URL, mr.IDs[0]), nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp, err = http.Post(ts.URL+"/compact", "application/json", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	after := scrapeMetrics(t, ts.URL)
	if err := obs.ValidatePrometheusText(after); err != nil {
		t.Fatalf("post-mutation scrape invalid: %v", err)
	}
	for _, c := range []struct {
		prefix string
		min    float64
	}{
		{"racelogic_searches_total", 1},
		{"racelogic_search_latency_seconds_count", 1},
		{"racelogic_search_entries_scanned_total", 1},
		{"racelogic_http_mutations_total", 2},
		{"racelogic_compactions_total", 1},
		{"racelogic_checkpoint_seconds_count", 1},
	} {
		b, a := metricValue(t, before, c.prefix), metricValue(t, after, c.prefix)
		if a < b+c.min {
			t.Errorf("%s: %v -> %v, want advance by at least %v", c.prefix, b, a, c.min)
		}
	}
	// The compaction reclaimed the removed entry: the live gauge is back
	// to the seed corpus and tombstones are gone.
	if v := metricValue(t, after, "racelogic_tombstones"); v != 0 {
		t.Errorf("racelogic_tombstones = %v after compact, want 0", v)
	}
}

// postTraced runs one ?trace=1 search and returns the decoded response.
func postTraced(t *testing.T, url, body string) *SearchResponse {
	t.Helper()
	resp, err := http.Post(url+"/search?trace=1", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced search: status %d, want 200", resp.StatusCode)
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return &sr
}

// TestSearchTrace asserts ?trace=1 returns the per-shard breakdown of
// a raced search, that its deterministic dimensions agree with the
// report aggregates, and that traced requests bypass the cache in both
// directions.
func TestSearchTrace(t *testing.T) {
	ts, _, _ := newTestServer(t, racelogic.WithShards(2), racelogic.WithSeedIndex(4))
	body := `{"query":"ACGTACGT"}`

	// The query is new to the database's outcome memo, so the traced
	// search races it.
	sr := postTraced(t, ts.URL, body)
	if sr.Cached {
		t.Error("traced search must race, not hit the cache")
	}
	if sr.Trace == nil {
		t.Fatal("?trace=1 returned no trace")
	}
	var names []string
	for _, sp := range sr.Trace.Spans {
		names = append(names, sp.Name)
	}
	for _, want := range []string{"seed", "plan", "race", "merge"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("trace spans %v are missing %q", names, want)
		}
	}
	if len(sr.Trace.Shards) == 0 {
		t.Fatal("trace has no shard breakdown")
	}
	scanned, skipped, cycles, chunks := 0, 0, 0, 0
	for i, sh := range sr.Trace.Shards {
		if i > 0 && sh.Shard <= sr.Trace.Shards[i-1].Shard {
			t.Errorf("shards out of order: %d after %d", sh.Shard, sr.Trace.Shards[i-1].Shard)
		}
		scanned += sh.Scanned
		skipped += sh.Skipped
		cycles += sh.Cycles
		chunks += sh.Chunks
	}
	if scanned != sr.Scanned || skipped != sr.Skipped || cycles != sr.TotalCycles {
		t.Errorf("shard sums (scanned %d, skipped %d, cycles %d) disagree with report (%d, %d, %d)",
			scanned, skipped, cycles, sr.Scanned, sr.Skipped, sr.TotalCycles)
	}
	if chunks == 0 {
		t.Error("traced search of a new query raced no chunk")
	}

	// The traced response did not land in the cache: the next untraced
	// request misses, and primes the cache.
	if _, plain := postSearch(t, ts.URL, body); plain.Cached || plain.Trace != nil {
		t.Errorf("untraced search after a traced one: cached=%v trace=%v, want a miss with no trace", plain.Cached, plain.Trace)
	}
	// A traced request does not read the primed entry, nor evict or
	// overwrite it with a traced body: the next untraced request hits it.
	if again := postTraced(t, ts.URL, body); again.Cached || again.Trace == nil {
		t.Errorf("traced search after priming: cached=%v trace=%v, want a search with a trace", again.Cached, again.Trace != nil)
	}
	if _, hit := postSearch(t, ts.URL, body); !hit.Cached || hit.Trace != nil {
		t.Errorf("post-trace search: cached=%v trace=%v, want cache hit with no trace", hit.Cached, hit.Trace)
	}
}

// zeroDurations blanks every wall-clock field of a trace, leaving only
// the dimensions that must be identical across reruns.
func zeroDurations(tr *obs.TraceReport) *obs.TraceReport {
	out := *tr
	out.DurationUS = 0
	out.Spans = append([]obs.Span(nil), tr.Spans...)
	for i := range out.Spans {
		out.Spans[i].DurationUS = 0
	}
	out.Shards = append([]obs.ShardTrace(nil), tr.Shards...)
	for i := range out.Shards {
		out.Shards[i].CheckoutWaitUS = 0
		out.Shards[i].RaceUS = 0
	}
	return &out
}

// TestTraceStableAcrossReruns pins the acceptance criterion: the same
// query against the same immutable corpus yields a byte-identical trace
// modulo the duration fields at equal outcome-memo state — a cold race
// on two identically warmed servers, and a memo-served rerun on one.
// Workers is pinned to 1 so engine checkout counts cannot vary with
// goroutine scheduling.
func TestTraceStableAcrossReruns(t *testing.T) {
	body := `{"query":"ACGTACGT"}`
	// A full scan of another query of the same length warms every engine
	// shape the traced runs use without memoizing the traced query.
	warmServer := func() string {
		ts, _, _ := newTestServer(t,
			racelogic.WithShards(2), racelogic.WithSeedIndex(4), racelogic.WithWorkers(1))
		if resp, _ := postSearch(t, ts.URL, `{"query":"TTGCATGC","full_scan":true}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up search: status %d", resp.StatusCode)
		}
		return ts.URL
	}
	same := func(what string, a, b *SearchResponse) {
		t.Helper()
		aj, err := json.Marshal(zeroDurations(a.Trace))
		if err != nil {
			t.Fatal(err)
		}
		bj, err := json.Marshal(zeroDurations(b.Trace))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(aj, bj) {
			t.Errorf("%s: trace not stable across reruns:\n%s\n%s", what, aj, bj)
		}
	}

	first, second := warmServer(), warmServer()
	a, b := postTraced(t, first, body), postTraced(t, second, body)
	chunks := 0
	for _, sh := range a.Trace.Shards {
		chunks += sh.Chunks
	}
	if chunks == 0 {
		t.Fatal("first traced search raced no chunk")
	}
	same("cold race", a, b)
	same("memo-served rerun", postTraced(t, first, body), postTraced(t, first, body))
}

// TestMemoObservability: a repeated traced query is served from the
// database's outcome memo, and the trace, /metrics and /stats say so —
// each shard's memoized count equals its scanned count, nothing is
// raced, and the counter and gauges account for every outcome.
func TestMemoObservability(t *testing.T) {
	ts, _, _ := newTestServer(t,
		racelogic.WithShards(2), racelogic.WithSeedIndex(4), racelogic.WithWorkers(1))
	body := `{"query":"ACGTACGT"}`
	before := scrapeMetrics(t, ts.URL)
	first := postTraced(t, ts.URL, body)
	second := postTraced(t, ts.URL, body)
	if first.Scanned == 0 {
		t.Fatal("the query scanned nothing; the test corpus does not exercise the memo")
	}
	memo := 0
	for _, sh := range first.Trace.Shards {
		memo += sh.Memoized
	}
	if memo != 0 {
		t.Errorf("first search: %d entries memo-served, want 0", memo)
	}
	for _, sh := range second.Trace.Shards {
		if sh.Memoized != sh.Scanned || sh.Chunks != 0 || sh.EngineCheckouts != 0 {
			t.Errorf("repeat, shard %d: memoized %d of %d scanned, %d chunks, %d checkouts; want all memoized, nothing raced",
				sh.Shard, sh.Memoized, sh.Scanned, sh.Chunks, sh.EngineCheckouts)
		}
	}
	first.Trace, second.Trace = nil, nil
	first.ElapsedUS, second.ElapsedUS = 0, 0
	first.EnginesBuilt, second.EnginesBuilt = 0, 0
	if a, b := fmt.Sprintf("%+v", *first), fmt.Sprintf("%+v", *second); a != b {
		t.Errorf("memo-served response differs from the raced one:\n%s\n%s", a, b)
	}

	after := scrapeMetrics(t, ts.URL)
	if d := metricValue(t, after, "racelogic_search_entries_memoized_total") -
		metricValue(t, before, "racelogic_search_entries_memoized_total"); int(d) != first.Scanned {
		t.Errorf("racelogic_search_entries_memoized_total advanced by %v, want %d", d, first.Scanned)
	}
	if v := metricValue(t, after, "racelogic_memo_queries"); v != 1 {
		t.Errorf("racelogic_memo_queries = %v, want 1", v)
	}
	if v := metricValue(t, after, "racelogic_memo_outcomes"); int(v) != first.Scanned {
		t.Errorf("racelogic_memo_outcomes = %v, want %d", v, first.Scanned)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.MemoQueries != 1 || st.MemoOutcomes != first.Scanned {
		t.Errorf("/stats memo_queries %d, memo_outcomes %d; want 1, %d", st.MemoQueries, st.MemoOutcomes, first.Scanned)
	}
}

// TestStatsConsistentUnderMutation is the torn-read regression test:
// every /stats reply must be one consistent database cut.  Each insert
// adds exactly 2 entries and bumps the version by exactly 1, so any
// reply mixing the entry count of one view with the version or shard
// rows of another breaks an exact invariant.
func TestStatsConsistentUnderMutation(t *testing.T) {
	ts, db, entries := newTestServer(t, racelogic.WithShards(4))
	base := len(entries)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Insert("ACGTACGT", "TTTTACGT"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	for i := 0; i < 300; i++ {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Entries != base+2*int(st.Version) {
			t.Fatalf("torn stats: %d entries at version %d, want %d",
				st.Entries, st.Version, base+2*int(st.Version))
		}
		sum := 0
		for _, sh := range st.Shards {
			sum += sh.Entries
		}
		if sum != st.Entries {
			t.Fatalf("torn stats: shard rows sum to %d, global count is %d", sum, st.Entries)
		}
		if st.GoVersion == "" || st.Backend == "" || st.ShardCount != 4 {
			t.Fatalf("build info missing from stats: %+v", st)
		}
	}
}

// TestSlowQueryLog drives a search over an everything-crosses latency
// threshold and asserts it lands in the ring with its cost dimensions.
func TestSlowQueryLog(t *testing.T) {
	db, err := racelogic.NewDatabase([]string{"ACGTACGT", "TTTTTTTT"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DB: db, DefaultTopK: 5, SlowQueryLatency: time.Nanosecond, SlowLogSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	sr := postTraced(t, ts.URL, `{"query":"ACGTACGT"}`)
	if sr.Trace == nil {
		t.Fatal("traced search returned no trace")
	}
	resp, err := http.Get(ts.URL + "/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slowlog: status %d", resp.StatusCode)
	}
	var lr SlowLogResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if lr.Count != 1 || lr.Total != 1 {
		t.Fatalf("slowlog count=%d total=%d, want 1/1", lr.Count, lr.Total)
	}
	q := lr.Queries[0]
	if q.Query != "ACGTACGT" || q.Scanned == 0 || q.TotalCycles == 0 || q.Trace == nil {
		t.Errorf("slow query record incomplete: %+v", q)
	}
	if q.Time.IsZero() || q.Version != 0 {
		t.Errorf("slow query stamp wrong: time %v version %d", q.Time, q.Version)
	}
	// The slow-query counter reaches both surfaces.
	body := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, body, "racelogic_slow_queries_total"); v != 1 {
		t.Errorf("racelogic_slow_queries_total = %v, want 1", v)
	}
}

// TestSlowQueryLogBatch asserts the array form of POST /search feeds the
// slow-query log too: every raced item crossing the energy threshold
// lands in the ring, stamped with the request's service time.
func TestSlowQueryLogBatch(t *testing.T) {
	db, err := racelogic.NewDatabase([]string{"ACGTACGT", "TTTTTTTT"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DB: db, DefaultTopK: 5, SlowQueryEnergyJ: 1e-30, SlowLogSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, batch := postBatch(t, ts.URL, `[{"query":"ACGTACGT"},{"query":"TTTTACGT"}]`)
	if resp.StatusCode != http.StatusOK || len(batch) != 2 {
		t.Fatalf("batch: status %d, %d responses", resp.StatusCode, len(batch))
	}
	var lr SlowLogResponse
	getJSON(t, ts.URL+"/slowlog", &lr)
	if lr.Count != 2 || lr.Total != 2 {
		t.Fatalf("slowlog count=%d total=%d, want 2/2", lr.Count, lr.Total)
	}
	for i, q := range lr.Queries {
		if q.Query != batch[i].Query || q.ElapsedUS != batch[i].ElapsedUS || q.TotalEnergyJ != batch[i].TotalEnergyJ {
			t.Errorf("slow record %d = %+v, want query %q elapsed %d energy %g",
				i, q, batch[i].Query, batch[i].ElapsedUS, batch[i].TotalEnergyJ)
		}
	}
	body := scrapeMetrics(t, ts.URL)
	if v := metricValue(t, body, "racelogic_slow_queries_total"); v != 2 {
		t.Errorf("racelogic_slow_queries_total = %v, want 2", v)
	}
}
