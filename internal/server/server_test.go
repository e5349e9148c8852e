package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"racelogic"
	"racelogic/internal/seqgen"
)

// testFASTA is a small mixed-length database with one exact hit and one
// near hit for the test query ACGTACGT.
const testFASTA = `>hit exact match
ACGTACGT
>near one substitution
ACGTACCT
>far all-T
TTTTTTTT
>short its own bucket
ACGTAC
>multi line record
ACGT
TCGA
`

// newTestServer loads testFASTA through the real file-reading path and
// serves it, mirroring what cmd/raceserve does.
func newTestServer(t *testing.T, opts ...racelogic.Option) (*httptest.Server, *racelogic.Database, []string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.fasta")
	if err := os.WriteFile(path, []byte(testFASTA), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := seqgen.ReadSequencesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("loaded %d entries from FASTA, want 5", len(entries))
	}
	db, err := racelogic.NewDatabase(entries, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DB: db, CacheSize: 8, DefaultTopK: 10, MaxQueryLen: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, db, entries
}

func postSearch(t *testing.T, url string, body string) (*http.Response, *SearchResponse) {
	t.Helper()
	resp, err := http.Post(url+"/search", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var sr SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return resp, &sr
}

// TestSearchEndToEnd is the FASTA-to-ranked-report integration test: the
// HTTP reply must carry exactly the report the library computes.
func TestSearchEndToEnd(t *testing.T) {
	ts, _, entries := newTestServer(t)
	query := "ACGTACGT"

	resp, got := postSearch(t, ts.URL, fmt.Sprintf(`{"query":%q}`, query))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	want, err := racelogic.Search(query, entries, racelogic.WithTopK(10))
	if err != nil {
		t.Fatal(err)
	}
	if got.Scanned != want.Scanned || got.Matched != want.Matched ||
		got.Buckets != want.Buckets || got.TotalCycles != want.TotalCycles {
		t.Errorf("aggregates differ: got %+v, want %+v", got, want)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("got %d results, want %d", len(got.Results), len(want.Results))
	}
	for i, r := range got.Results {
		w := want.Results[i]
		if r.Index != w.Index || r.Score != w.Score || r.Sequence != w.Sequence {
			t.Errorf("rank %d: got (%d, %d, %s), want (%d, %d, %s)",
				i, r.Index, r.Score, r.Sequence, w.Index, w.Score, w.Sequence)
		}
		if r.Metrics.Cycles != w.Metrics.Cycles || r.Metrics.EnergyJ != w.Metrics.EnergyJ {
			t.Errorf("rank %d: metrics differ: got %+v, want %+v", i, r.Metrics, w.Metrics)
		}
	}
	if got.Results[0].Sequence != query || got.Results[0].Score != int64(len(query)) {
		t.Errorf("top hit should be the exact match scoring %d, got %+v", len(query), got.Results[0])
	}
	if got.Cached {
		t.Error("first request must not be served from cache")
	}

	// Negative top_k overrides any truncation default: every match comes
	// back.
	_, all := postSearch(t, ts.URL, fmt.Sprintf(`{"query":%q,"top_k":-1}`, query))
	if len(all.Results) != all.Matched {
		t.Errorf("top_k=-1 returned %d of %d matches", len(all.Results), all.Matched)
	}

	// Queries are case-normalized like the database loaders' sequences.
	_, lower := postSearch(t, ts.URL, fmt.Sprintf(`{"query":%q}`, strings.ToLower(query)))
	if lower == nil || len(lower.Results) != len(got.Results) || lower.Results[0].Score != got.Results[0].Score {
		t.Errorf("lowercase query must behave like its uppercase twin, got %+v", lower)
	}
}

// TestSearchCache pins the LRU behavior: an identical repeat request is a
// hit with byte-identical report content, a different request is not.
func TestSearchCache(t *testing.T) {
	ts, _, _ := newTestServer(t)
	body := `{"query":"ACGTACGT","top_k":3,"threshold":12}`

	_, first := postSearch(t, ts.URL, body)
	_, second := postSearch(t, ts.URL, body)
	if !second.Cached {
		t.Error("identical repeat request must be served from cache")
	}
	first.Cached, second.Cached = false, false
	first.ElapsedUS, second.ElapsedUS = 0, 0
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Errorf("cached reply differs from original:\n%s\n%s", a, b)
	}

	_, third := postSearch(t, ts.URL, `{"query":"ACGTACGT","top_k":4,"threshold":12}`)
	if third.Cached {
		t.Error("request with different options must miss the cache")
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.CacheHits != 1 {
		t.Errorf("cache_hits = %d, want 1", stats.CacheHits)
	}
	if stats.Requests != 3 {
		t.Errorf("requests = %d, want 3", stats.Requests)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHealthzAndStats(t *testing.T) {
	ts, db, _ := newTestServer(t, racelogic.WithSeedIndex(4))

	var health HealthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" || health.Entries != db.Len() {
		t.Errorf("healthz = %+v, want ok with %d entries", health, db.Len())
	}

	// The seeded query must skip the all-T entry.
	_, sr := postSearch(t, ts.URL, `{"query":"ACGTACGT"}`)
	if sr.Skipped == 0 {
		t.Errorf("seed index should skip dissimilar entries, report: %+v", sr)
	}
	if sr.Scanned+sr.Skipped != db.Len() {
		t.Errorf("scanned %d + skipped %d != %d entries", sr.Scanned, sr.Skipped, db.Len())
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Entries != db.Len() || stats.SeedK != 4 || stats.Searches != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.EnginesBuilt == 0 || stats.PooledEngines == 0 {
		t.Errorf("engines must be built and pooled after a search, stats = %+v", stats)
	}
	// The per-shard gauges partition the global counts exactly.
	if stats.ShardCount != db.Shards() || len(stats.Shards) != db.Shards() {
		t.Fatalf("shard gauges: shard_count=%d len(shards)=%d, database has %d",
			stats.ShardCount, len(stats.Shards), db.Shards())
	}
	sum := 0
	for i, sh := range stats.Shards {
		if sh.Shard != i {
			t.Errorf("shards[%d] labeled %d", i, sh.Shard)
		}
		if sh.SnapshotAgeSeconds != -1 {
			t.Errorf("memory-only shard %d reports snapshot age %g", i, sh.SnapshotAgeSeconds)
		}
		sum += sh.Entries
	}
	if sum != stats.Entries {
		t.Errorf("per-shard entries sum to %d, global says %d", sum, stats.Entries)
	}
}

func TestSearchErrors(t *testing.T) {
	ts, _, _ := newTestServer(t)
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"bad json", `{"query":`, http.StatusBadRequest},
		{"unknown field", `{"query":"ACGT","workers":3}`, http.StatusBadRequest},
		{"missing query", `{"top_k":3}`, http.StatusBadRequest},
		{"bad symbol", `{"query":"ACGX"}`, http.StatusBadRequest},
		// A negative threshold is the disable sentinel, same as omitting it.
		{"negative threshold", `{"query":"ACGT","threshold":-1}`, http.StatusOK},
		{"query too long", fmt.Sprintf(`{"query":%q}`, strings.Repeat("A", 65)), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, _ := postSearch(t, ts.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	resp, err := http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /search: status %d, want 405", resp.StatusCode)
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New without a database must error")
	}
}

// TestTrailingDataRejected pins the one-value rule of every JSON
// request body: anything after the value, including a second request or
// a stray closing bracket, is a 400 that counts as a failure, and a
// rejected insert leaves the database unchanged.
func TestTrailingDataRejected(t *testing.T) {
	ts, db, _ := newTestServer(t)
	entries, version := db.Len(), db.Version()
	cases := []struct{ path, body string }{
		{"/search", `{"query":"ACGT"} trailing garbage`},
		{"/search", `[{"query":"ACGT"}] {"x":1}`},
		{"/search", `{"query":"ACGT"}{"query":"TTTT"}`},
		{"/search", `[{"query":"ACGT"}] ]`},
		{"/search", `{"query":"ACGT"} }`},
		{"/entries", `{"entries":["ACGT"]}{"entries":["TTTT"]}`},
	}
	for i, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewBufferString(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || !strings.HasPrefix(e.Error, "bad request body: ") {
			t.Errorf("POST %s %s: status %d, error %q (%v), want 400 bad request body", tc.path, tc.body, resp.StatusCode, e.Error, derr)
		}
		var stats StatsResponse
		getJSON(t, ts.URL+"/stats", &stats)
		if stats.Failures != int64(i+1) {
			t.Errorf("POST %s %s: failures = %d, want %d", tc.path, tc.body, stats.Failures, i+1)
		}
	}
	if db.Len() != entries || db.Version() != version {
		t.Errorf("rejected insert changed the database: %d entries at version %d, want %d at %d",
			db.Len(), db.Version(), entries, version)
	}
}

// TestConcurrentRequests hammers /search from many goroutines — the
// engine pools underneath must hand every in-flight race its own
// simulator, and every reply must match the serial golden report.
func TestConcurrentRequests(t *testing.T) {
	ts, _, entries := newTestServer(t)
	queries := []string{"ACGTACGT", "TTTTTTTT", "ACGTTGCA"}
	golden := make(map[string]*racelogic.SearchReport)
	for _, q := range queries {
		rep, err := racelogic.Search(q, entries, racelogic.WithTopK(10))
		if err != nil {
			t.Fatal(err)
		}
		golden[q] = rep
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q := queries[(w+i)%len(queries)]
				resp, err := http.Post(ts.URL+"/search", "application/json",
					bytes.NewBufferString(fmt.Sprintf(`{"query":%q}`, q)))
				if err != nil {
					errs <- err
					return
				}
				var sr SearchResponse
				err = json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				want := golden[q]
				if len(sr.Results) != len(want.Results) {
					errs <- fmt.Errorf("query %s: %d results, want %d", q, len(sr.Results), len(want.Results))
					return
				}
				for i, r := range sr.Results {
					if r.Index != want.Results[i].Index || r.Score != want.Results[i].Score {
						errs <- fmt.Errorf("query %s rank %d: got (%d,%d), want (%d,%d)",
							q, i, r.Index, r.Score, want.Results[i].Index, want.Results[i].Score)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCacheHitDoesNotAliasResults is the regression test for the
// shallow-copy bug: a cache hit used to share its Results slice with the
// cached response, so a caller mutating its reply corrupted every later
// hit.  Mutate one hit and demand the next one is unaffected.
func TestCacheHitDoesNotAliasResults(t *testing.T) {
	c := newLRU(4)
	c.add("k", &SearchResponse{
		Query:   "ACGT",
		Results: []SearchResult{{Index: 0, ID: 0, Sequence: "ACGT", Score: 4}},
	})
	first, ok := c.get("k")
	if !ok {
		t.Fatal("expected a cache hit")
	}
	first.Results[0].Sequence = "CLOBBERED"
	first.Results[0].Score = -1
	first.Cached = true

	second, ok := c.get("k")
	if !ok {
		t.Fatal("expected a second cache hit")
	}
	if second.Results[0].Sequence != "ACGT" || second.Results[0].Score != 4 || second.Cached {
		t.Errorf("cache was corrupted through a returned response: %+v", second.Results[0])
	}
}

// TestLRUCapacityAccessor pins the synchronized accessor /stats uses.
func TestLRUCapacityAccessor(t *testing.T) {
	if got := newLRU(7).capacity(); got != 7 {
		t.Errorf("capacity() = %d, want 7", got)
	}
	if got := newLRU(0).capacity(); got != 0 {
		t.Errorf("capacity() = %d, want 0", got)
	}
}

// TestMutationEndpoints drives the live-mutation API end to end: insert
// via POST /entries, see the entry in the next search (the cache must
// not serve the pre-insert report), remove it via DELETE /entries/{id},
// and see it gone again.
func TestMutationEndpoints(t *testing.T) {
	ts, db, _ := newTestServer(t)
	query := "ACGTACGT"

	_, before := postSearch(t, ts.URL, fmt.Sprintf(`{"query":%q}`, query))
	if before.Version != 0 {
		t.Fatalf("fresh database version = %d", before.Version)
	}

	// Insert a second exact match (lowercase: the server normalizes).
	resp, err := http.Post(ts.URL+"/entries", "application/json",
		bytes.NewBufferString(`{"entries":["acgtacgt"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /entries: status %d", resp.StatusCode)
	}
	var mut MutationResponse
	if err := json.NewDecoder(resp.Body).Decode(&mut); err != nil {
		t.Fatal(err)
	}
	if len(mut.IDs) != 1 || mut.Entries != db.Len() || mut.Version != 1 {
		t.Fatalf("insert response %+v, database len %d", mut, db.Len())
	}

	// The same query must now re-run (version changed, so the cached
	// pre-insert report is unreachable) and rank both exact matches.
	_, after := postSearch(t, ts.URL, fmt.Sprintf(`{"query":%q}`, query))
	if after.Cached {
		t.Error("post-insert search served the stale cached report")
	}
	if after.Version != 1 {
		t.Errorf("post-insert report version = %d, want 1", after.Version)
	}
	exact := 0
	for _, r := range after.Results {
		if r.Sequence == query {
			exact++
		}
	}
	if exact != 2 {
		t.Errorf("found %d exact matches after insert, want 2", exact)
	}

	// Remove it again by stable ID.
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/entries/%d", ts.URL, mut.IDs[0]), nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /entries/%d: status %d", mut.IDs[0], dresp.StatusCode)
	}
	_, final := postSearch(t, ts.URL, fmt.Sprintf(`{"query":%q}`, query))
	exact = 0
	for _, r := range final.Results {
		if r.Sequence == query {
			exact++
		}
	}
	if exact != 1 || final.Version != 2 {
		t.Errorf("after delete: %d exact matches at version %d, want 1 at 2", exact, final.Version)
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Version != 2 || stats.Mutations != 2 || stats.Entries != db.Len() {
		t.Errorf("stats after mutations: %+v", stats)
	}
	if stats.CacheCapacity != 8 {
		t.Errorf("cache capacity = %d, want 8", stats.CacheCapacity)
	}
}

// TestMutationEndpointErrors pins the failure surface: bad bodies, bad
// symbols, oversized entries, unknown and malformed IDs.
func TestMutationEndpointErrors(t *testing.T) {
	ts, _, _ := newTestServer(t)
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/entries", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(``); got != http.StatusBadRequest {
		t.Errorf("empty body: status %d", got)
	}
	if got := post(`{"entries":[]}`); got != http.StatusBadRequest {
		t.Errorf("no entries: status %d", got)
	}
	if got := post(`{"entries":["ACGX"]}`); got != http.StatusBadRequest {
		t.Errorf("bad symbol: status %d", got)
	}
	if got := post(fmt.Sprintf(`{"entries":[%q]}`, strings.Repeat("A", 65))); got != http.StatusBadRequest {
		t.Errorf("oversized entry: status %d (limit is 64)", got)
	}
	if got := post(`{"entries":["ACGT"],"nope":1}`); got != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", got)
	}

	del := func(id string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/entries/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := del("9999"); got != http.StatusNotFound {
		t.Errorf("unknown ID: status %d, want 404", got)
	}
	if got := del("not-a-number"); got != http.StatusBadRequest {
		t.Errorf("malformed ID: status %d, want 400", got)
	}
	// Wrong methods on the mutation routes 405 via the mux patterns.
	resp, err := http.Get(ts.URL + "/entries")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /entries: status %d, want 405", resp.StatusCode)
	}
}

// TestBulkInsertFASTA streams a FASTA upload through /entries/bulk and
// checks the batch accounting plus searchability of the new entries.
func TestBulkInsertFASTA(t *testing.T) {
	ts, db, _ := newTestServer(t, racelogic.WithSeedIndex(4))
	upload := ">u1\nAAAACGTACGT\n>u2 split\nCCCC\nGGGG\n>u3\nTTTTAAAA\n"
	resp, err := http.Post(ts.URL+"/entries/bulk", "text/plain", strings.NewReader(upload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BulkInsertResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, br)
	}
	if br.Inserted != 3 || br.Batches != 1 || br.Entries != 8 || br.Error != "" {
		t.Fatalf("bulk response = %+v", br)
	}
	if br.FirstID == nil || br.LastID == nil || *br.LastID != *br.FirstID+2 {
		t.Fatalf("ID bracket = %v..%v", br.FirstID, br.LastID)
	}
	if db.Len() != 8 {
		t.Errorf("db has %d entries after bulk, want 8", db.Len())
	}
	// The multi-line record must have been concatenated and be findable.
	_, sr := postSearch(t, ts.URL, `{"query":"CCCCGGGG"}`)
	if sr == nil || len(sr.Results) == 0 || sr.Results[0].Sequence != "CCCCGGGG" {
		t.Errorf("bulk-inserted record not searchable: %+v", sr)
	}
}

// TestBulkInsertNDJSON covers the NDJSON content type, lowercase
// normalization, and plain-format uploads.
func TestBulkInsertNDJSON(t *testing.T) {
	ts, db, _ := newTestServer(t)
	body := "\"acgtacgtacgt\"\n\n\"TTTTCCCC\"\n"
	resp, err := http.Post(ts.URL+"/entries/bulk", "application/x-ndjson; charset=utf-8", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BulkInsertResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || br.Inserted != 2 {
		t.Fatalf("status %d, response %+v", resp.StatusCode, br)
	}
	if db.Len() != 7 {
		t.Errorf("db has %d entries, want 7", db.Len())
	}
	_, sr := postSearch(t, ts.URL, `{"query":"ACGTACGTACGT"}`)
	found := false
	if sr != nil {
		for _, r := range sr.Results {
			if r.Sequence == "ACGTACGTACGT" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("lowercase NDJSON entry must be uppercased and searchable: %+v", sr)
	}

	// Plain one-per-line works under the default content type too.
	resp2, err := http.Post(ts.URL+"/entries/bulk", "application/octet-stream", strings.NewReader("GGGGTTTT\nAAAATTTT\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("plain upload status %d", resp2.StatusCode)
	}
}

// TestBulkInsertErrors pins the failure modes: bad alphabet mid-stream,
// oversized entries, empty uploads, malformed NDJSON — each reported
// with the partial-progress accounting.
func TestBulkInsertErrors(t *testing.T) {
	ts, db, _ := newTestServer(t)
	before := db.Len()

	for name, c := range map[string]struct{ ct, body string }{
		"bad symbol":    {"text/plain", "ACGT\nACGN\n"},
		"empty upload":  {"text/plain", "# nothing\n"},
		"bad ndjson":    {"application/x-ndjson", "{\"entry\":\"ACGT\"}\n"},
		"fasta no data": {"text/plain", ">a\n>b\nACGT\n"},
	} {
		resp, err := http.Post(ts.URL+"/entries/bulk", c.ct, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var br BulkInsertResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || br.Error == "" {
			t.Errorf("%s: status %d, response %+v", name, resp.StatusCode, br)
		}
	}
	if db.Len() != before {
		t.Errorf("failed small uploads must land nothing: %d entries, want %d", db.Len(), before)
	}

	// An oversized entry fails the request but keeps the earlier batches:
	// partial progress is reported, not rolled back.
	long := strings.Repeat("A", 65)
	resp, err := http.Post(ts.URL+"/entries/bulk", "text/plain", strings.NewReader("ACGTACGT\n"+long+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BulkInsertResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(br.Error, "exceeds") {
		t.Fatalf("oversized entry: status %d, %+v", resp.StatusCode, br)
	}
}

// TestCompactEndpoint drives remove-then-compact over HTTP and checks
// the remap contract: IDs stable, slots renumbered as reported.
func TestCompactEndpoint(t *testing.T) {
	ts, db, _ := newTestServer(t)

	// Nothing to reclaim yet: a no-op with the current version.
	resp, err := http.Post(ts.URL+"/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr CompactResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cr.Reclaimed != 0 || cr.Remap != nil || cr.Version != 0 {
		t.Fatalf("no-op compact = %+v (status %d)", cr, resp.StatusCode)
	}

	// Remove slot 0's entry (ID 0); the default policy (dead>live) does
	// not trigger on 1 of 5, so the tombstone waits for the manual call.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/entries/0", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if db.Tombstones() != 1 {
		t.Fatalf("tombstones = %d, want 1", db.Tombstones())
	}

	resp, err = http.Post(ts.URL+"/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Reclaimed != 1 || cr.Entries != 4 || len(cr.Remap) != 5 {
		t.Fatalf("compact = %+v", cr)
	}
	if cr.Remap[0] != -1 || cr.Remap[1] != 0 || cr.Remap[4] != 3 {
		t.Errorf("remap = %v: slot 0 dropped, the rest shifted down", cr.Remap)
	}
	if db.Tombstones() != 0 {
		t.Errorf("tombstones = %d after compact", db.Tombstones())
	}
}

// TestStatsDurability checks the new /stats fields against a durable
// database (journal tail, snapshot age) and a memory-only one.
func TestStatsDurability(t *testing.T) {
	ts, db, _ := newTestServer(t)
	getStats := func() StatsResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := getStats()
	if st.Durable || st.WALRecords != 0 || st.SnapshotAgeSeconds != -1 {
		t.Fatalf("memory-only stats = %+v", st)
	}

	if err := db.Persist(t.TempDir(), racelogic.WithSnapshotInterval(0), racelogic.WithSnapshotEvery(0)); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	resp, err := http.Post(ts.URL+"/entries", "application/json", strings.NewReader(`{"entries":["ACGTACGTAA"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st = getStats()
	if !st.Durable || st.WALRecords != 1 || st.WALBytes == 0 || st.SnapshotAgeSeconds < 0 {
		t.Fatalf("durable stats = %+v", st)
	}
	// The journaled insert's record shows up in exactly one shard's
	// gauges, and every durable shard reports a snapshot age.
	recs := int64(0)
	for _, sh := range st.Shards {
		recs += sh.WALRecords
		if sh.SnapshotAgeSeconds < 0 {
			t.Errorf("durable shard %d reports snapshot age %g", sh.Shard, sh.SnapshotAgeSeconds)
		}
	}
	if recs != st.WALRecords {
		t.Errorf("per-shard wal_records sum to %d, global says %d", recs, st.WALRecords)
	}
}

// TestStatsRecoveryReport pins the recovery report in /stats: a
// database opened from a crash image reports, per shard, its snapshot
// bytes and the journal records it replayed, and a database built in
// memory reports none.
func TestStatsRecoveryReport(t *testing.T) {
	g := seqgen.NewDNA(233)
	db, err := racelogic.NewDatabase(g.Database(12, 10), racelogic.WithShards(2), racelogic.WithSeedIndex(4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	idle := []racelogic.Option{racelogic.WithSnapshotInterval(0), racelogic.WithSnapshotEvery(0)}
	if err := db.Persist(dir, idle...); err != nil {
		t.Fatal(err)
	}
	ids, err := db.Insert(g.Random(10), g.Random(10), g.Random(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(ids[1]); err != nil {
		t.Fatal(err)
	}
	journaled := db.WALRecords()
	// The crash image: the directory as the running database leaves it.
	image := t.TempDir()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, f.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := racelogic.Open(image, idle...)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	s, err := New(Config{DB: back})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	replayed := int64(0)
	for _, sh := range st.Shards {
		rec := sh.Recovery
		if rec == nil {
			t.Fatalf("shard %d of a recovered database has no recovery report", sh.Shard)
		}
		info, err := os.Stat(filepath.Join(image, fmt.Sprintf("shard-%04d.g0.snap", sh.Shard)))
		if err != nil {
			t.Fatal(err)
		}
		if rec.SnapshotBytes != info.Size() || rec.Skipped != 0 || rec.ReadSeconds <= 0 || rec.IndexSeconds <= 0 || rec.ReplaySeconds <= 0 {
			t.Errorf("shard %d recovery report %+v: want %d snapshot bytes, no record skipped, every time positive",
				sh.Shard, *rec, info.Size())
		}
		replayed += rec.Replayed
	}
	if replayed != journaled || journaled != 3 {
		t.Errorf("shards replayed %d records, want the %d journaled (a two-shard insert and a remove: 3)", replayed, journaled)
	}

	for _, sh := range db.ShardStats() {
		if sh.Recovery != nil {
			t.Errorf("shard %d of a database built in memory reports a recovery", sh.Shard)
		}
	}
}

// postBatch POSTs an array-form /search body and decodes the array reply.
func postBatch(t *testing.T, url string, body string) (*http.Response, []SearchResponse) {
	t.Helper()
	resp, err := http.Post(url+"/search", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var out []SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestSearchBatchEndpoint pins the array-form /search contract: one
// response per request in order, each byte-identical to the solo reply
// for the same query modulo the whole-batch EnginesBuilt count and the
// shared wall-clock stamp.
func TestSearchBatchEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, racelogic.WithBackend(racelogic.BackendLanes), racelogic.WithLaneWidth(128))
	// Solo replies come from a second identical server: on ts itself the
	// batch seeds the cache, so a follow-up solo request would just echo
	// the batch's own reply back.
	solos, _, _ := newTestServer(t, racelogic.WithBackend(racelogic.BackendLanes), racelogic.WithLaneWidth(128))
	queries := []string{"ACGTACGT", "acgtac", "TTTTTTTT"}
	var items []string
	for _, q := range queries {
		items = append(items, fmt.Sprintf(`{"query":%q,"top_k":3,"threshold":14}`, q))
	}
	resp, batch := postBatch(t, ts.URL, "["+strings.Join(items, ",")+"]")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(batch) != len(queries) {
		t.Fatalf("%d responses for %d queries", len(batch), len(queries))
	}
	for i, q := range queries {
		_, solo := postSearch(t, solos.URL, fmt.Sprintf(`{"query":%q,"top_k":3,"threshold":14}`, q))
		got, want := batch[i], *solo
		got.ElapsedUS, want.ElapsedUS = 0, 0
		got.EnginesBuilt, want.EnginesBuilt = 0, 0
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Errorf("query %d: batch reply differs from solo:\nbatch: %s\nsolo:  %s", i, a, b)
		}
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Batches != 1 {
		t.Errorf("batches = %d, want 1", stats.Batches)
	}
	if stats.BatchQueries != int64(len(queries)) {
		t.Errorf("batch_queries = %d, want %d", stats.BatchQueries, len(queries))
	}
}

// TestSearchBatchCache pins the per-item cache interplay: batch items
// seed the same cache solo requests use, and a repeated batch is served
// entirely from it.
func TestSearchBatchCache(t *testing.T) {
	ts, _, _ := newTestServer(t)
	body := `[{"query":"ACGTACGT","top_k":3},{"query":"ACGTAC","top_k":3}]`
	_, first := postBatch(t, ts.URL, body)
	for i, r := range first {
		if r.Cached {
			t.Errorf("first batch item %d claims cached", i)
		}
	}
	_, second := postBatch(t, ts.URL, body)
	for i, r := range second {
		if !r.Cached {
			t.Errorf("repeat batch item %d missed the cache", i)
		}
	}
	// A solo request for one of the items hits the batch-seeded entry.
	_, solo := postSearch(t, ts.URL, `{"query":"ACGTAC","top_k":3}`)
	if !solo.Cached {
		t.Error("solo request missed the cache the batch seeded")
	}
	// A mixed batch races only the cold item.
	_, mixed := postBatch(t, ts.URL, `[{"query":"ACGTACGT","top_k":3},{"query":"TTTTTTTT","top_k":3}]`)
	if !mixed[0].Cached {
		t.Error("warm item of mixed batch missed the cache")
	}
	if mixed[1].Cached {
		t.Error("cold item of mixed batch claims cached")
	}
}

// TestSearchBatchLimit pins the array-form length bound: MaxBatchQueries
// items race, one more is refused with a 400 naming the count and the
// limit before any item is checked, raced or looked up in the cache, and
// counts as one failure.
func TestSearchBatchLimit(t *testing.T) {
	ts, db, _ := newTestServer(t)
	batch := func(n int, query string) string {
		items := make([]string, n)
		for i := range items {
			items[i] = fmt.Sprintf(`{"query":%q,"top_k":3}`, query)
		}
		return "[" + strings.Join(items, ",") + "]"
	}
	resp, out := postBatch(t, ts.URL, batch(MaxBatchQueries, "ACGTACGT"))
	if resp.StatusCode != http.StatusOK || len(out) != MaxBatchQueries {
		t.Fatalf("%d-item batch: status %d, %d responses", MaxBatchQueries, resp.StatusCode, len(out))
	}

	var before, after StatsResponse
	getJSON(t, ts.URL+"/stats", &before)
	searches := db.Searches()
	resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewBufferString(batch(MaxBatchQueries+1, "TTTTACGT")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%d-item batch: status %d, want 400", MaxBatchQueries+1, resp.StatusCode)
	}
	if want := fmt.Sprintf("batch of %d queries exceeds the %d-query limit", MaxBatchQueries+1, MaxBatchQueries); e.Error != want {
		t.Errorf("error %q, want %q", e.Error, want)
	}
	getJSON(t, ts.URL+"/stats", &after)
	if got := db.Searches(); got != searches {
		t.Errorf("refused batch raced %d queries", got-searches)
	}
	if after.Failures != before.Failures+1 {
		t.Errorf("failures %d → %d, want one more", before.Failures, after.Failures)
	}
	if after.Batches != before.Batches || after.BatchQueries != before.BatchQueries || after.CacheHits != before.CacheHits {
		t.Errorf("refused batch moved batches %d → %d, batch_queries %d → %d, cache_hits %d → %d",
			before.Batches, after.Batches, before.BatchQueries, after.BatchQueries, before.CacheHits, after.CacheHits)
	}
}

// TestSearchBatchErrors pins the array-form failure modes: empty
// batches, invalid items, and engine-level failures must all name the
// zero-based index of the query at fault.
func TestSearchBatchErrors(t *testing.T) {
	ts, _, _ := newTestServer(t)
	cases := []struct {
		body, wantErr string
	}{
		{`[]`, "batch contains no queries"},
		{`[{"query":"ACGT"},{"query":""}]`, "query 1: query is required"},
		{`[{"query":"ACGT"},{"query":"` + strings.Repeat("A", 65) + `"}]`, "query 1: length 65 exceeds the 64-symbol limit"},
		{`[{"query":"ACGT"},{"query":"ACGTX"}]`, "query 1: "},
		{`[{"query":"ACGT","bogus":1}]`, "unknown"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewBufferString(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		if derr := json.NewDecoder(resp.Body).Decode(&e); derr != nil {
			t.Fatal(derr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", tc.body, resp.StatusCode)
		}
		if !strings.Contains(e.Error, tc.wantErr) {
			t.Errorf("body %s: error %q does not contain %q", tc.body, e.Error, tc.wantErr)
		}
	}
}
