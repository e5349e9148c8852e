package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"racelogic"
	"racelogic/internal/obs"
	"racelogic/internal/seqgen"
)

// Config parameterizes a search service.
type Config struct {
	// DB is the loaded database every request races against.  Required.
	DB *racelogic.Database
	// CacheSize bounds the LRU report cache; ≤ 0 disables caching.
	CacheSize int
	// DefaultTopK truncates reports when a request does not set top_k;
	// ≤ 0 returns every match.
	DefaultTopK int
	// MaxQueryLen rejects queries longer than this before any engine is
	// compiled — a race array is O(query·entry) gates, so an unbounded
	// query is a denial-of-service lever on a public endpoint.  ≤ 0
	// selects DefaultMaxQueryLen.
	MaxQueryLen int
	// SlowQueryLatency logs any uncached search slower than this to the
	// bounded slow-query log and the process log; ≤ 0 disables the
	// latency trigger.
	SlowQueryLatency time.Duration
	// SlowQueryEnergyJ logs any uncached search spending at least this
	// many joules — the hardware-native analogue of a latency threshold;
	// ≤ 0 disables the energy trigger.
	SlowQueryEnergyJ float64
	// SlowLogSize bounds the slow-query ring served by GET /slowlog;
	// ≤ 0 selects DefaultSlowLogSize.
	SlowLogSize int
}

// DefaultSlowLogSize bounds the slow-query ring when Config.SlowLogSize
// is unset.
const DefaultSlowLogSize = 128

// DefaultMaxQueryLen bounds /search queries when Config.MaxQueryLen is
// unset.
const DefaultMaxQueryLen = 4096

// maxBodyBytes bounds a /search request body; the query length cap makes
// anything beyond a few times DefaultMaxQueryLen meaningless.
const maxBodyBytes = 1 << 20

// MaxBatchQueries bounds the array form of POST /search.  The body cap
// alone admits tens of thousands of short items, and a batch plans
// every (query, entry) pair before it races, so an unbounded array is a
// memory lever on a public endpoint.
const MaxBatchQueries = 256

// Server is the HTTP search service.  It is an http.Handler and is safe
// for concurrent requests.
type Server struct {
	db          *racelogic.Database
	cache       *lru
	defaultTopK int
	maxQueryLen int
	start       time.Time
	mux         *http.ServeMux

	// reg is the server-side metric registry (request counters, cache
	// gauges, uptime); GET /metrics merges it with the database's own.
	reg         *obs.Registry
	slow        *obs.SlowLog
	slowLatency time.Duration
	slowEnergy  float64

	requests     atomic.Int64 // /search requests received
	cacheHits    atomic.Int64
	failures     atomic.Int64 // requests answered with an error
	mutations    atomic.Int64 // successful inserts + removes
	slowQueries  atomic.Int64
	batches      atomic.Int64 // array-form /search requests
	batchQueries atomic.Int64 // queries carried by those batches
}

// New builds the service around a loaded database.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("server: Config.DB is required")
	}
	maxQueryLen := cfg.MaxQueryLen
	if maxQueryLen <= 0 {
		maxQueryLen = DefaultMaxQueryLen
	}
	slowLogSize := cfg.SlowLogSize
	if slowLogSize <= 0 {
		slowLogSize = DefaultSlowLogSize
	}
	s := &Server{
		db:          cfg.DB,
		cache:       newLRU(cfg.CacheSize),
		defaultTopK: cfg.DefaultTopK,
		maxQueryLen: maxQueryLen,
		start:       time.Now(),
		mux:         http.NewServeMux(),
		slow:        obs.NewSlowLog(slowLogSize),
		slowLatency: cfg.SlowQueryLatency,
		slowEnergy:  cfg.SlowQueryEnergyJ,
	}
	s.initObs()
	s.mux.HandleFunc("/search", s.handleSearch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/slowlog", s.handleSlowLog)
	s.mux.Handle("/metrics", obs.Handler(s.db.Metrics(), s.reg))
	s.mux.HandleFunc("POST /entries", s.handleInsert)
	s.mux.HandleFunc("POST /entries/bulk", s.handleBulkInsert)
	s.mux.HandleFunc("DELETE /entries/{id}", s.handleRemove)
	s.mux.HandleFunc("POST /compact", s.handleCompact)
	return s, nil
}

// ServeHTTP dispatches to the service endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SearchRequest is the POST /search body.  The endpoint also accepts a
// JSON array of these: the array form answers with an array of
// SearchResponse in the same order, and queries that share options race
// as one batch, packing same-shape candidate pairs from different
// queries into the same wide lanes under the lanes backend.
type SearchRequest struct {
	// Query is the sequence to rank the database against.  Required.
	Query string `json:"query"`
	// TopK truncates the ranked results; omitted or 0 selects the
	// server default, negative keeps every match.
	TopK int `json:"top_k,omitempty"`
	// Threshold enables the Section 6 pre-filter; omitted or negative
	// disables it.
	Threshold *int64 `json:"threshold,omitempty"`
	// FullScan bypasses the database's k-mer seed index for this query.
	FullScan bool `json:"full_scan,omitempty"`
}

// SearchResult is one ranked match of a SearchResponse.  ID is the
// entry's stable identifier — the handle DELETE /entries/{id} takes —
// while Index is its current slot, which compaction may renumber.
type SearchResult struct {
	Index    int           `json:"index"`
	ID       uint64        `json:"id"`
	Sequence string        `json:"sequence"`
	Score    int64         `json:"score"`
	Metrics  SearchMetrics `json:"metrics"`
}

// SearchMetrics prices one race under the database's standard-cell
// library — the paper's Section 4.1 accounting, per request.
type SearchMetrics struct {
	Cycles           int     `json:"cycles"`
	LatencyNS        float64 `json:"latency_ns"`
	EnergyJ          float64 `json:"energy_j"`
	AreaUM2          float64 `json:"area_um2"`
	PowerDensityWCM2 float64 `json:"power_density_w_cm2"`
}

// SearchResponse is the POST /search reply.  Version is the database
// mutation counter the search ran against: the report is one consistent
// snapshot even when inserts and removes land mid-search.
type SearchResponse struct {
	Query        string         `json:"query"`
	Version      int64          `json:"version"`
	Results      []SearchResult `json:"results"`
	Scanned      int            `json:"scanned"`
	Skipped      int            `json:"skipped"`
	Matched      int            `json:"matched"`
	Rejected     int            `json:"rejected"`
	Buckets      int            `json:"buckets"`
	EnginesBuilt int            `json:"engines_built"`
	TotalCycles  int            `json:"total_cycles"`
	TotalEnergyJ float64        `json:"total_energy_j"`
	// Cached reports that the response was served from the LRU cache;
	// ElapsedUS is this request's wall-clock service time either way.
	Cached    bool  `json:"cached"`
	ElapsedUS int64 `json:"elapsed_us"`
	// Trace is the per-shard span breakdown, present only on ?trace=1
	// requests (which always race — never served or stored by the cache).
	Trace *obs.TraceReport `json:"trace,omitempty"`
}

// errorResponse is the JSON body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// mutationStatus classifies a mutation error: journal I/O failures and
// a closed (shutting-down) database are the server's fault, not the
// client's, and must not be counted or retried as bad requests.
func mutationStatus(err error) int {
	switch {
	case errors.Is(err, racelogic.ErrJournal):
		return http.StatusInternalServerError
	case errors.Is(err, racelogic.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	s.requests.Add(1)
	// The body is buffered (it is already capped at maxBodyBytes) so the
	// first non-whitespace byte can dispatch between the single-object
	// and array forms before either decoder runs.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.failures.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if jsonArrayBody(body) {
		s.handleSearchBatch(w, r, started, body)
		return
	}
	var req SearchRequest
	if err := strictDecode(body, &req); err != nil {
		s.failures.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	topK, opts, err := s.normalize(&req, "")
	if err != nil {
		s.failures.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	// A traced request exists to measure the real pipeline, so it
	// bypasses the cache in both directions: a hit would trace nothing,
	// and storing the traced response would replay a stale breakdown.
	traced := r.URL.Query().Get("trace") == "1"

	// The key carries the database version read *before* the search, so
	// every mutation implicitly invalidates the whole cache: a stale
	// report can only be found under a version no future request asks
	// for.  (A search racing a mutation may be cached under the older
	// version's key — harmless for the same reason.)  A repeated query
	// that misses after a mutation still races little: the database's
	// outcome memo is keyed by stable entry ID and survives mutations,
	// so only the entries its last search did not score are raced.
	key := cacheKey(s.db.Version(), req.Query, topK, req.Threshold, req.FullScan)
	if !traced {
		if cached, ok := s.cache.get(key); ok {
			// get hands back a private copy, so stamping these per-request
			// fields cannot corrupt the cached response other callers share.
			s.cacheHits.Add(1)
			cached.Cached = true
			cached.ElapsedUS = time.Since(started).Microseconds()
			writeJSON(w, http.StatusOK, cached)
			return
		}
	}

	ctx := r.Context()
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	rep, err := s.db.SearchContext(ctx, req.Query, opts...)
	if err != nil {
		s.failures.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	resp := toResponse(rep)
	if traced {
		resp.Trace = tr.Report()
	} else {
		s.cache.add(key, resp)
	}
	out := *resp
	elapsed := time.Since(started)
	out.ElapsedUS = elapsed.Microseconds()
	s.noteSlow(req.Query, elapsed, rep, out.Trace)
	writeJSON(w, http.StatusOK, &out)
}

// normalize validates one request of either POST /search form and
// resolves it: the query is required and capped at maxQueryLen, then
// upper-cased like the database loaders do, so a lowercase query
// matches the (uppercased) entries it came from; a zero top_k takes the
// server default.  It returns the resolved top_k and the per-search
// options the request maps to.  item prefixes the error text: empty for
// the single form, "query i: " for array item i.
func (s *Server) normalize(req *SearchRequest, item string) (int, []racelogic.Option, error) {
	if req.Query == "" {
		return 0, nil, fmt.Errorf("%squery is required", item)
	}
	if len(req.Query) > s.maxQueryLen {
		if item == "" {
			item = "query "
		}
		return 0, nil, fmt.Errorf("%slength %d exceeds the %d-symbol limit", item, len(req.Query), s.maxQueryLen)
	}
	req.Query = strings.ToUpper(req.Query)
	topK := req.TopK
	if topK == 0 {
		topK = s.defaultTopK
	}
	var opts []racelogic.Option
	if topK != 0 {
		// Negative means "every match": WithTopK clamps it to the
		// no-truncation sentinel, overriding any database default.
		opts = append(opts, racelogic.WithTopK(topK))
	}
	if req.Threshold != nil {
		opts = append(opts, racelogic.WithThreshold(*req.Threshold))
	}
	if req.FullScan {
		opts = append(opts, racelogic.WithFullScan())
	}
	return topK, opts, nil
}

// strictDecode decodes exactly one JSON value from data into v,
// refusing unknown fields and anything after the value.  A request body
// must hold one value: a second one would otherwise be silently ignored.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

// jsonArrayBody reports whether the body's first non-whitespace byte
// opens a JSON array — the batch form of POST /search.
func jsonArrayBody(body []byte) bool {
	for _, b := range body {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		default:
			return b == '['
		}
	}
	return false
}

// batchKey groups batch items that resolved to the same search options:
// each group becomes one Database.SearchBatch call, since lane packs
// only coalesce queries racing under the same threshold and ranking.
func batchKey(topK int, threshold *int64, fullScan bool) string {
	t := "off"
	if threshold != nil {
		t = fmt.Sprint(*threshold)
	}
	return fmt.Sprintf("%d\x00%s\x00%v", topK, t, fullScan)
}

// handleSearchBatch answers the array form of POST /search: one
// SearchResponse per request item, in order.  Cache hits are peeled off
// per item; the misses regroup by options and race as shared batches.
// Any invalid item fails the whole request with its index named, and
// an array of more than MaxBatchQueries items fails before any item is
// checked — nothing is raced or cached on a 4xx.  ?trace=1 is ignored
// here.
// ElapsedUS on every item is the whole request's service time, which is
// also the latency every raced item is checked against for the
// slow-query log.
func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request, started time.Time, body []byte) {
	var reqs []SearchRequest
	if err := strictDecode(body, &reqs); err != nil {
		s.failures.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if len(reqs) == 0 {
		s.failures.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "batch contains no queries"})
		return
	}
	if len(reqs) > MaxBatchQueries {
		s.failures.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("batch of %d queries exceeds the %d-query limit", len(reqs), MaxBatchQueries)})
		return
	}
	topKs := make([]int, len(reqs))
	opts := make([][]racelogic.Option, len(reqs))
	for i := range reqs {
		var err error
		if topKs[i], opts[i], err = s.normalize(&reqs[i], fmt.Sprintf("query %d: ", i)); err != nil {
			s.failures.Add(1)
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
	}
	s.batches.Add(1)
	s.batchQueries.Add(int64(len(reqs)))

	version := s.db.Version()
	out := make([]*SearchResponse, len(reqs))
	raced := make([]*racelogic.SearchReport, len(reqs)) // nil for cache hits
	groups := make(map[string][]int)
	var order []string
	for i := range reqs {
		key := cacheKey(version, reqs[i].Query, topKs[i], reqs[i].Threshold, reqs[i].FullScan)
		if cached, ok := s.cache.get(key); ok {
			s.cacheHits.Add(1)
			cached.Cached = true
			out[i] = cached
			continue
		}
		gk := batchKey(topKs[i], reqs[i].Threshold, reqs[i].FullScan)
		if _, seen := groups[gk]; !seen {
			order = append(order, gk)
		}
		groups[gk] = append(groups[gk], i)
	}
	for _, gk := range order {
		idxs := groups[gk]
		queries := make([]string, len(idxs))
		for j, i := range idxs {
			queries[j] = reqs[i].Query
		}
		reps, err := s.db.SearchBatchContext(r.Context(), queries, opts[idxs[0]]...)
		if err != nil {
			s.failures.Add(1)
			var be *racelogic.BatchError
			if errors.As(err, &be) {
				// Name the failing item by its position in the request
				// array, not its slot within this option group.
				err = fmt.Errorf("query %d: %w", idxs[be.Query], be.Err)
			}
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		for j, i := range idxs {
			resp := toResponse(reps[j])
			s.cache.add(cacheKey(version, reqs[i].Query, topKs[i], reqs[i].Threshold, reqs[i].FullScan), resp)
			out[i], raced[i] = resp, reps[j]
		}
	}
	elapsed := time.Since(started)
	final := make([]SearchResponse, len(out))
	for i, resp := range out {
		final[i] = *resp
		final[i].ElapsedUS = elapsed.Microseconds()
		if raced[i] != nil {
			s.noteSlow(reqs[i].Query, elapsed, raced[i], nil)
		}
	}
	writeJSON(w, http.StatusOK, final)
}

// cacheKey encodes a request's full identity, prefixed by the database
// version it would search.  The numeric fields form fixed-format
// segments that never contain '\x00', so distinct requests never
// collide even if a query embeds the separator.
func cacheKey(version int64, query string, topK int, threshold *int64, fullScan bool) string {
	t := "off"
	if threshold != nil {
		t = fmt.Sprint(*threshold)
	}
	return fmt.Sprintf("%d\x00%s\x00%d\x00%s\x00%v", version, query, topK, t, fullScan)
}

func toResponse(rep *racelogic.SearchReport) *SearchResponse {
	resp := &SearchResponse{
		Query:        rep.Query,
		Version:      rep.Version,
		Results:      make([]SearchResult, len(rep.Results)),
		Scanned:      rep.Scanned,
		Skipped:      rep.Skipped,
		Matched:      rep.Matched,
		Rejected:     rep.Rejected,
		Buckets:      rep.Buckets,
		EnginesBuilt: rep.EnginesBuilt,
		TotalCycles:  rep.TotalCycles,
		TotalEnergyJ: rep.TotalEnergyJ,
	}
	for i, r := range rep.Results {
		resp.Results[i] = SearchResult{
			Index:    r.Index,
			ID:       r.ID,
			Sequence: r.Sequence,
			Score:    r.Score,
			Metrics: SearchMetrics{
				Cycles:           r.Metrics.Cycles,
				LatencyNS:        r.Metrics.LatencyNS,
				EnergyJ:          r.Metrics.EnergyJ,
				AreaUM2:          r.Metrics.AreaUM2,
				PowerDensityWCM2: r.Metrics.PowerDensityWCM2,
			},
		}
	}
	return resp
}

// InsertRequest is the POST /entries body.
type InsertRequest struct {
	// Entries are the sequences to add.  They are case-normalized like
	// the database loaders' sequences and validated against the engine
	// alphabet; on any invalid entry nothing is inserted.
	Entries []string `json:"entries"`
}

// MutationResponse is the reply to POST /entries and DELETE
// /entries/{id}: the IDs touched, plus the database's new shape.
type MutationResponse struct {
	// IDs are the stable identifiers assigned (insert) or deleted
	// (remove), in request order.
	IDs []uint64 `json:"ids"`
	// Entries is the live entry count and Version the mutation counter
	// after this mutation.
	Entries int   `json:"entries"`
	Version int64 `json:"version"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req InsertRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = strictDecode(body, &req)
	}
	if err != nil {
		s.failures.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if len(req.Entries) == 0 {
		s.failures.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "entries is required"})
		return
	}
	for i, entry := range req.Entries {
		// The same DoS guard as queries: arrays are O(query·entry) gates,
		// so an unbounded entry is as dangerous as an unbounded query.
		if len(entry) > s.maxQueryLen {
			s.failures.Add(1)
			writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("entry %d length %d exceeds the %d-symbol limit", i, len(entry), s.maxQueryLen)})
			return
		}
		req.Entries[i] = strings.ToUpper(entry)
	}
	ids, err := s.db.Insert(req.Entries...)
	if err != nil {
		s.failures.Add(1)
		writeJSON(w, mutationStatus(err), errorResponse{Error: err.Error()})
		return
	}
	s.mutations.Add(1)
	writeJSON(w, http.StatusOK, MutationResponse{IDs: ids, Entries: s.db.Len(), Version: s.db.Version()})
}

// maxBulkBytes bounds one /entries/bulk upload.  The body streams
// through a scanner rather than being buffered, so this guards disk and
// index growth per request, not memory.
const maxBulkBytes = 256 << 20

// bulkBatch is how many streamed entries land per Database.Insert call:
// each batch is one journaled multi-insert record in the write-ahead
// log and one copy-on-write snapshot publish, so a million-entry upload
// costs thousands, not millions, of journal syncs and index copies.
const bulkBatch = 512

// BulkInsertResponse is the POST /entries/bulk reply.  Batches are
// atomic but the upload as a whole is not: on a mid-stream error the
// response reports how much landed (every landed batch is journaled
// and therefore durable) alongside the error.
type BulkInsertResponse struct {
	// Inserted counts the entries that landed; Batches the journaled
	// multi-insert records they landed in.
	Inserted int `json:"inserted"`
	Batches  int `json:"batches"`
	// FirstID and LastID bracket the assigned stable IDs when the
	// upload was the only writer; concurrent inserts may interleave.
	FirstID *uint64 `json:"first_id,omitempty"`
	LastID  *uint64 `json:"last_id,omitempty"`
	// Entries is the live entry count and Version the mutation counter
	// after the upload.
	Entries int    `json:"entries"`
	Version int64  `json:"version"`
	Error   string `json:"error,omitempty"`
}

// handleBulkInsert streams a corpus upload — NDJSON (one JSON string
// per line, Content-Type application/x-ndjson) or FASTA / plain text,
// auto-detected — into the database in journaled batches, without ever
// buffering the whole body.
func (s *Server) handleBulkInsert(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	body := http.MaxBytesReader(w, r.Body, maxBulkBytes)
	next := s.bulkSource(r, body)

	resp := &BulkInsertResponse{}
	fail := func(status int, msg string) {
		s.failures.Add(1)
		resp.Error = msg
		resp.Entries = s.db.Len()
		resp.Version = s.db.Version()
		writeJSON(w, status, resp)
	}
	batch := make([]string, 0, bulkBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		ids, err := s.db.Insert(batch...)
		if err != nil {
			return err
		}
		if resp.FirstID == nil {
			resp.FirstID = &ids[0]
		}
		resp.LastID = &ids[len(ids)-1]
		resp.Inserted += len(ids)
		resp.Batches++
		s.mutations.Add(1)
		batch = batch[:0]
		return nil
	}
	for {
		entry, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail(http.StatusBadRequest, "reading entry "+strconv.Itoa(resp.Inserted+len(batch))+": "+err.Error())
			return
		}
		if len(entry) > s.maxQueryLen {
			fail(http.StatusBadRequest, fmt.Sprintf("entry %d length %d exceeds the %d-symbol limit",
				resp.Inserted+len(batch), len(entry), s.maxQueryLen))
			return
		}
		batch = append(batch, strings.ToUpper(entry))
		if len(batch) == bulkBatch {
			if err := flush(); err != nil {
				fail(mutationStatus(err), err.Error())
				return
			}
		}
	}
	if err := flush(); err != nil {
		fail(mutationStatus(err), err.Error())
		return
	}
	if resp.Inserted == 0 {
		fail(http.StatusBadRequest, "upload contained no entries")
		return
	}
	resp.Entries = s.db.Len()
	resp.Version = s.db.Version()
	writeJSON(w, http.StatusOK, resp)
}

// bulkSource picks the per-entry decoder for an upload: NDJSON when the
// Content-Type says so, the FASTA/plain auto-detecting sequence scanner
// otherwise.
func (s *Server) bulkSource(r *http.Request, body io.Reader) func() (string, error) {
	ct := r.Header.Get("Content-Type")
	if mt, _, _ := strings.Cut(ct, ";"); strings.TrimSpace(mt) == "application/x-ndjson" {
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		return func() (string, error) {
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if line == "" {
					continue
				}
				var entry string
				if err := json.Unmarshal([]byte(line), &entry); err != nil {
					return "", fmt.Errorf("NDJSON line is not a JSON string: %w", err)
				}
				return entry, nil
			}
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.EOF
		}
	}
	sc := seqgen.NewScanner(body)
	return sc.Next
}

// CompactResponse is the POST /compact reply.  Entry IDs are the stable
// handle across compactions — clients should key on SearchResult.ID,
// never Index; Remap exists only so a client that cached slot indices
// can rebind them once.
type CompactResponse struct {
	// Version is the mutation counter after the compaction (unchanged
	// when nothing was reclaimed); Entries the live count.
	Version int64 `json:"version"`
	Entries int   `json:"entries"`
	// Reclaimed is the number of tombstoned slots dropped.
	Reclaimed int `json:"reclaimed"`
	// Remap maps every pre-compaction slot to its new slot, -1 for the
	// dropped tombstones.  Omitted when nothing was reclaimed.
	Remap []int `json:"remap,omitempty"`
}

// handleCompact is the manual admin trigger: compact now, regardless of
// the automatic policy, and report the slot remap.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	st, err := s.db.Compact()
	if err != nil {
		s.failures.Add(1)
		// Compact takes no client input: anything not classified is
		// still the server's problem, never a 400.
		status := mutationStatus(err)
		if status == http.StatusBadRequest {
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	if st.Reclaimed > 0 {
		s.mutations.Add(1)
	}
	writeJSON(w, http.StatusOK, CompactResponse{
		Version:   st.Version,
		Entries:   st.Live,
		Reclaimed: st.Reclaimed,
		Remap:     st.Remap,
	})
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		s.failures.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad entry id: " + r.PathValue("id")})
		return
	}
	if err := s.db.Remove(id); err != nil {
		s.failures.Add(1)
		status := mutationStatus(err)
		if errors.Is(err, racelogic.ErrUnknownID) {
			status = http.StatusNotFound
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	s.mutations.Add(1)
	writeJSON(w, http.StatusOK, MutationResponse{IDs: []uint64{id}, Entries: s.db.Len(), Version: s.db.Version()})
}

// HealthResponse is the GET /healthz reply.
type HealthResponse struct {
	Status  string `json:"status"`
	Entries int    `json:"entries"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Entries: s.db.Len()})
}

// StatsResponse is the GET /stats reply: database shape, durability
// state, per-shard gauges, and cumulative service counters.  The shape
// fields — Entries, Version, Tombstones, Buckets, and the Shards rows —
// are one consistent cut: they all come from the same atomically loaded
// database view, so Entries always sums the shard rows and Version is
// the view those counts belong to, even under concurrent mutation.
type StatsResponse struct {
	Entries    int   `json:"entries"`
	Version    int64 `json:"version"`
	Tombstones int   `json:"tombstones"`
	Buckets    int   `json:"buckets"`
	SeedK      int   `json:"seed_k"`
	ShardCount int   `json:"shard_count"`
	// GoVersion is the toolchain the serving binary was built with.
	GoVersion string `json:"go_version"`
	// Backend names the simulation engine the database races on:
	// "cycle" (the reference simulator) or "event" (the event-driven
	// fast path).
	Backend       string `json:"backend"`
	Searches      int64  `json:"searches"`
	Mutations     int64  `json:"mutations"`
	Compactions   int64  `json:"compactions"`
	EnginesBuilt  int64  `json:"engines_built"`
	PooledEngines int    `json:"pooled_engines"`
	Requests      int64  `json:"requests"`
	// Batches counts the array-form /search requests served;
	// BatchQueries the queries they carried between them.
	Batches       int64 `json:"batches"`
	BatchQueries  int64 `json:"batch_queries"`
	Failures      int64 `json:"failures"`
	CacheHits     int64 `json:"cache_hits"`
	CacheEntries  int   `json:"cache_entries"`
	CacheCapacity int   `json:"cache_capacity"`
	// MemoQueries and MemoOutcomes size the database's outcome memo:
	// the queries whose race outcomes it holds, and those outcomes.
	MemoQueries   int   `json:"memo_queries"`
	MemoOutcomes  int   `json:"memo_outcomes"`
	SlowQueries   int64 `json:"slow_queries"`
	UptimeSeconds int64 `json:"uptime_seconds"`
	// Durable reports whether mutations are journaled to a write-ahead
	// log; the WAL and snapshot fields below are zero when it is false.
	Durable bool `json:"durable"`
	// WALRecords and WALBytes measure the shard journals, one file per
	// shard, summed — what a restart reads after loading the snapshots.
	WALRecords int64 `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// Snapshots counts durable snapshot saves; SnapshotFailures the
	// background attempts that errored; SnapshotAgeSeconds the age of
	// the newest on-disk snapshot (-1 when not durable).
	Snapshots          int64   `json:"snapshots"`
	SnapshotFailures   int64   `json:"snapshot_failures"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	// Shards holds one gauge set per partition: entries, tombstones,
	// journal tail, and snapshot age, so an operator can see skew and
	// per-shard replay debt at a glance.
	Shards []racelogic.ShardStat `json:"shards"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only"})
		return
	}
	age := -1.0
	if s.db.Durable() {
		age = s.db.SnapshotAge().Seconds()
	}
	// One Stats() call pins one view: reading Len, Version, Tombstones,
	// and the shard rows through separate calls lets a concurrent
	// mutation land between them, tearing the reply (an entry count from
	// one version reported against another's shard rows).
	dbs := s.db.Stats()
	writeJSON(w, http.StatusOK, StatsResponse{
		Entries:            dbs.Entries,
		Version:            dbs.Version,
		Tombstones:         dbs.Tombstones,
		Buckets:            dbs.Buckets,
		SeedK:              s.db.SeedK(),
		ShardCount:         s.db.Shards(),
		GoVersion:          runtime.Version(),
		Backend:            s.db.Backend().String(),
		Searches:           s.db.Searches(),
		Mutations:          s.mutations.Load(),
		Compactions:        s.db.Compactions(),
		EnginesBuilt:       s.db.EnginesBuilt(),
		PooledEngines:      s.db.PooledEngines(),
		Requests:           s.requests.Load(),
		Batches:            s.batches.Load(),
		BatchQueries:       s.batchQueries.Load(),
		Failures:           s.failures.Load(),
		CacheHits:          s.cacheHits.Load(),
		CacheEntries:       s.cache.len(),
		CacheCapacity:      s.cache.capacity(),
		MemoQueries:        dbs.MemoQueries,
		MemoOutcomes:       dbs.MemoOutcomes,
		SlowQueries:        s.slowQueries.Load(),
		UptimeSeconds:      int64(time.Since(s.start).Seconds()),
		Durable:            s.db.Durable(),
		WALRecords:         s.db.WALRecords(),
		WALBytes:           s.db.WALBytes(),
		Snapshots:          s.db.Snapshots(),
		SnapshotFailures:   s.db.SnapshotFailures(),
		SnapshotAgeSeconds: age,
		Shards:             dbs.Shards,
	})
}
