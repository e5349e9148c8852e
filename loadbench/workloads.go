package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"racelogic"
	"racelogic/internal/seqgen"
	"racelogic/internal/server"
)

// Every workload races on the lanes backend over two shards, so the
// figures describe the deployed service and do not move with the
// host's core count.  Cache size and top-K are raceserve's defaults.
const (
	shards    = 2
	cacheSize = 128
	topK      = 10
	queryLen  = 24
	clients   = 2 // closed-loop clients, one keep-alive connection each
)

// Sizes of the seeded corpus and its durable database.
const (
	seededEntries = 20000
	seedK         = 8
	popularSet    = 640  // distinct seeded queries: five times the cache
	zipfS         = 1.01 // popularity skew over the popular set: read-only,
	zipfV         = 50   // about a third of requests would hit the cache
	journalTail   = 200  // mutations in the mixed-durable crash image
	snapshotEvery = 256  // mutation-count snapshot trigger, above the tail
	batchSize     = 16   // queries per batch-lanes request
)

// Warm-up runs in rounds of warmupPerClient requests from each client
// and ends once warmupQuiet rounds in a row compiled no engine.  Set-up
// fails if engines are still being compiled after warmupRounds rounds.
const (
	warmupPerClient = 2
	warmupQuiet     = 3
	warmupRounds    = 40
	warmupRequests  = warmupRounds * clients * warmupPerClient
)

// op is the kind of one HTTP request.
type op int

const (
	opSearch op = iota // POST /search with one query
	opBatch            // POST /search with an array of queries
	opInsert           // POST /entries with one entry
	opRemove           // DELETE /entries/{id}
)

// request is one pre-generated HTTP request.
type request struct {
	op      op
	queries []string // opSearch: one; opBatch: batchSize
	entry   string   // opInsert
	id      uint64   // opRemove
	body    []byte   // pre-encoded body; nil for opRemove
}

func searchRequest(q string) request {
	body, _ := json.Marshal(server.SearchRequest{Query: q}) // a plain struct always encodes
	return request{op: opSearch, queries: []string{q}, body: body}
}

func batchRequest(qs []string) request {
	items := make([]server.SearchRequest, len(qs))
	for i, q := range qs {
		items[i] = server.SearchRequest{Query: q}
	}
	body, _ := json.Marshal(items)
	return request{op: opBatch, queries: qs, body: body}
}

func insertRequest(entry string) request {
	body, _ := json.Marshal(server.InsertRequest{Entries: []string{entry}})
	return request{op: opInsert, entry: entry, body: body}
}

func removeRequest(id uint64) request {
	return request{op: opRemove, id: id}
}

// target returns the request's method and path.  trace asks a single
// search for the program's own per-shard trace report.
func (r request) target(trace bool) (method, path string) {
	switch r.op {
	case opInsert:
		return "POST", "/entries"
	case opRemove:
		return "DELETE", "/entries/" + strconv.FormatUint(r.id, 10)
	case opSearch:
		if trace {
			return "POST", "/search?trace=1"
		}
	}
	return "POST", "/search"
}

// inputs is everything one workload run sends, generated from the seed
// before any timing starts.
type inputs struct {
	corpus    []string           // entry with ID i is corpus[i]
	dbOpts    []racelogic.Option // NewDatabase options
	seedK     int                // 0 = no seed index
	laneWidth int
	fullScan  bool // results can be checked against a DP ranking of the whole corpus
	readOnly  bool // every repeat of a query must return its first answer

	// durable, when set, turns the corpus into a crash image the
	// service recovers from instead of building it in memory.
	durable *durableSpec

	warmup []request // searches the timed window never sends
	sample []request // checked against the DP reference before the window
	// seq is the timed sequence.  A window sends it in order; a
	// read-only window that reaches its end starts over, a mutating one
	// stops there.
	seq []request
	// simPrefix is how many leading requests of seq the modelled
	// cycle and energy figures are taken over.
	simPrefix int
}

// durableSpec describes the mixed-durable crash image: the corpus
// persisted as a snapshot, then tail journaled on top of it.
type durableSpec struct {
	tail []request
}

// workload is one traffic mix.  why says what the workload is there to
// show; it is repeated in BENCHMARK.json.
type workload struct {
	name     string
	why      string
	property string // the input property the run reports
	gen      func(seed int64) *inputs
}

var workloads = []*workload{
	{
		name:     "batch-lanes",
		why:      "16-query array requests at lane width 256: the only workload on the cross-query coalescing path (MultiSearchBatch, AlignLanesMulti)",
		property: "mean lane fill",
		gen:      genBatch,
	},
	{
		name:     "mixed-durable",
		why:      "seeded traffic with 10% inserts and 5% removes on a fsynced WAL with count-triggered checkpoints, recovered from a crash image",
		property: "write share and journal tail",
		gen:      genMixed,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// distinctQueries draws n random queries that differ from each other
// and from every string in taken, adding them to taken.
func distinctQueries(g *seqgen.Generator, n int, taken map[string]bool) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		q := g.Random(queryLen)
		if !taken[q] {
			taken[q] = true
			out = append(out, q)
		}
	}
	return out
}

func searches(qs []string) []request {
	out := make([]request, len(qs))
	for i, q := range qs {
		out[i] = searchRequest(q)
	}
	return out
}

func batches(qs []string) []request {
	out := make([]request, 0, len(qs)/batchSize)
	for len(qs) >= batchSize {
		out = append(out, batchRequest(qs[:batchSize]))
		qs = qs[batchSize:]
	}
	return out
}

// genBatch: 48 entries in adjacent buckets 23, 24 and 25 — 16 queries
// times 16 entries fill one 256-lane pack per shape, where one query
// alone fills a sixteenth of it — and a stream of distinct queries cut
// into 16-query array requests.
func genBatch(seed int64) *inputs {
	g := seqgen.NewDNA(seed)
	var corpus []string
	for _, m := range []int{23, 24, 25} {
		corpus = append(corpus, g.Database(16, m)...)
	}
	taken := map[string]bool{}
	return &inputs{
		corpus:    corpus,
		dbOpts:    engineOptions(256),
		laneWidth: 256,
		fullScan:  true,
		readOnly:  true,
		warmup:    batches(distinctQueries(g, warmupRequests*batchSize, taken)),
		sample:    batches(distinctQueries(g, batchSize, taken)),
		seq:       batches(distinctQueries(g, 4000*batchSize, taken)),
		simPrefix: 128,
	}
}

// seededStream is the corpus and query stream of mixed-durable: 20k
// length-24 entries, a popular set of entries with two substitutions
// each (about 70 seed candidates), and draws from it with Zipf-skewed
// popularity.
type seededStream struct {
	g      *seqgen.Generator
	rng    *rand.Rand
	corpus []string
	warmup []string
	sample []string
	zipf   *rand.Zipf
	set    []string
}

func newSeededStream(seed int64) *seededStream {
	s := &seededStream{g: seqgen.NewDNA(seed), rng: rand.New(rand.NewSource(seed))}
	s.corpus = s.g.Database(seededEntries, queryLen)
	taken := map[string]bool{}
	mutated := func(n int) []string {
		out := make([]string, 0, n)
		for len(out) < n {
			q, err := s.g.Mutate(s.corpus[s.rng.Intn(len(s.corpus))], 2, 0, 0)
			if err != nil {
				panic(err) // 2 substitutions always fit a length-24 entry
			}
			if !taken[q] {
				taken[q] = true
				out = append(out, q)
			}
		}
		return out
	}
	s.set = mutated(popularSet)
	s.warmup = mutated(warmupRequests)
	s.sample = mutated(8)
	s.zipf = rand.NewZipf(s.rng, zipfS, zipfV, popularSet-1)
	return s
}

func (s *seededStream) next() string { return s.set[s.zipf.Uint64()] }

// genMixed: the seeded corpus and stream on a durable database.  The
// crash image journals journalTail mutations (two inserts per remove)
// over the snapshot; the timed sequence repeats a shuffled block of 17
// searches, 2 inserts and 1 remove.  Removed IDs come from one
// permutation of the corpus IDs, so none is removed twice.
func genMixed(seed int64) *inputs {
	s := newSeededStream(seed)
	victims := s.rng.Perm(len(s.corpus))
	taken := map[string]bool{}
	for _, e := range s.corpus {
		taken[e] = true
	}
	newEntry := func() string { return distinctQueries(s.g, 1, taken)[0] }
	nextVictim := func() uint64 {
		id := uint64(victims[0])
		victims = victims[1:]
		return id
	}
	tail := make([]request, journalTail)
	for i := range tail {
		if i%3 == 2 {
			tail[i] = removeRequest(nextVictim())
		} else {
			tail[i] = insertRequest(newEntry())
		}
	}
	block := make([]op, 0, 20)
	for i := 0; i < 17; i++ {
		block = append(block, opSearch)
	}
	block = append(block, opInsert, opInsert, opRemove)
	seq := make([]request, 0, 40000)
	for len(seq) < cap(seq) {
		s.rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for _, o := range block {
			switch o {
			case opSearch:
				seq = append(seq, searchRequest(s.next()))
			case opInsert:
				seq = append(seq, insertRequest(newEntry()))
			default:
				seq = append(seq, removeRequest(nextVictim()))
			}
		}
	}
	return &inputs{
		corpus:    s.corpus,
		dbOpts:    append(engineOptions(64), racelogic.WithSeedIndex(seedK)),
		seedK:     seedK,
		laneWidth: 64,
		durable:   &durableSpec{tail: tail},
		warmup:    searches(s.warmup),
		sample:    searches(s.sample),
		seq:       seq,
		simPrefix: 768,
	}
}

func engineOptions(laneWidth int) []racelogic.Option {
	return []racelogic.Option{
		racelogic.WithBackend(racelogic.BackendLanes),
		racelogic.WithLaneWidth(laneWidth),
		racelogic.WithShards(shards),
	}
}
