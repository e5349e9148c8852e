package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"racelogic/internal/obs"
)

// span is one interval of a traced request.  Spans of one request share
// its id; parent names the enclosing span (0 for the client round
// trip).  Inferred spans come from durations the program reported in
// its trace: they are laid back to back from their parent's start, so
// only their lengths are measured.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Request  int                `json:"request"`
	Name     string             `json:"name"`
	StartUS  float64            `json:"start_us"`
	EndUS    float64            `json:"end_us"`
	Inferred bool               `json:"inferred,omitempty"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

// tracedRequest is what the client side of one traced request saw.
type tracedRequest struct {
	id    int
	op    op
	sent  time.Time
	rtt   time.Duration
	trace *obs.TraceReport
}

// recorder keeps a traced window's spans in memory: client round trips,
// server spans taken around server.Server.ServeHTTP by a wrapping
// handler, and the program's own per-query trace reports.
type recorder struct {
	mu     sync.Mutex
	began  time.Time
	reqs   []tracedRequest
	served map[int][2]time.Time // request id → ServeHTTP interval
}

func newRecorder() *recorder { return &recorder{served: make(map[int][2]time.Time)} }

func (r *recorder) begin(t time.Time) { r.began = t }

// wrap times every request the handler serves that carries a request id.
func (r *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, _ := strconv.Atoi(req.Header.Get(requestHeader)) // untagged requests get id 0
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		if id > 0 {
			r.mu.Lock()
			r.served[id] = [2]time.Time{start, end}
			r.mu.Unlock()
		}
	})
}

func (r *recorder) client(id int, req request, sent time.Time, rtt time.Duration, tr *obs.TraceReport) {
	r.mu.Lock()
	r.reqs = append(r.reqs, tracedRequest{id: id, op: req.op, sent: sent, rtt: rtt, trace: tr})
	r.mu.Unlock()
}

// ops returns the kind of every recorded request by id.
func (r *recorder) ops() map[int]op {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[int]op, len(r.reqs))
	for _, q := range r.reqs {
		m[q.id] = q.op
	}
	return m
}

// layerNames maps the program's trace span names to layer names.
var layerNames = map[string]string{
	"seed":  "index.seed",
	"plan":  "pipeline.plan",
	"race":  "pipeline.race",
	"merge": "pipeline.merge",
}

// spans assembles every recorded request into its span tree, in
// request order.
func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Slice(r.reqs, func(i, j int) bool { return r.reqs[i].id < r.reqs[j].id })
	us := func(t time.Time) float64 { return float64(t.Sub(r.began).Nanoseconds()) / 1e3 }
	var out []span
	add := func(s span) int {
		s.ID = len(out) + 1
		out = append(out, s)
		return s.ID
	}
	for _, q := range r.reqs {
		clientID := add(span{Request: q.id, Name: "client", StartUS: us(q.sent), EndUS: us(q.sent.Add(q.rtt))})
		iv, ok := r.served[q.id]
		if !ok {
			continue
		}
		serverID := add(span{Parent: clientID, Request: q.id, Name: "server", StartUS: us(iv[0]), EndUS: us(iv[1])})
		if q.trace == nil {
			continue
		}
		start := us(iv[0])
		searchID := add(span{Parent: serverID, Request: q.id, Name: "racelogic.search", StartUS: start,
			EndUS: start + float64(q.trace.DurationUS), Inferred: true})
		for _, ph := range q.trace.Spans {
			name, ok := layerNames[ph.Name]
			if !ok {
				name = "racelogic." + ph.Name
			}
			s := span{Parent: searchID, Request: q.id, Name: name, StartUS: start,
				EndUS: start + float64(ph.DurationUS), Inferred: true}
			if ph.Name == "race" {
				s.Attrs = shardAttrs(q.trace.Shards)
			}
			add(s)
			start = s.EndUS
		}
	}
	return out
}

// shardAttrs flattens the per-shard counts of a trace report.
func shardAttrs(shards []obs.ShardTrace) map[string]float64 {
	a := make(map[string]float64)
	for _, sh := range shards {
		p := "shard" + strconv.Itoa(sh.Shard) + "."
		a[p+"scanned"] = float64(sh.Scanned)
		a[p+"skipped"] = float64(sh.Skipped)
		a[p+"chunks"] = float64(sh.Chunks)
		a[p+"checkouts"] = float64(sh.EngineCheckouts)
		a[p+"engines_built"] = float64(sh.EnginesBuilt)
		a[p+"checkout_wait_us"] = float64(sh.CheckoutWaitUS)
		a[p+"race_us"] = float64(sh.RaceUS)
		a[p+"cycles"] = float64(sh.Cycles)
		a[p+"energy_pj"] = sh.EnergyJ * 1e12
	}
	return a
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// spanLayers derives per-layer figures from a traced window's span
// trees: means per request of the kind each layer serves.
func spanLayers(spans []span, reqs map[int]op) map[string]float64 {
	type acc struct {
		sum float64
		n   int
	}
	m := map[string]*acc{}
	note := func(name string, v float64) {
		a := m[name]
		if a == nil {
			a = &acc{}
			m[name] = a
		}
		a.sum += v
		a.n++
	}
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for _, s := range spans {
		d := s.EndUS - s.StartUS
		switch s.Name {
		case "server":
			switch reqs[s.Request] {
			case opInsert:
				note("racelogic.insert_us", d)
			case opRemove:
				note("racelogic.remove_us", d)
			default:
				note("server.serve_us", d)
			}
			note("server.wire_us", byID[s.Parent].EndUS-byID[s.Parent].StartUS-d)
		case "racelogic.search":
			note("racelogic.search_us", d)
			note("server.self_us", byID[s.Parent].EndUS-byID[s.Parent].StartUS-d)
		case "index.seed", "pipeline.plan", "pipeline.merge", "pipeline.race":
			note(s.Name+"_us", d)
			if s.Name == "pipeline.race" {
				keys := make([]string, 0, len(s.Attrs))
				for k := range s.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				var chunks, checkouts, wait float64
				for _, k := range keys {
					v := s.Attrs[k]
					switch {
					case strings.HasSuffix(k, ".chunks"):
						chunks += v
					case strings.HasSuffix(k, ".checkouts"):
						checkouts += v
					case strings.HasSuffix(k, ".checkout_wait_us"):
						wait += v
					}
				}
				note("pipeline.chunks_per_query", chunks)
				note("pipeline.checkouts_per_query", checkouts)
				note("pipeline.checkout_wait_us", wait)
			}
		}
	}
	out := make(map[string]float64, len(m))
	for name, a := range m {
		out[name] = a.sum / float64(a.n)
	}
	return out
}
