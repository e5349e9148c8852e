package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"racelogic/internal/server"
)

// window is the result of one timed closed-loop window.
type window struct {
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
	lat       []time.Duration // completed requests only
	done      []time.Duration // when each of them completed, since the start
	sum       outcome         // summed over every checked reply
	// sim holds the modelled figures of the first simPrefix requests
	// of the sequence, by sequence position.
	sim []outcome
}

// minSamples is the fewest requests an end-to-end window sends: p99
// needs ten samples beyond it.  A host too slow to send them within the
// window's duration keeps the window open until it has.
const minSamples = 1000 // at least every workload's simPrefix

// runWindow drives the service with a closed loop of clients: each
// sends its next request as soon as the previous reply is in, taking
// the next position of the shared sequence, until dur has passed and
// at least atLeast requests were sent.  Every reply is checked; a
// failed request counts as beyond any latency percentile.  rec, when
// set, records client spans and asks single searches for the
// program's trace.
func runWindow(s *service, in *inputs, chk *checker, dur time.Duration, atLeast int64, rec *recorder) *window {
	cl := newClients(s.base)
	defer closeClients(cl)
	w := &window{sim: make([]outcome, in.simPrefix)}
	var cursor atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	began := time.Now()
	if rec != nil {
		rec.begin(began)
	}
	for c := range cl {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var lat, done []time.Duration
			var sum outcome
			failed, attempted := 0, 0
			var firstErr error
			for time.Since(began) < dur || cursor.Load() < atLeast {
				pos := int(cursor.Add(1) - 1)
				if !in.readOnly && pos >= len(in.seq) {
					break // a second pass would remove IDs already removed
				}
				r := in.seq[pos%len(in.seq)]
				id := 0
				if rec != nil {
					id = pos + 1
				}
				sent := time.Now()
				status, body, rtt, err := c.do(r, rec != nil, id)
				var out outcome
				if err == nil {
					out, err = chk.check(r, status, body)
				}
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("request %d: %w", pos, err)
					}
					continue
				}
				lat = append(lat, rtt)
				done = append(done, sent.Add(rtt).Sub(began))
				sum.add(out)
				if pos < len(w.sim) {
					w.sim[pos] = out // each position is handed to one client only
				}
				if rec != nil {
					rec.client(id, r, sent, rtt, out.trace)
				}
			}
			mu.Lock()
			w.lat = append(w.lat, lat...)
			w.done = append(w.done, done...)
			w.sum.add(sum)
			w.attempted += attempted
			w.failed += failed
			if w.firstErr == nil {
				w.firstErr = firstErr
			}
			mu.Unlock()
		}(cl[c])
	}
	wg.Wait()
	w.elapsed = time.Since(began)
	return w
}

// opsPerSecond counts completed requests over the window.
func (w *window) opsPerSecond() float64 {
	return float64(len(w.lat)) / w.elapsed.Seconds()
}

// windowSlices is how many equal parts of the window the slice medians are
// taken over.  The host's speed drifts on a scale of seconds; a median
// over slices keeps one slow stretch from moving the figure.
const windowSlices = 10

// sliced splits the completed requests into slices by completion time
// and returns each slice's request rate and median latency in ms.
func (w *window) sliced() (rates, p50s []float64) {
	width := w.elapsed / windowSlices
	parts := make([][]time.Duration, windowSlices)
	for i, t := range w.done {
		k := int(t / width)
		if k >= windowSlices {
			k = windowSlices - 1
		}
		parts[k] = append(parts[k], w.lat[i])
	}
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
		rates = append(rates, float64(len(p))/width.Seconds())
		p50s = append(p50s, float64(p[(len(p)-1)/2].Nanoseconds())/1e6)
	}
	return rates, p50s
}

// percentile returns the latency at quantile q in milliseconds and
// whether at least ten samples lie beyond it.  A failed request counts
// as slower than every completed one, at the client timeout.
func (w *window) percentile(q float64) (float64, bool) {
	n := len(w.lat) + w.failed
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 || n-rank < 10 {
		return 0, false
	}
	if rank > len(w.lat) {
		return float64(clientTimeout.Milliseconds()), true
	}
	sorted := append([]time.Duration(nil), w.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return float64(sorted[rank-1].Nanoseconds()) / 1e6, true
}

// simPerQuery returns the modelled cycles and picojoules per query over
// the sequence's first simPrefix requests.  Mutations carry none.
func (w *window) simPerQuery() (cycles, pj float64, err error) {
	if w.attempted < len(w.sim) {
		return 0, 0, fmt.Errorf("the window sent %d requests, fewer than the %d the modelled figures are taken over",
			w.attempted, len(w.sim))
	}
	var sum outcome
	for _, out := range w.sim {
		sum.add(out)
	}
	if sum.queries == 0 {
		return 0, 0, fmt.Errorf("no search among the first %d requests", len(w.sim))
	}
	return float64(sum.cycles) / float64(sum.queries), sum.energyJ * 1e12 / float64(sum.queries), nil
}

// checkSample sends the workload's sample one request at a time and
// compares every returned score with the DP reference.
func checkSample(s *service, in *inputs, chk *checker, entries map[uint64]string) ([][]byte, error) {
	cl := newClients(s.base)
	defer closeClients(cl)
	var replies [][]byte
	for _, r := range in.sample {
		status, body, _, err := cl[0].do(r, false, 0)
		if err == nil {
			_, err = chk.check(r, status, body)
		}
		if err != nil {
			return nil, fmt.Errorf("sample: %w", err)
		}
		replies = append(replies, body)
		var resps []server.SearchResponse
		if r.op == opBatch {
			err = decodeStrict(body, &resps)
		} else {
			resps = make([]server.SearchResponse, 1)
			err = decodeStrict(body, &resps[0])
		}
		if err != nil {
			return nil, err
		}
		for i := range resps {
			if err := checkReference(r.queries[i], &resps[i], entries, in.fullScan); err != nil {
				return nil, fmt.Errorf("sample: %w", err)
			}
		}
	}
	return replies, nil
}
