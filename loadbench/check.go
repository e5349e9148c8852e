package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"

	"racelogic/internal/align"
	"racelogic/internal/obs"
	"racelogic/internal/score"
	"racelogic/internal/server"
)

// outcome is what one checked reply contributes to the run's figures.
type outcome struct {
	queries      int     // searches answered (batch items count singly)
	cycles       int     // modelled race cycles summed over those queries
	energyJ      float64 // modelled dynamic energy summed over them
	scanned      int     // candidates raced
	cached       int     // queries answered from the report cache
	cachedUS     int64   // server-side elapsed_us summed over cached queries
	enginesBuilt int
	mutations    int              // inserts and removes acknowledged
	trace        *obs.TraceReport // single searches sent with ?trace=1
}

// answer is the part of a search reply that must repeat exactly.
type answer struct {
	ids     []uint64
	scores  []int64
	cycles  int
	energyJ float64
}

func (a answer) equal(b answer) bool {
	return slices.Equal(a.ids, b.ids) && slices.Equal(a.scores, b.scores) &&
		a.cycles == b.cycles && a.energyJ == b.energyJ
}

// checker validates every reply.  On read-only workloads it also keeps
// the first answer to each query, which every repeat must match.
type checker struct {
	entries  map[uint64]string // known sequence per ID; nil skips the check
	readOnly bool
	// inserted holds every sequence the window inserts: a result with
	// an ID assigned during the window must be one of them.
	inserted map[string]bool

	mu    sync.Mutex
	first map[string]answer
}

// newChecker checks replies for in; entries, when not nil, overrides
// the corpus as the ID→sequence map (a recovered crash image).
func newChecker(in *inputs, entries map[uint64]string) *checker {
	c := &checker{readOnly: in.readOnly, first: make(map[string]answer), inserted: make(map[string]bool)}
	for _, r := range in.seq {
		if r.op == opInsert {
			c.inserted[r.entry] = true
		}
	}
	switch {
	case entries != nil:
		c.entries = entries
	case in.durable == nil:
		c.entries = make(map[uint64]string, len(in.corpus))
		for i, e := range in.corpus {
			c.entries[uint64(i)] = e
		}
	}
	return c
}

// check validates one reply: the status, a strict decode, and the
// shape of every search report.
func (c *checker) check(r request, status int, body []byte) (outcome, error) {
	if status != 200 {
		return outcome{}, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	switch r.op {
	case opSearch:
		var resp server.SearchResponse
		if err := decodeStrict(body, &resp); err != nil {
			return outcome{}, err
		}
		return c.checkSearch(r.queries[0], &resp)
	case opBatch:
		var resps []server.SearchResponse
		if err := decodeStrict(body, &resps); err != nil {
			return outcome{}, err
		}
		if len(resps) != len(r.queries) {
			return outcome{}, fmt.Errorf("batch of %d queries answered with %d reports", len(r.queries), len(resps))
		}
		var sum outcome
		for i := range resps {
			out, err := c.checkSearch(r.queries[i], &resps[i])
			if err != nil {
				return outcome{}, fmt.Errorf("batch item %d: %w", i, err)
			}
			sum.add(out)
		}
		// Every item carries the whole batch's engine builds.
		sum.enginesBuilt = resps[0].EnginesBuilt
		return sum, nil
	default:
		var resp server.MutationResponse
		if err := decodeStrict(body, &resp); err != nil {
			return outcome{}, err
		}
		if len(resp.IDs) != 1 || (r.op == opRemove && resp.IDs[0] != r.id) {
			return outcome{}, fmt.Errorf("mutation answered with ids %v", resp.IDs)
		}
		return outcome{mutations: 1}, nil
	}
}

func (o *outcome) add(p outcome) {
	o.queries += p.queries
	o.cycles += p.cycles
	o.energyJ += p.energyJ
	o.scanned += p.scanned
	o.cached += p.cached
	o.cachedUS += p.cachedUS
	o.enginesBuilt += p.enginesBuilt
	o.mutations += p.mutations
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	return nil
}

func (c *checker) checkSearch(query string, resp *server.SearchResponse) (outcome, error) {
	if resp.Query != query {
		return outcome{}, fmt.Errorf("reply is for query %q, sent %q", resp.Query, query)
	}
	if len(resp.Results) > topK || resp.Matched < len(resp.Results) || resp.Scanned < resp.Matched {
		return outcome{}, fmt.Errorf("query %s: %d results, %d matched, %d scanned", query,
			len(resp.Results), resp.Matched, resp.Scanned)
	}
	a := answer{cycles: resp.TotalCycles, energyJ: resp.TotalEnergyJ}
	for i, res := range resp.Results {
		if i > 0 {
			prev := resp.Results[i-1]
			if res.Score < prev.Score || (res.Score == prev.Score && res.ID <= prev.ID) {
				return outcome{}, fmt.Errorf("query %s: results out of (score, id) order at rank %d", query, i)
			}
		}
		if c.entries != nil {
			want, ok := c.entries[res.ID]
			if (ok && want != res.Sequence) || (!ok && !c.inserted[res.Sequence]) {
				return outcome{}, fmt.Errorf("query %s: result id %d is not the entry %q", query, res.ID, res.Sequence)
			}
		}
		a.ids = append(a.ids, res.ID)
		a.scores = append(a.scores, res.Score)
	}
	if resp.TotalCycles <= 0 || resp.TotalEnergyJ <= 0 {
		return outcome{}, fmt.Errorf("query %s: modelled totals %d cycles, %g J", query, resp.TotalCycles, resp.TotalEnergyJ)
	}
	if c.readOnly {
		c.mu.Lock()
		prev, seen := c.first[query]
		if !seen {
			c.first[query] = a
		}
		c.mu.Unlock()
		if seen && !prev.equal(a) {
			return outcome{}, fmt.Errorf("query %s: repeat answered %v/%v (%d cycles, %g J), first answer %v/%v (%d cycles, %g J)",
				query, a.ids, a.scores, a.cycles, a.energyJ, prev.ids, prev.scores, prev.cycles, prev.energyJ)
		}
	}
	out := outcome{
		queries:      1,
		cycles:       resp.TotalCycles,
		energyJ:      resp.TotalEnergyJ,
		scanned:      resp.Scanned,
		enginesBuilt: resp.EnginesBuilt,
		trace:        resp.Trace,
	}
	if resp.Cached {
		out.cached = 1
		out.cachedUS = resp.ElapsedUS
	}
	return out, nil
}

// checkReference compares a decoded search reply with the software DP
// reference: every returned score must equal align.Global under the
// Fig. 4 matrix on the returned entry, and when the whole corpus was
// scanned the returned ranking must be the reference top-K.
func checkReference(query string, resp *server.SearchResponse, corpus map[uint64]string, fullScan bool) error {
	m := score.DNAShortestInf()
	for _, res := range resp.Results {
		ref, err := align.Global(query, res.Sequence, m)
		if err != nil {
			return err
		}
		if int64(ref.Score) != res.Score {
			return fmt.Errorf("query %s, entry %d: score %d, DP reference %d", query, res.ID, res.Score, ref.Score)
		}
	}
	if !fullScan {
		return nil
	}
	type ranked struct {
		id    uint64
		score int64
	}
	ids := make([]uint64, 0, len(corpus))
	for id := range corpus {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	all := make([]ranked, 0, len(ids))
	for _, id := range ids {
		ref, err := align.Global(query, corpus[id], m)
		if err != nil {
			return err
		}
		all = append(all, ranked{id, int64(ref.Score)})
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score < all[j].score
		}
		return all[i].id < all[j].id
	})
	if len(all) > topK {
		all = all[:topK]
	}
	if len(all) != len(resp.Results) {
		return fmt.Errorf("query %s: %d results, DP reference ranks %d", query, len(resp.Results), len(all))
	}
	for i, want := range all {
		got := resp.Results[i]
		if got.ID != want.id || got.Score != want.score {
			return fmt.Errorf("query %s, rank %d: entry %d score %d, DP reference entry %d score %d",
				query, i, got.ID, got.Score, want.id, want.score)
		}
	}
	return nil
}
