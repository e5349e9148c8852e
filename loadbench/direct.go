package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"racelogic/internal/index"
	"racelogic/internal/race"
	"racelogic/internal/server"
	"racelogic/internal/tech"
	"racelogic/internal/temporal"
)

// minTimed is how long each direct-call measurement repeats its call.
const minTimed = 200 * time.Millisecond

// timeCalls runs fn over and over, cycling through n inputs, for at
// least minTimed and returns the mean time per call.
func timeCalls(n int, fn func(i int) error) (time.Duration, error) {
	calls := 0
	began := time.Now()
	for time.Since(began) < minTimed || calls < n {
		if err := fn(calls % n); err != nil {
			return 0, err
		}
		calls++
	}
	return time.Since(began) / time.Duration(calls), nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// directCalls times the layers no live request exposes, by calling
// their public functions on the workload's own inputs.  replies are the
// raw bodies of the sample's search replies.
func directCalls(in *inputs, replies [][]byte, img *crashImage, work string) (map[string]float64, error) {
	out := map[string]float64{}
	if err := directJSON(in, replies, out); err != nil {
		return nil, err
	}
	if in.seedK > 0 {
		if err := directIndex(in, out); err != nil {
			return nil, err
		}
	}
	if img != nil {
		if err := directOpen(img, work, out); err != nil {
			return nil, err
		}
	}
	if err := directRace(in, out); err != nil {
		return nil, err
	}
	if err := directPairs(in, out); err != nil {
		return nil, err
	}
	return out, nil
}

// directJSON times the server's request decode (strict, as the handler
// does it) and reply encode on the workload's own bodies.
func directJSON(in *inputs, replies [][]byte, out map[string]float64) error {
	var bodies [][]byte
	for _, r := range in.seq {
		if (r.op == opSearch || r.op == opBatch) && len(bodies) < 256 {
			bodies = append(bodies, r.body)
		}
	}
	batch := firstSearch(in).op == opBatch
	d, err := timeCalls(len(bodies), func(i int) error {
		dec := json.NewDecoder(bytes.NewReader(bodies[i]))
		dec.DisallowUnknownFields()
		if batch {
			var reqs []server.SearchRequest
			return dec.Decode(&reqs)
		}
		var req server.SearchRequest
		return dec.Decode(&req)
	})
	if err != nil {
		return err
	}
	out["server.decode_us"] = us(d)

	values := make([]any, len(replies))
	for i, body := range replies {
		if batch {
			var v []server.SearchResponse
			if err := json.Unmarshal(body, &v); err != nil {
				return err
			}
			values[i] = v
		} else {
			var v server.SearchResponse
			if err := json.Unmarshal(body, &v); err != nil {
				return err
			}
			values[i] = &v
		}
	}
	enc := json.NewEncoder(io.Discard)
	d, err = timeCalls(len(values), func(i int) error { return enc.Encode(values[i]) })
	out["server.encode_us"] = us(d)
	return err
}

// shardShare is the corpus one of the two shards holds, approximated
// as every second entry.
func shardShare(corpus []string) []string {
	half := make([]string, 0, len(corpus)/2+1)
	for i := 0; i < len(corpus); i += 2 {
		half = append(half, corpus[i])
	}
	return half
}

// directIndex times seed lookups on one shard's share of the corpus,
// and single-entry index growth where the workload inserts.
func directIndex(in *inputs, out map[string]float64) error {
	ix, err := index.New(shardShare(in.corpus), in.seedK)
	if err != nil {
		return err
	}
	var queries, entries []string
	for _, r := range in.seq {
		switch r.op {
		case opSearch:
			queries = append(queries, r.queries[0])
		case opInsert:
			entries = append(entries, r.entry)
		}
	}
	d, err := timeCalls(len(queries), func(i int) error {
		ix.Candidates(queries[i])
		return nil
	})
	if err != nil {
		return err
	}
	out["index.lookup_us"] = us(d)
	if len(entries) == 0 {
		return nil
	}
	// Grow is linear: each call derives from the previous index.
	grown := ix
	d, err = timeCalls(1, func(i int) error {
		grown = grown.Grow([]string{entries[i%len(entries)]})
		return nil
	})
	out["index.grow_ms"] = us(d) / 1e3
	return err
}

// directOpen times racelogic.Open on copies of the crash image with an
// empty journal and with the fixed tail, and sizes the tail's journal
// against the payload it carries.
func directOpen(img *crashImage, work string, out map[string]float64) error {
	open := func(tail bool, reps int) (time.Duration, error) {
		var ds []time.Duration
		for i := 0; i < reps; i++ {
			src, want := img.expect(tail)
			dst := filepath.Join(work, fmt.Sprintf("direct-open-%d", i))
			if err := copyDir(src, dst); err != nil {
				return 0, err
			}
			runtime.GC()
			began := time.Now()
			db, err := openCopy(dst, want)
			if err != nil {
				return 0, err
			}
			ds = append(ds, time.Since(began))
			if err := db.Close(); err != nil {
				return 0, err
			}
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2], nil
	}
	base, err := open(false, 3)
	if err != nil {
		return err
	}
	tail, err := open(true, 3)
	if err != nil {
		return err
	}
	out["racelogic.open_base_s"] = base.Seconds()
	out["racelogic.replay_ms_per_record"] = float64((tail - base).Microseconds()) / 1e3 / journalTail
	baseWAL, err := walBytes(img.base)
	if err != nil {
		return err
	}
	tailWAL, err := walBytes(img.tail)
	if err != nil {
		return err
	}
	out["store.wal_bytes_per_user_byte"] = float64(tailWAL-baseWAL) / float64(img.userBytes)
	return nil
}

// firstSearch returns the first search request of the timed sequence.
func firstSearch(in *inputs) request {
	for _, r := range in.seq {
		if r.op == opSearch || r.op == opBatch {
			return r
		}
	}
	panic("workload sequence holds no search") // every generator emits searches
}

// representativePack is the lane pack a typical request of the
// workload races.  On batch-lanes its lanes pair the first request's
// queries with same-length entries; on mixed-durable it is the first
// query against its seed candidates in one shard's share.
func representativePack(in *inputs) (ps, qs []string) {
	first := firstSearch(in)
	var pool []string
	for _, e := range in.corpus {
		if len(e) == queryLen {
			pool = append(pool, e)
		}
	}
	if first.op == opBatch {
		per := in.laneWidth / len(first.queries)
		for _, q := range first.queries {
			for _, e := range pool[:per] {
				ps = append(ps, q)
				qs = append(qs, e)
			}
		}
		return ps, qs
	}
	share := shardShare(pool)
	ix, err := index.New(share, in.seedK)
	if err != nil {
		panic(err) // seedK ≥ 1 wherever the first request is a single search
	}
	for _, i := range ix.Candidates(first.queries[0]) {
		qs = append(qs, share[i])
	}
	if len(qs) > in.laneWidth {
		qs = qs[:in.laneWidth]
	}
	return []string{first.queries[0]}, qs
}

// directRace times one lane pack through race.Array on the lanes
// backend at the workload's width, and the energy pricing of each race.
func directRace(in *inputs, out map[string]float64) error {
	ps, qs := representativePack(in)
	a, err := race.NewArray(queryLen, queryLen)
	if err != nil {
		return err
	}
	a.SetBackend(race.BackendLanes)
	if err := a.SetLaneWidth(in.laneWidth); err != nil {
		return err
	}
	pack := func() ([]*race.AlignResult, error) {
		if len(ps) == 1 {
			return a.AlignLanes(ps[0], qs, temporal.Time(-1))
		}
		return a.AlignLanesMulti(ps, qs, temporal.Time(-1))
	}
	results, err := pack() // compiles the engine
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	packs := 0
	d, err := timeCalls(1, func(int) error {
		packs++
		_, err := pack()
		return err
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	out["race.pack_us"] = us(d)
	out["race.ns_per_candidate"] = float64(d.Nanoseconds()) / float64(len(qs))
	out["race.alloc_kb_per_pack"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(packs)

	lib := tech.AMIS()
	d, err = timeCalls(len(results), func(i int) error {
		lib.Energy(results[i].Activity)
		return nil
	})
	out["tech.energy_us_per_race"] = us(d)
	return err
}

// directPairs times one Align of a single pair at the seeded shape on
// each backend.
func directPairs(in *inputs, out map[string]float64) error {
	_, qs := representativePack(in)
	p := firstSearch(in).queries
	for _, b := range []race.Backend{race.BackendCycle, race.BackendEvent, race.BackendLanes} {
		a, err := race.NewArray(queryLen, queryLen)
		if err != nil {
			return err
		}
		a.SetBackend(b)
		if _, err := a.Align(p[0], qs[0]); err != nil {
			return err
		}
		d, err := timeCalls(1, func(int) error {
			_, err := a.Align(p[0], qs[0])
			return err
		})
		if err != nil {
			return err
		}
		out["race.pair_us."+b.String()] = us(d)
	}
	return nil
}
