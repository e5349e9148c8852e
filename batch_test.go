package racelogic_test

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"racelogic"
	"racelogic/internal/obs"
	"racelogic/internal/seqgen"
)

// TestSearchBatchMatchesSequential pins the public batch contract:
// every report of a Database.SearchBatch must be byte-identical to the
// sequential Search call for the same query — across backends, lane
// widths, shard counts, and the seeded path — except EnginesBuilt,
// which counts the whole batch's builds.
func TestSearchBatchMatchesSequential(t *testing.T) {
	g := seqgen.NewDNA(61)
	var db []string
	for _, n := range []int{7, 9, 11} {
		db = append(db, g.Database(25, n)...)
	}
	queries := []string{g.Random(9), g.Random(7), g.Random(9), g.Random(11)}
	configs := []struct {
		name string
		opts []racelogic.Option
	}{
		{"cycle", []racelogic.Option{racelogic.WithBackend(racelogic.BackendCycle)}},
		{"lanes64", []racelogic.Option{racelogic.WithBackend(racelogic.BackendLanes)}},
		{"lanes256", []racelogic.Option{
			racelogic.WithBackend(racelogic.BackendLanes), racelogic.WithLaneWidth(256)}},
		{"lanes128-sharded-seeded", []racelogic.Option{
			racelogic.WithBackend(racelogic.BackendLanes), racelogic.WithLaneWidth(128),
			racelogic.WithShards(3), racelogic.WithSeedIndex(4)}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			d, err := racelogic.NewDatabase(db, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			searchOpts := []racelogic.Option{
				racelogic.WithThreshold(18), racelogic.WithTopK(6), racelogic.WithWorkers(2)}
			batch, err := d.SearchBatch(queries, searchOpts...)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch) != len(queries) {
				t.Fatalf("%d reports for %d queries", len(batch), len(queries))
			}
			for qi, q := range queries {
				want, err := d.Search(q, searchOpts...)
				if err != nil {
					t.Fatal(err)
				}
				got := batch[qi]
				want.EnginesBuilt, got.EnginesBuilt = 0, 0
				if !reflect.DeepEqual(want, got) {
					t.Errorf("query %d: batch report differs\nsequential: %+v\nbatch:      %+v",
						qi, want, got)
				}
			}
		})
	}
}

// TestSearchBatchOneShot pins the package-level convenience wrapper.
func TestSearchBatchOneShot(t *testing.T) {
	g := seqgen.NewDNA(62)
	db := g.Database(12, 8)
	queries := []string{g.Random(8), g.Random(8)}
	batch, err := racelogic.SearchBatch(queries, db,
		racelogic.WithBackend(racelogic.BackendLanes), racelogic.WithLaneWidth(128))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("%d reports, want 2", len(batch))
	}
	for qi, q := range queries {
		want, err := racelogic.Search(q, db,
			racelogic.WithBackend(racelogic.BackendLanes), racelogic.WithLaneWidth(128))
		if err != nil {
			t.Fatal(err)
		}
		got := batch[qi]
		want.EnginesBuilt, got.EnginesBuilt = 0, 0
		if !reflect.DeepEqual(want, got) {
			t.Errorf("query %d: one-shot batch report differs", qi)
		}
	}
}

// TestSearchBatchErrors pins the batch failure contract: bad queries
// surface as a *BatchError naming the zero-based query at fault, fixed
// options are rejected exactly like SearchContext does, and an empty
// batch succeeds with an empty report slice.
func TestSearchBatchErrors(t *testing.T) {
	g := seqgen.NewDNA(63)
	d, err := racelogic.NewDatabase(g.Database(6, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if _, err := d.SearchBatch([]string{g.Random(8), ""}); err == nil {
		t.Error("empty query in batch must fail")
	} else {
		var be *racelogic.BatchError
		if !errors.As(err, &be) {
			t.Errorf("error %v (%T) is not a *BatchError", err, err)
		} else if be.Query != 1 {
			t.Errorf("error attributed to query %d, want 1", be.Query)
		}
	}

	if _, err := d.SearchBatch([]string{g.Random(8), "ACGTX"}); err == nil {
		t.Error("undecodable query in batch must fail")
	} else {
		var be *racelogic.BatchError
		if !errors.As(err, &be) {
			t.Errorf("error %v (%T) is not a *BatchError", err, err)
		} else if be.Query != 1 {
			t.Errorf("error attributed to query %d, want 1", be.Query)
		}
	}

	if _, err := d.SearchBatch([]string{g.Random(8)}, racelogic.WithShards(2)); err == nil {
		t.Error("fixed option at batch-search time must be rejected")
	} else if !strings.Contains(err.Error(), "fixed when the database is built") {
		t.Errorf("fixed-option error = %v", err)
	}

	reps, err := d.SearchBatch(nil)
	if err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if len(reps) != 0 {
		t.Fatalf("empty batch returned %d reports", len(reps))
	}
}

// TestSearchBatchTrace pins batch tracing: a trace attached to
// SearchBatchContext records one seed/plan/race/merge span sequence,
// its per-shard scanned/skipped/cycles sums equal the sums over the
// batch's reports, and a batch of one traces exactly like SearchContext
// for the same query once the durations are zeroed.  Every traced query
// is new to its database, so every traced run races rather than reading
// the outcome memo.
func TestSearchBatchTrace(t *testing.T) {
	g := seqgen.NewDNA(64)
	var db []string
	for _, n := range []int{7, 9, 11} {
		db = append(db, g.Database(25, n)...)
	}
	// Two entries verbatim (certain seed hits), a random query, and one
	// shorter than k, which the seed index cannot filter.
	queries := []string{db[3], db[40], g.Random(9), g.Random(3)}
	// Full scans of other queries of the same lengths warm every engine
	// shape the traced runs use, so those build nothing, and leave the
	// traced queries unmemoized.
	warm := make([]string, len(queries))
	for i, q := range queries {
		for warm[i] == "" || slices.Contains(queries, warm[i]) {
			warm[i] = g.Random(len(q))
		}
	}
	newDB := func() *racelogic.Database {
		t.Helper()
		d, err := racelogic.NewDatabase(db,
			racelogic.WithShards(2), racelogic.WithSeedIndex(4), racelogic.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		if _, err := d.SearchBatch(warm, racelogic.WithFullScan()); err != nil {
			t.Fatal(err)
		}
		return d
	}
	// raced fails the test unless a traced run raced its pairs.
	raced := func(what string, rep *obs.TraceReport) {
		t.Helper()
		chunks, memo := 0, 0
		for _, sh := range rep.Shards {
			chunks += sh.Chunks
			memo += sh.Memoized
		}
		if chunks == 0 || memo != 0 {
			t.Fatalf("%s: %d chunks raced, %d entries memo-served; want a cold race", what, chunks, memo)
		}
	}
	d := newDB()

	// Four workers write the shared trace concurrently; the sums below do
	// not depend on how chunks were scheduled.
	tr := obs.NewTrace()
	reps, err := d.SearchBatchContext(obs.WithTrace(context.Background(), tr), queries, racelogic.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	rep := tr.Report()
	raced("four-worker batch", rep)
	var names []string
	for _, sp := range rep.Spans {
		names = append(names, sp.Name)
	}
	if want := []string{"seed", "plan", "race", "merge"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("batch trace spans = %v, want %v", names, want)
	}
	if len(rep.Shards) != 2 {
		t.Fatalf("batch trace has %d shards, want 2", len(rep.Shards))
	}
	var traced, reported [3]int // scanned, skipped, cycles
	for _, sh := range rep.Shards {
		traced[0] += sh.Scanned
		traced[1] += sh.Skipped
		traced[2] += sh.Cycles
	}
	for _, r := range reps {
		reported[0] += r.Scanned
		reported[1] += r.Skipped
		reported[2] += r.TotalCycles
	}
	if traced != reported {
		t.Errorf("shard sums (scanned, skipped, cycles) = %v, batch reports sum to %v", traced, reported)
	}
	if reported[1] == 0 {
		t.Error("seed index skipped nothing; the corpus does not exercise skip sums")
	}

	// The single and batch-of-one runs each race on their own,
	// identically warmed database, which sees the same history.
	dSingle, dBatch := newDB(), newDB()
	for _, q := range queries {
		single, batch := obs.NewTrace(), obs.NewTrace()
		if _, err := dSingle.SearchContext(obs.WithTrace(context.Background(), single), q); err != nil {
			t.Fatal(err)
		}
		if _, err := dBatch.SearchBatchContext(obs.WithTrace(context.Background(), batch), []string{q}); err != nil {
			t.Fatal(err)
		}
		raced("SearchContext of "+q, single.Report())
		raced("batch of one of "+q, batch.Report())
		a, _ := json.Marshal(zeroTraceDurations(single.Report()))
		b, _ := json.Marshal(zeroTraceDurations(batch.Report()))
		if string(a) != string(b) {
			t.Errorf("query %q: batch-of-one trace differs from SearchContext:\nsingle: %s\nbatch:  %s", q, a, b)
		}
	}
}

// TestSearchBatchRacesRepeatsOnce pins batch deduplication: a batch
// that repeats a query races it once, yet every copy gets its own
// report, equal to the query's single report (EnginesBuilt aside) and
// sharing no Results slice with another copy; the batch's trace counts
// the same chunks and scanned entries as the batch of its distinct
// queries.  Every database is fresh, so no outcome is memo-served.
func TestSearchBatchRacesRepeatsOnce(t *testing.T) {
	g := seqgen.NewDNA(66)
	entries := g.Database(64, 8)
	a, b := g.Random(8), entries[5]
	newDB := func() *racelogic.Database {
		t.Helper()
		d, err := racelogic.NewDatabase(entries, racelogic.WithShards(2), racelogic.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	traced := func(queries []string) ([]*racelogic.SearchReport, [2]int) {
		t.Helper()
		tr := obs.NewTrace()
		reps, err := newDB().SearchBatchContext(obs.WithTrace(context.Background(), tr), queries)
		if err != nil {
			t.Fatal(err)
		}
		var counts [2]int // chunks, scanned
		for _, sh := range tr.Report().Shards {
			counts[0] += sh.Chunks
			counts[1] += sh.Scanned
		}
		return reps, counts
	}
	dup, dupCounts := traced([]string{a, b, a, a})
	_, distinctCounts := traced([]string{a, b})
	if dupCounts != distinctCounts {
		t.Errorf("duplicated batch traced (chunks, scanned) = %v, the distinct batch %v", dupCounts, distinctCounts)
	}
	if distinctCounts[1] != 2*len(entries) {
		t.Errorf("distinct batch scanned %d, want %d", distinctCounts[1], 2*len(entries))
	}
	for i, q := range []string{a, b, a, a} {
		want, err := newDB().Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripEngines(dup[i]), stripEngines(want)) {
			t.Errorf("copy %d of %q differs from its single report:\n got %+v\nwant %+v", i, q, dup[i], want)
		}
	}
	if len(dup[0].Results) == 0 {
		t.Fatal("test is vacuous: the repeated query matched nothing")
	}
	if &dup[0].Results[0] == &dup[2].Results[0] || &dup[2].Results[0] == &dup[3].Results[0] {
		t.Error("copies of one query share a Results slice")
	}
}

// zeroTraceDurations blanks every wall-clock field of a trace report,
// leaving the dimensions that are deterministic at one worker.
func zeroTraceDurations(rep *obs.TraceReport) *obs.TraceReport {
	rep.DurationUS = 0
	for i := range rep.Spans {
		rep.Spans[i].DurationUS = 0
	}
	for i := range rep.Shards {
		rep.Shards[i].CheckoutWaitUS = 0
		rep.Shards[i].RaceUS = 0
	}
	return rep
}
