package racelogic

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"racelogic/internal/obs"
	"racelogic/internal/pipeline"
	"racelogic/internal/seqgen"
)

// memoTwin builds two databases over the same entries and options: the
// returned warm one keeps the outcome memo, the cold one has a memo
// that stores nothing, so every search of it races every candidate —
// the reference a memo-served report must match at the same view.
func memoTwin(t *testing.T, entries []string, opts ...Option) (warm, cold *Database) {
	t.Helper()
	var err error
	if warm, err = NewDatabase(entries, opts...); err != nil {
		t.Fatal(err)
	}
	if cold, err = NewDatabase(entries, opts...); err != nil {
		t.Fatal(err)
	}
	cold.memo = newOutcomeMemo(0)
	return warm, cold
}

// memoized reads the database's memo-served counter.
func memoized(d *Database) int { return int(d.metrics.memoized.Value()) }

// tracedMemo runs one traced search and returns its report with the
// scanned and memo-served counts summed over the trace's shards.
func tracedMemo(t *testing.T, d *Database, query string, opts ...Option) (rep *SearchReport, scanned, memo int) {
	t.Helper()
	tr := obs.NewTrace()
	rep, err := d.SearchContext(obs.WithTrace(context.Background(), tr), query, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range tr.Report().Shards {
		scanned += sh.Scanned
		memo += sh.Memoized
	}
	return rep, scanned, memo
}

// TestMemoByteIdentity runs one mutating history on a memoizing database
// and on its memo-cold twin, and requires every report — seeded and full
// scans, with and without a threshold, single and batched with a
// duplicated query — to match byte for byte except EnginesBuilt, after
// inserts that add candidates to memoized queries, removes of memoized
// candidates, and compaction.
func TestMemoByteIdentity(t *testing.T) {
	for _, backend := range []Backend{BackendCycle, BackendLanes} {
		t.Run(backend.String(), func(t *testing.T) {
			g := seqgen.NewDNA(97)
			var entries []string
			for _, n := range []int{9, 11} {
				entries = append(entries, g.Database(24, n)...)
			}
			entries = append(entries, g.Database(2, 3)...) // shorter than k: always candidates
			warm, cold := memoTwin(t, entries, WithShards(3), WithSeedIndex(4), WithWorkers(2), WithBackend(backend))
			mutate := func(s string) string {
				m, err := g.Mutate(s, 2, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			queries := []string{mutate(entries[3]), mutate(entries[30]), entries[12], g.Random(10)}
			optSets := map[string][]Option{
				"seeded":           nil,
				"threshold":        {WithThreshold(7)},
				"full":             {WithFullScan()},
				"full+threshold":   {WithFullScan(), WithThreshold(7)},
				"negative+topk":    {WithThreshold(-3), WithTopK(3)},
				"threshold+seeded": {WithThreshold(4), WithTopK(2)},
			}
			names := make([]string, 0, len(optSets))
			for name := range optSets {
				names = append(names, name)
			}
			// Sorted for a fixed search order: the memo's state, and with it
			// which outcomes each search reuses, follows that order.
			sort.Strings(names)

			var last map[string]*SearchReport
			check := func(step string) {
				t.Helper()
				last = make(map[string]*SearchReport)
				for _, name := range names {
					for qi, q := range queries {
						got, err := warm.Search(q, optSets[name]...)
						if err != nil {
							t.Fatal(err)
						}
						want, err := cold.Search(q, optSets[name]...)
						if err != nil {
							t.Fatal(err)
						}
						got.EnginesBuilt, want.EnginesBuilt = 0, 0
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: query %d %s: memoized report differs:\n got %+v\nwant %+v", step, qi, name, got, want)
						}
						last[fmt.Sprintf("%s/%d", name, qi)] = got
					}
				}
				batch := []string{queries[0], queries[1], queries[0], queries[2]}
				for _, name := range []string{"seeded", "full+threshold"} {
					got, err := warm.SearchBatch(batch, optSets[name]...)
					if err != nil {
						t.Fatal(err)
					}
					want, err := cold.SearchBatch(batch, optSets[name]...)
					if err != nil {
						t.Fatal(err)
					}
					for i := range got {
						got[i].EnginesBuilt, want[i].EnginesBuilt = 0, 0
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("%s: batch item %d %s: memoized report differs:\n got %+v\nwant %+v", step, i, name, got[i], want[i])
						}
					}
				}
			}
			both := func(op func(d *Database) error) {
				t.Helper()
				for _, d := range []*Database{warm, cold} {
					if err := op(d); err != nil {
						t.Fatal(err)
					}
				}
			}

			check("fresh")
			before := memoized(warm)
			check("repeat")
			if memoized(warm) == before {
				t.Fatal("repeated searches were not memo-served")
			}
			seededBefore := last["seeded/0"].Scanned

			// Inserts that share seeds with the memoized queries add
			// candidates the memo has never scored.
			added := []string{mutate(queries[0]), mutate(queries[1]), queries[2][:8] + "T", "ACG"}
			both(func(d *Database) error {
				_, err := d.Insert(added...)
				return err
			})
			check("insert")
			if got := last["seeded/0"].Scanned; got <= seededBefore {
				t.Fatalf("insert added no candidate to memoized query 0: scanned %d, was %d", got, seededBefore)
			}

			// Remove memoized candidates: the best results of two queries.
			var victims []uint64
			for _, key := range []string{"seeded/0", "seeded/1", "full/2"} {
				for _, r := range last[key].Results[:min(2, len(last[key].Results))] {
					if !slices.Contains(victims, r.ID) {
						victims = append(victims, r.ID)
					}
				}
			}
			both(func(d *Database) error { return d.Remove(victims...) })
			check("remove")

			both(func(d *Database) error {
				_, err := d.Compact()
				return err
			})
			check("compact")

			added = []string{mutate(queries[1]), mutate(queries[3])}
			both(func(d *Database) error {
				ids, err := d.Insert(added...)
				if err != nil {
					return err
				}
				return d.Remove(ids[0], last["full/3"].Results[0].ID)
			})
			check("insert+remove")

			if q, _ := cold.memo.size(); q != 0 {
				t.Fatalf("cold twin memoized %d queries", q)
			}
			if q, o := warm.memo.size(); q == 0 || o == 0 {
				t.Fatalf("warm memo holds %d queries, %d outcomes", q, o)
			}
		})
	}
}

// TestMemoServesRepeatsAndRacesTheRest pins what a repeated query races:
// nothing when its candidates are unchanged, only the new entries after
// an insert, and everything under a threshold it was not memoized at,
// while every negative threshold shares one memo entry.
func TestMemoServesRepeatsAndRacesTheRest(t *testing.T) {
	g := seqgen.NewDNA(13)
	entries := g.Database(40, 10)
	d, err := NewDatabase(entries, WithShards(2), WithSeedIndex(4), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	q := entries[5]
	if _, scanned, memo := tracedMemo(t, d, q); memo != 0 || scanned == 0 {
		t.Fatalf("first search: scanned %d, memo-served %d; want a cold race", scanned, memo)
	}
	if _, scanned, memo := tracedMemo(t, d, q, WithThreshold(-9)); memo != scanned {
		t.Fatalf("negative-threshold repeat: %d of %d memo-served, want all", memo, scanned)
	}
	if _, err := d.Insert(q, q[:9]+"A"); err != nil {
		t.Fatal(err)
	}
	if _, scanned, memo := tracedMemo(t, d, q); memo != scanned-2 {
		t.Fatalf("after two inserts: %d of %d memo-served, want all but the 2 new entries", memo, scanned)
	}
	if _, scanned, memo := tracedMemo(t, d, q, WithThreshold(5)); memo != 0 || scanned == 0 {
		t.Fatalf("new threshold: %d of %d memo-served, want none", memo, scanned)
	}
	if queries, outcomes := d.memo.size(); queries != 2 || outcomes == 0 {
		t.Fatalf("memo holds %d queries, %d outcomes; want 2 keys (no threshold, threshold 5)", queries, outcomes)
	}
}

// TestMemoFailedSearchStoresNothing: a batch that fails stores none of
// its queries' outcomes, not even those of the queries that raced clean.
func TestMemoFailedSearchStoresNothing(t *testing.T) {
	g := seqgen.NewDNA(17)
	entries := g.Database(30, 8)
	d, err := NewDatabase(entries, WithShards(2), WithBackend(BackendLanes))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.SearchBatch([]string{entries[0], "ACGTXACG"}); err == nil {
		t.Fatal("a query with a symbol outside the alphabet must fail the batch")
	}
	if _, err := d.Search("ACGTXACG"); err == nil {
		t.Fatal("a query with a symbol outside the alphabet must fail")
	}
	if queries, outcomes := d.memo.size(); queries != 0 || outcomes != 0 {
		t.Fatalf("failed searches stored %d queries, %d outcomes", queries, outcomes)
	}
	if _, err := d.Search(entries[0]); err != nil {
		t.Fatal(err)
	}
	if queries, outcomes := d.memo.size(); queries != 1 || outcomes != len(entries) {
		t.Fatalf("clean search stored %d queries, %d outcomes; want 1, %d", queries, outcomes, len(entries))
	}
}

// TestMemoCountersCountRepeatsOnce: a batch that repeats a query adds
// to the scanned and memoized counters once for it, memo cold and memo
// warm, so scanned − memoized stays the number of entries raced.
func TestMemoCountersCountRepeatsOnce(t *testing.T) {
	g := seqgen.NewDNA(67)
	entries := g.Database(64, 8)
	d, err := NewDatabase(entries, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	query := g.Random(8)
	for _, step := range []struct {
		name     string
		wantMemo int
	}{{"cold", 0}, {"warm", len(entries)}} {
		scanned0, memo0 := d.metrics.scanned.Value(), memoized(d)
		if _, err := d.SearchBatch([]string{query, query, query}); err != nil {
			t.Fatal(err)
		}
		scanned, memo := int(d.metrics.scanned.Value()-scanned0), memoized(d)-memo0
		if scanned != len(entries) || memo != step.wantMemo {
			t.Errorf("%s batch of three copies counted %d scanned, %d memoized; want %d, %d",
				step.name, scanned, memo, len(entries), step.wantMemo)
		}
	}
}

// TestMemoEvictionAndBudget: the memo is bounded by its charged
// records, an evicted query races again, and a scan larger than the
// whole budget is not stored (and drops the query's older, smaller
// entry).
func TestMemoEvictionAndBudget(t *testing.T) {
	g := seqgen.NewDNA(23)
	entries := g.Database(60, 10)
	d, err := NewDatabase(entries, WithShards(2), WithSeedIndex(4), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	a, b := entries[1], entries[2]
	_, scanA, _ := tracedMemo(t, d, a)
	_, scanB, _ := tracedMemo(t, d, b)
	if scanA == 0 || scanB == 0 || max(scanA, scanB) >= len(entries) {
		t.Fatalf("corpus does not exercise eviction: scans of %d and %d of %d entries", scanA, scanB, len(entries))
	}
	// Room for either query's entry, not both; the two queries have one
	// length, so the full scan's entry is the only one over it.
	budget := max(memoCharge(newMemoKey(a, -1), scanA), memoCharge(newMemoKey(b, -1), scanB))
	d.memo = newOutcomeMemo(budget)
	tracedMemo(t, d, a)
	tracedMemo(t, d, b)
	if queries, outcomes := d.memo.size(); queries != 1 || outcomes != scanB {
		t.Fatalf("memo holds %d queries, %d outcomes; want only the newest query's %d", queries, outcomes, scanB)
	}
	if _, scanned, memo := tracedMemo(t, d, a); memo != 0 || scanned != scanA {
		t.Fatalf("evicted query: %d of %d memo-served, want a full race of %d", memo, scanned, scanA)
	}
	if _, scanned, memo := tracedMemo(t, d, a); memo != scanned {
		t.Fatalf("re-memoized query: %d of %d memo-served", memo, scanned)
	}
	if _, scanned, memo := tracedMemo(t, d, a, WithFullScan()); scanned != len(entries) || memo != scanA {
		t.Fatalf("full scan: %d of %d memo-served, want %d of %d", memo, scanned, scanA, len(entries))
	}
	if queries, outcomes := d.memo.size(); queries != 0 || outcomes != 0 || d.memo.charged != 0 {
		t.Fatalf("a %d-entry scan over a budget of %d left %d queries, %d outcomes, %d records charged",
			len(entries), budget, queries, outcomes, d.memo.charged)
	}
}

// TestMemoChargesQueryBytes: the budget charges each entry its query
// bytes and bookkeeping beside its outcomes, so a stream of distinct
// long queries that each score one entry — new sequences that never
// repeat — holds no more than memoBudget records' worth of memory, and
// evicts oldest first.
func TestMemoChargesQueryBytes(t *testing.T) {
	m := newOutcomeMemo(memoBudget)
	long := strings.Repeat("ACGT", 1024) // the server's default query cap
	key := func(i int) memoKey { return newMemoKey(fmt.Sprintf("%08d", i)+long[8:], -1) }
	perEntry := memoCharge(key(0), 1)
	if perEntry <= len(long)/outcomeBytes {
		t.Fatalf("a %d-symbol query with one outcome is charged %d records", len(long), perEntry)
	}
	fits := memoBudget / perEntry
	for i := 0; i < 2*fits; i++ {
		m.put(key(i), []pipeline.Outcome{{ID: uint64(i)}})
		if m.charged > memoBudget {
			t.Fatalf("after %d queries: %d records charged, budget %d", i+1, m.charged, memoBudget)
		}
	}
	if queries, outcomes := m.size(); queries != fits || outcomes != fits || m.charged != fits*perEntry {
		t.Fatalf("memo holds %d queries, %d outcomes, %d records charged; want %d, %d, %d",
			queries, outcomes, m.charged, fits, fits, fits*perEntry)
	}
	if m.get(key(fits-1)) != nil || m.get(key(2*fits-1)) == nil || m.get(key(fits)) == nil {
		t.Fatal("eviction did not keep exactly the newest queries")
	}
	// Replacing an entry re-charges it; clearing it refunds everything.
	m.put(key(fits), make([]pipeline.Outcome, 3))
	if want := fits*perEntry + 2; m.charged != want {
		t.Fatalf("replacement: %d records charged, want %d", m.charged, want)
	}
	for i := fits; i < 2*fits; i++ {
		m.put(key(i), nil)
	}
	if queries, outcomes := m.size(); queries != 0 || outcomes != 0 || m.charged != 0 {
		t.Fatalf("emptied memo holds %d queries, %d outcomes, %d records charged", queries, outcomes, m.charged)
	}
}

// TestMemoConcurrentSearchesAndMutations shares memo entries between
// concurrent searches while inserts, removes and compactions land.
// Every result must carry exactly the outcome a memo-cold database
// scores for its (query, entry, threshold), and the run must be clean
// under the race detector.
func TestMemoConcurrentSearchesAndMutations(t *testing.T) {
	g := seqgen.NewDNA(29)
	entries := g.Database(48, 9)
	extra := g.Database(24, 9)
	queries := []string{entries[0], entries[7], entries[19]}
	thresholds := []int64{-1, 6}
	opts := []Option{WithShards(2), WithSeedIndex(4), WithWorkers(2), WithBackend(BackendLanes)}

	// want[(query, threshold)][sequence] is the memo-cold outcome of every
	// entry the history can hold.
	ref, err := NewDatabase(append(append([]string(nil), entries...), extra...), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ref.memo = newOutcomeMemo(0)
	type key struct {
		query     string
		threshold int64
	}
	want := make(map[key]map[string]SearchResult)
	for _, q := range queries {
		for _, thr := range thresholds {
			rep, err := ref.Search(q, WithFullScan(), WithThreshold(thr))
			if err != nil {
				t.Fatal(err)
			}
			byseq := make(map[string]SearchResult, len(rep.Results))
			for _, r := range rep.Results {
				byseq[r.Sequence] = r
			}
			want[key{q, thr}] = byseq
		}
	}

	d, err := NewDatabase(entries, opts...)
	if err != nil {
		t.Fatal(err)
	}
	const searchers = 4
	var wg sync.WaitGroup
	errs := make(chan error, searchers+1) // each goroutine sends at most one
	for w := 0; w < searchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				q := queries[(w+i)%len(queries)]
				thr := thresholds[i%len(thresholds)]
				searchOpts := []Option{WithThreshold(thr)}
				if i%3 == 0 {
					searchOpts = append(searchOpts, WithFullScan())
				}
				var reps []*SearchReport
				if i%4 == 1 {
					var err error
					if reps, err = d.SearchBatch([]string{q, q}, searchOpts...); err != nil {
						errs <- err
						return
					}
				} else {
					rep, err := d.Search(q, searchOpts...)
					if err != nil {
						errs <- err
						return
					}
					reps = []*SearchReport{rep}
				}
				for _, rep := range reps {
					for _, r := range rep.Results {
						// The global rank moves with removes and compactions;
						// IDs agree, as both databases assign them in order.
						exp, ok := want[key{q, thr}][r.Sequence]
						r.Index = exp.Index
						if !ok || !reflect.DeepEqual(r, exp) {
							errs <- fmt.Errorf("query %q threshold %d: result %+v, memo-cold %+v", q, thr, r, exp)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, e := range extra {
			ids, err := d.Insert(e)
			if err != nil {
				errs <- err
				return
			}
			if i%3 == 2 {
				if err := d.Remove(ids[0], uint64(i)); err != nil {
					errs <- err
					return
				}
			}
			if i%8 == 7 {
				if _, err := d.Compact(); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if memoized(d) == 0 {
		t.Fatal("no search was memo-served")
	}
}

// TestMemoServedSearchAllocs bounds what a search the outcome memo
// answers in full allocates.  Its fold ranks 200 matches by (Score, ID)
// and builds a Result only for each one it returns, so the count does
// not grow with the matches and is the same at every TopK.
func TestMemoServedSearchAllocs(t *testing.T) {
	const maxAllocs = 28
	entries := seqgen.NewDNA(13).Database(200, 12)
	for _, topK := range []int{0, 5} {
		d, err := NewDatabase(entries, WithShards(2), WithWorkers(2), WithBackend(BackendLanes), WithTopK(topK))
		if err != nil {
			t.Fatal(err)
		}
		q := entries[5]
		if _, err := d.Search(q); err != nil {
			t.Fatal(err)
		}
		var searchErr error
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := d.Search(q); err != nil {
				searchErr = err
			}
		})
		if searchErr != nil {
			t.Fatal(searchErr)
		}
		if _, scanned, memo := tracedMemo(t, d, q); memo != scanned || scanned != len(entries) {
			t.Fatalf("top %d: %d of %d scanned entries memo-served, want all %d", topK, memo, scanned, len(entries))
		}
		if allocs > maxAllocs {
			t.Errorf("top %d: a memo-served search allocates %.0f times, want at most %d", topK, allocs, maxAllocs)
		}
	}
}
