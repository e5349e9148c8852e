package pipeline

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"racelogic/internal/race"
	"racelogic/internal/score"
	"racelogic/internal/seqgen"
	"racelogic/internal/temporal"
)

func dnaFactory(n, m int) (*race.Array, error) { return race.NewArray(n, m) }

// testDB is one unpartitioned database: a snapshot lineage whose newest
// snapshot is snap, raced on pools.  Tests derive the next snapshot with
// Insert, Remove and Compact and store it in snap, as one shard of the
// partitioned database does under its lock.
type testDB struct {
	pools *Pools
	snap  *Snapshot
}

// newDB shards entries into a version-0 snapshot over a private
// engine-pool set.
func newDB(entries []string, factory Factory) (*testDB, error) {
	pools, err := NewPools(factory, nil)
	if err != nil {
		return nil, err
	}
	return newDBWith(entries, pools)
}

// newDBWith shards entries into a version-0 snapshot over a shared
// engine-pool set.
func newDBWith(entries []string, pools *Pools) (*testDB, error) {
	snap, err := NewSnapshot(entries, 0)
	if err != nil {
		return nil, err
	}
	return &testDB{pools: pools, snap: snap}, nil
}

// identityIDs ranks each of n slots by its own index: the rank keys of
// an unpartitioned database.
func identityIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	return ids
}

// search races query against every live slot of the newest snapshot.
func (d *testDB) search(query string, req Request) (*Report, error) {
	return d.searchAt(d.snap, query, req, nil)
}

// searchAt races query against snapshot s, restricted to cands unless
// cands is nil, with every slot ranked by its own index.
func (d *testDB) searchAt(s *Snapshot, query string, req Request, cands []int) (*Report, error) {
	return multiSearch(d.pools, []ShardScan{{Snap: s, Candidates: cands, IDs: identityIDs(s.Slots())}}, query, req)
}

// multiSearch races query against the shard scans as a batch of one and
// returns the query's own error, not the *QueryError wrapping it.
func multiSearch(pools *Pools, scans []ShardScan, query string, req Request) (*Report, error) {
	reps, err := MultiSearchBatch(pools, [][]ShardScan{scans}, []string{query}, req)
	var qe *QueryError
	if errors.As(err, &qe) {
		return nil, qe.Err
	}
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// oneShot builds a throwaway database and runs a single query — the
// shape of the public racelogic.Search wrapper.
func oneShot(query string, db []string, req Request) (*Report, error) {
	d, err := newDB(db, dnaFactory)
	if err != nil {
		return nil, err
	}
	return d.search(query, req)
}

func TestSearchEmptyDatabase(t *testing.T) {
	rep, err := oneShot("ACGT", nil, Request{Threshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 0 || rep.Matched != 0 || rep.Rejected != 0 || rep.Buckets != 0 {
		t.Errorf("empty database: got %+v, want all-zero counts", rep)
	}
	if rep.Results == nil || len(rep.Results) != 0 {
		t.Errorf("empty database must yield an empty (non-nil) result slice, got %v", rep.Results)
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	if _, err := oneShot("", []string{"ACGT"}, Request{Threshold: -1}); err == nil {
		t.Error("empty query must error")
	}
}

func TestSearchEmptyEntry(t *testing.T) {
	if _, err := oneShot("ACGT", []string{"ACGT", ""}, Request{Threshold: -1}); err == nil {
		t.Error("zero-length database entry must error")
	}
}

// TestSearchAllIdenticalLengths pins the bucketing degenerate case: every
// entry the same length must form exactly one bucket, and with one worker
// exactly one engine must cover the whole scan.
func TestSearchAllIdenticalLengths(t *testing.T) {
	g := seqgen.NewDNA(1)
	db := g.Database(20, 9)
	rep, err := oneShot(g.Random(9), db, Request{Threshold: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Buckets != 1 {
		t.Errorf("got %d buckets, want 1", rep.Buckets)
	}
	if rep.EnginesBuilt != 1 {
		t.Errorf("got %d engines, want 1 (engine reuse across the bucket)", rep.EnginesBuilt)
	}
	if rep.Matched != 20 || len(rep.Results) != 20 {
		t.Errorf("unthresholded scan must score everything: matched %d, results %d", rep.Matched, len(rep.Results))
	}
}

// TestSearchSingleEntryBuckets pins the opposite degenerate case: every
// entry a distinct length, one bucket and one engine each.
func TestSearchSingleEntryBuckets(t *testing.T) {
	g := seqgen.NewDNA(2)
	db := []string{g.Random(4), g.Random(5), g.Random(6), g.Random(7)}
	rep, err := oneShot(g.Random(6), db, Request{Threshold: -1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Buckets != len(db) {
		t.Errorf("got %d buckets, want %d", rep.Buckets, len(db))
	}
	if rep.EnginesBuilt != len(db) {
		t.Errorf("got %d engines, want %d", rep.EnginesBuilt, len(db))
	}
	if rep.Matched != len(db) {
		t.Errorf("matched %d, want %d", rep.Matched, len(db))
	}
}

// TestSearchThresholdAgainstUnfiltered checks the Section 6 pre-filter
// against an unfiltered scan of the same database: accepted entries carry
// identical scores, and every rejected entry's unfiltered score exceeds
// the threshold.
func TestSearchThresholdAgainstUnfiltered(t *testing.T) {
	g := seqgen.NewDNA(7)
	query := g.Random(12)
	db := g.Database(40, 12)
	for _, k := range []int{3, 17, 31} {
		mut, err := g.Mutate(query, 2, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		db[k] = mut
	}
	const threshold = 16

	full, err := oneShot(query, db, Request{Threshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := oneShot(query, db, Request{Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}

	fullByIndex := make(map[int]Result, len(full.Results))
	for _, r := range full.Results {
		fullByIndex[r.Index] = r
	}
	seen := make(map[int]bool)
	for _, r := range filtered.Results {
		seen[r.Index] = true
		if want := fullByIndex[r.Index].Score; r.Score != want {
			t.Errorf("entry %d: filtered score %d != unfiltered %d", r.Index, r.Score, want)
		}
	}
	// Exactly the entries scoring ≤ threshold survive the pre-filter.
	for _, r := range full.Results {
		if seen[r.Index] != (r.Score <= threshold) {
			t.Errorf("entry %d (score %d): accepted=%v inconsistent with threshold %d",
				r.Index, r.Score, seen[r.Index], threshold)
		}
	}
	if filtered.Rejected+filtered.Matched != filtered.Scanned {
		t.Errorf("rejected %d + matched %d != scanned %d",
			filtered.Rejected, filtered.Matched, filtered.Scanned)
	}
	if filtered.TotalCycles >= full.TotalCycles {
		t.Errorf("threshold scan used %d cycles, unfiltered %d — early exit saved nothing",
			filtered.TotalCycles, full.TotalCycles)
	}
}

// TestSearchDeterministicTopK runs the same search at several worker-pool
// widths and demands bit-identical reports: ranking must not depend on
// scheduling.
func TestSearchDeterministicTopK(t *testing.T) {
	g := seqgen.NewDNA(9)
	query := g.Random(10)
	var db []string
	for _, n := range []int{8, 10, 12} {
		db = append(db, g.Database(15, n)...)
	}

	var want *Report
	for _, workers := range []int{1, 2, 4, 8} {
		rep, err := oneShot(query, db, Request{
			Threshold: 18,
			Workers:   workers,
			TopK:      7,
		})
		if err != nil {
			t.Fatal(err)
		}
		// EnginesBuilt legitimately varies with chunking width; blank it
		// before comparing.
		rep.EnginesBuilt = 0
		if want == nil {
			want = rep
			continue
		}
		if !reflect.DeepEqual(want, rep) {
			t.Errorf("workers=%d: report differs from workers=1:\n got %+v\nwant %+v", workers, rep, want)
		}
	}
	if len(want.Results) > 7 {
		t.Errorf("top-K returned %d results, want ≤ 7", len(want.Results))
	}
	for i := 1; i < len(want.Results); i++ {
		a, b := want.Results[i-1], want.Results[i]
		if a.Score > b.Score || (a.Score == b.Score && a.Index >= b.Index) {
			t.Errorf("results not in (score, index) order at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestDBWarmPools pins the persistent-pools contract: the second search
// of the same shape builds nothing, the pools report parked engines, and
// the warm report is identical to the cold one apart from EnginesBuilt.
func TestDBWarmPools(t *testing.T) {
	g := seqgen.NewDNA(17)
	db := g.Database(12, 8)
	d, err := newDB(db, dnaFactory)
	if err != nil {
		t.Fatal(err)
	}
	if d.snap.Len() != 12 || len(d.snap.Lengths()) != 1 {
		t.Fatalf("Len=%d Lengths=%v, want 12 and one length", d.snap.Len(), d.snap.Lengths())
	}
	// Workers: 1 keeps EnginesBuilt exact: at wider pools a warm search
	// may legitimately compile an extra engine when its peak same-shape
	// concurrency exceeds what the cold search left parked.
	query := g.Random(8)
	cold, err := d.search(query, Request{Threshold: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cold.EnginesBuilt == 0 || d.pools.EnginesBuilt() == 0 {
		t.Fatalf("cold search must build engines, report %+v, total %d", cold, d.pools.EnginesBuilt())
	}
	if d.pools.PooledEngines() != int(d.pools.EnginesBuilt()) {
		t.Errorf("all %d built engines must be parked after the search, pooled %d",
			d.pools.EnginesBuilt(), d.pools.PooledEngines())
	}
	warm, err := d.search(query, Request{Threshold: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if warm.EnginesBuilt != 0 {
		t.Errorf("warm search built %d engines, want 0", warm.EnginesBuilt)
	}
	cold.EnginesBuilt, warm.EnginesBuilt = 0, 0
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm report differs from cold:\n got %+v\nwant %+v", warm, cold)
	}
	// A different query length is a different shape: more builds.
	before := d.pools.EnginesBuilt()
	if _, err := d.search(g.Random(6), Request{Threshold: -1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if d.pools.EnginesBuilt() == before {
		t.Error("a new query length must compile a new engine shape")
	}
}

// TestDBCandidates pins the seeded-scan contract: only candidate entries
// are raced, in ascending order semantics identical to a database made
// of just those entries.
func TestDBCandidates(t *testing.T) {
	g := seqgen.NewDNA(18)
	db := g.Database(10, 7)
	d, err := newDB(db, dnaFactory)
	if err != nil {
		t.Fatal(err)
	}
	query := g.Random(7)
	cands := []int{1, 4, 7}
	rep, err := d.searchAt(d.snap, query, Request{Threshold: -1}, cands)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != len(cands) || rep.Matched != len(cands) {
		t.Errorf("scanned %d matched %d, want %d each", rep.Scanned, rep.Matched, len(cands))
	}
	full, err := d.search(query, Request{Threshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	fullByIndex := make(map[int]Result)
	for _, r := range full.Results {
		fullByIndex[r.Index] = r
	}
	for _, r := range rep.Results {
		ok := false
		for _, c := range cands {
			if r.Index == c {
				ok = true
			}
		}
		if !ok {
			t.Errorf("result index %d is not a candidate", r.Index)
		}
		if fullByIndex[r.Index].Score != r.Score {
			t.Errorf("entry %d: candidate scan score %d != full scan %d",
				r.Index, r.Score, fullByIndex[r.Index].Score)
		}
	}
	// Empty (non-nil) candidate set races nothing; nil scans everything.
	empty, err := d.searchAt(d.snap, query, Request{Threshold: -1}, []int{})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Scanned != 0 || len(empty.Results) != 0 || empty.Results == nil {
		t.Errorf("empty candidates: %+v, want zero scanned and empty non-nil results", empty)
	}
	if _, err := d.searchAt(d.snap, query, Request{Threshold: -1}, []int{10}); err == nil {
		t.Error("out-of-range candidate index must error")
	}
	if _, err := d.searchAt(d.snap, query, Request{Threshold: -1}, []int{-1}); err == nil {
		t.Error("negative candidate index must error")
	}
}

// TestDBIdleCap pins the pool bound: engines released beyond the cap are
// dropped, so a service racing many distinct query lengths cannot grow
// memory monotonically.
func TestDBIdleCap(t *testing.T) {
	g := seqgen.NewDNA(19)
	d, err := newDB(g.Database(6, 6), dnaFactory)
	if err != nil {
		t.Fatal(err)
	}
	d.pools.SetMaxIdleEngines(2)
	for _, n := range []int{3, 4, 5, 6, 7} {
		if _, err := d.search(g.Random(n), Request{Threshold: -1, Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.pools.PooledEngines(); got > 2 {
		t.Errorf("pooled %d engines, cap is 2", got)
	}
	if d.pools.EnginesBuilt() != 5 {
		t.Errorf("built %d engines, want 5 (one per distinct query length)", d.pools.EnginesBuilt())
	}
	// The parked shapes still serve warm searches.
	rep, err := d.search(g.Random(3), Request{Threshold: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EnginesBuilt != 0 {
		t.Errorf("warm search on a pooled shape built %d engines, want 0", rep.EnginesBuilt)
	}
}

// TestNewDBErrors pins the constructors' errors — NewPools without a
// factory, NewSnapshot with an empty entry — and an empty query's.
func TestNewDBErrors(t *testing.T) {
	if _, err := NewPools(nil, nil); err == nil {
		t.Error("nil factory must error")
	}
	if _, err := NewSnapshot([]string{"ACGT", ""}, 0); err == nil {
		t.Error("empty entry must error")
	}
	d, err := newDB(nil, dnaFactory)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.search("", Request{Threshold: -1}); err == nil {
		t.Error("empty query must error")
	}
}

// TestSearchEngineReuseMatchesFreshEngines is the core tentpole
// correctness property: an array reset between races must score exactly
// like a fresh array per pair.
func TestSearchEngineReuseMatchesFreshEngines(t *testing.T) {
	g := seqgen.NewDNA(13)
	query := g.Random(8)
	db := g.Database(10, 8)
	rep, err := oneShot(query, db, Request{Threshold: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		fresh, err := race.NewArray(len(query), len(db[r.Index]))
		if err != nil {
			t.Fatal(err)
		}
		res, err := fresh.Align(query, db[r.Index])
		if err != nil {
			t.Fatal(err)
		}
		if int64(res.Score) != r.Score {
			t.Errorf("entry %d: reused engine scored %d, fresh engine %d", r.Index, r.Score, res.Score)
		}
		if res.Score == temporal.Never {
			t.Errorf("entry %d: fresh engine never fired", r.Index)
		}
	}
}

// TestDBInsertRemove drives the copy-on-write derivations: inserts
// appear in the next search, removes disappear, each derivation carries
// the version it is given, and bucket bookkeeping follows.
func TestDBInsertRemove(t *testing.T) {
	d, err := newDB([]string{"ACGT", "TTTT"}, dnaFactory)
	if err != nil {
		t.Fatal(err)
	}
	if d.snap.Version() != 0 || d.snap.Len() != 2 || len(d.snap.Lengths()) != 1 {
		t.Fatalf("fresh snapshot: version=%d len=%d lengths=%v", d.snap.Version(), d.snap.Len(), d.snap.Lengths())
	}
	snap, err := d.snap.Insert([]string{"ACGA", "GG"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Entry(2) != "ACGA" || snap.Len() != 4 || snap.Version() != 1 || len(snap.Lengths()) != 2 {
		t.Fatalf("after insert: slot 2=%q len=%d version=%d lengths=%v",
			snap.Entry(2), snap.Len(), snap.Version(), snap.Lengths())
	}
	d.snap = snap
	rep, err := d.search("ACGT", Request{Threshold: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 4 || rep.Matched != 4 {
		t.Fatalf("post-insert scan: %+v", rep)
	}
	seen := make(map[string]bool)
	for _, r := range rep.Results {
		seen[r.Sequence] = true
	}
	if !seen["ACGA"] || !seen["GG"] {
		t.Errorf("inserted entries missing from results: %v", seen)
	}

	// Remove the only length-2 entry: its bucket must vanish.
	snap, err = d.snap.Remove([]int{3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 3 || snap.Dead() != 1 || len(snap.Lengths()) != 1 || snap.Version() != 2 {
		t.Fatalf("after remove: %+v len=%d dead=%d lengths=%v", snap, snap.Len(), snap.Dead(), snap.Lengths())
	}
	d.snap = snap
	rep, err = d.search("ACGT", Request{Threshold: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 3 {
		t.Fatalf("post-remove scan raced %d entries, want 3", rep.Scanned)
	}
	for _, r := range rep.Results {
		if r.Sequence == "GG" {
			t.Error("tombstoned entry still raced")
		}
	}

	// Tombstoned or out-of-range slots are rejected all-or-nothing: the
	// valid slot 0 in the same batch must stay live.
	if _, err := d.snap.Remove([]int{0, 3}, 3); err == nil {
		t.Error("removing a dead slot must error")
	}
	if _, err := d.snap.Remove([]int{0, 0}, 3); err == nil {
		t.Error("removing a slot twice in one call must error")
	}
	if _, err := d.snap.Remove([]int{99}, 3); err == nil {
		t.Error("removing an out-of-range slot must error")
	}
	if d.snap.Len() != 3 || !d.snap.Live(0) || d.snap.Version() != 2 {
		t.Errorf("failed removes must not mutate: len=%d slot 0 live=%v version=%d", d.snap.Len(), d.snap.Live(0), d.snap.Version())
	}
	// A tombstoned candidate slot is an error, not a silent resurrection.
	if _, err := d.searchAt(d.snap, "ACGT", Request{Threshold: -1}, []int{3}); err == nil {
		t.Error("tombstoned candidate slot must error")
	}
	if _, err := d.snap.Insert([]string{"ACGT", ""}, 3); err == nil {
		t.Error("inserting an empty entry must error")
	}
}

// TestDBSnapshotIsolation pins the copy-on-write contract directly: a
// snapshot searched before a burst of derivations must keep returning
// its original contents, bit-identical, after them.
func TestDBSnapshotIsolation(t *testing.T) {
	g := seqgen.NewDNA(23)
	db := g.Database(10, 8)
	d, err := newDB(db, dnaFactory)
	if err != nil {
		t.Fatal(err)
	}
	query := g.Random(8)
	old := d.snap
	before, err := d.searchAt(old, query, Request{Threshold: -1, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.snap, err = d.snap.Insert(g.Database(5, 8), 1); err != nil {
		t.Fatal(err)
	}
	if d.snap, err = d.snap.Remove([]int{0, 3, 7}, 2); err != nil {
		t.Fatal(err)
	}
	if _, d.snap = d.snap.Compact(3); d.snap.Len() != 12 {
		t.Fatalf("compacted to %d entries, want 12", d.snap.Len())
	}
	after, err := d.searchAt(old, query, Request{Threshold: -1, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before.EnginesBuilt, after.EnginesBuilt = 0, 0
	if !reflect.DeepEqual(before, after) {
		t.Errorf("old snapshot changed under derivation:\n got %+v\nwant %+v", after, before)
	}
	now, err := d.search(query, Request{Threshold: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if now.Scanned != 12 {
		t.Errorf("newest snapshot raced %d entries, want 12", now.Scanned)
	}
}

// TestDBCompact checks the dense rebuild: the remap renumbers survivors
// in slot order, dropped slots map to -1, and post-compaction searches
// score identically (keyed by sequence) to pre-compaction ones.
func TestDBCompact(t *testing.T) {
	g := seqgen.NewDNA(29)
	db := g.Database(8, 6)
	d, err := newDB(db, dnaFactory)
	if err != nil {
		t.Fatal(err)
	}
	query := g.Random(6)
	if d.snap, err = d.snap.Remove([]int{1, 4, 6}, 1); err != nil {
		t.Fatal(err)
	}
	before, err := d.search(query, Request{Threshold: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	remap, snap := d.snap.Compact(2)
	if snap.Len() != 5 || snap.Dead() != 0 || snap.Slots() != 5 {
		t.Fatalf("compacted snapshot: len=%d dead=%d slots=%d", snap.Len(), snap.Dead(), snap.Slots())
	}
	want := []int{0, -1, 1, 2, -1, 3, -1, 4}
	if !reflect.DeepEqual(remap, want) {
		t.Errorf("remap = %v, want %v", remap, want)
	}
	d.snap = snap
	// Compacting a dense snapshot is a no-op.
	if again, s2 := d.snap.Compact(3); again != nil || s2 != snap {
		t.Error("second Compact must return nil remap and the same snapshot")
	}
	after, err := d.search(query, Request{Threshold: -1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if before.Scanned != after.Scanned || before.Matched != after.Matched {
		t.Fatalf("compaction changed aggregates: %+v vs %+v", before, after)
	}
	byseq := make(map[string]int64)
	for _, r := range before.Results {
		byseq[r.Sequence] = r.Score
	}
	for _, r := range after.Results {
		if s, ok := byseq[r.Sequence]; !ok || s != r.Score {
			t.Errorf("entry %q: post-compaction score %d, pre %d (ok=%v)", r.Sequence, r.Score, s, ok)
		}
	}
}

// TestSnapshotDerivationVersion pins the restore path: a snapshot built
// at a persisted sequence carries it, and each derivation carries
// exactly the version it is given, however far from zero.
func TestSnapshotDerivationVersion(t *testing.T) {
	snap, err := NewSnapshot([]string{"ACGT", "TTTT"}, 41)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != 41 {
		t.Fatalf("Version = %d, want 41", snap.Version())
	}
	if snap, err = snap.Insert([]string{"TTTT"}, 42); err != nil || snap.Version() != 42 {
		t.Fatalf("insert at 42: %v, version %d", err, snap.Version())
	}
	if snap, err = snap.Remove([]int{0}, 43); err != nil || snap.Version() != 43 {
		t.Fatalf("remove at 43: %v, version %d", err, snap.Version())
	}
	if _, snap = snap.Compact(44); snap.Version() != 44 {
		t.Fatalf("compact at 44: version %d", snap.Version())
	}
}

// TestMultiSearchMatchesSingle is the scatter-gather equivalence at the
// pipeline level: entries partitioned across several shard snapshots
// (raced on one Pools), with slot→ID tables mapping them back to their
// global positions, must produce a report byte-identical modulo
// EnginesBuilt to the unpartitioned database — including the
// floating-point energy total and the (Score, ID) ranking.
func TestMultiSearchMatchesSingle(t *testing.T) {
	g := seqgen.NewDNA(31)
	var db []string
	for _, n := range []int{6, 8, 10} {
		db = append(db, g.Database(12, n)...)
	}
	query := g.Random(8)
	single, err := newDB(db, dnaFactory)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Threshold: 14, TopK: 9, Workers: 3}
	want, err := single.search(query, req)
	if err != nil {
		t.Fatal(err)
	}

	for _, parts := range []int{1, 2, 3, 5} {
		pools, err := NewPools(dnaFactory, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := multiSearch(pools, batchShards(t, db, parts), query, req)
		if err != nil {
			t.Fatal(err)
		}
		got.EnginesBuilt, want.EnginesBuilt = 0, 0
		// The single-shard results carry Index == ID == global position;
		// partitioned results carry shard-local Index with the global ID.
		// Compare on the global coordinates.
		if got.Scanned != want.Scanned || got.Matched != want.Matched ||
			got.Rejected != want.Rejected || got.Buckets != want.Buckets ||
			got.TotalCycles != want.TotalCycles || got.TotalEnergyJ != want.TotalEnergyJ {
			t.Fatalf("parts=%d: aggregates differ:\n got %+v\nwant %+v", parts, got, want)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("parts=%d: %d results, want %d", parts, len(got.Results), len(want.Results))
		}
		for i, r := range got.Results {
			w := want.Results[i]
			if r.ID != w.ID || r.Score != w.Score || r.Sequence != w.Sequence ||
				r.Cycles != w.Cycles || r.EnergyJ != w.EnergyJ || r.AreaUM2 != w.AreaUM2 {
				t.Errorf("parts=%d rank %d: got (id=%d score=%d %q), want (id=%d score=%d %q)",
					parts, i, r.ID, r.Score, r.Sequence, w.ID, w.Score, w.Sequence)
			}
		}
	}
}

// lanesFactory builds lane-pack engines: the same DNA arrays as
// dnaFactory, switched onto the bit-parallel backend so runPairChunk
// races packs of up to 64 lanes.
func lanesFactory(n, m int) (*race.Array, error) {
	a, err := race.NewArray(n, m)
	if err != nil {
		return nil, err
	}
	a.SetBackend(race.BackendLanes)
	return a, nil
}

// lanesDB is a mixed-shape corpus built to exercise every pack shape in
// one search: a 70-entry bucket (one full 64-wide pack plus a 6-wide
// tail), a 5-entry bucket (one partial pack), and a singleton bucket.
func lanesDB(g *seqgen.Generator) []string {
	var db []string
	for i := 0; i < 70; i++ {
		db = append(db, g.Random(8))
	}
	for i := 0; i < 5; i++ {
		db = append(db, g.Random(5))
	}
	return append(db, g.Random(11))
}

// TestLanesSearchMatchesCycle pins the batched scan against the scalar
// reference pipeline: partial packs, full packs, and mixed engine
// shapes must produce reports byte-identical modulo EnginesBuilt, under
// unbounded, thresholded, top-k, and multi-worker requests.
func TestLanesSearchMatchesCycle(t *testing.T) {
	db := lanesDB(seqgen.NewDNA(33))
	query := seqgen.NewDNA(34).Random(7)
	lanesD, err := newDB(db, lanesFactory)
	if err != nil {
		t.Fatal(err)
	}
	refD, err := newDB(db, dnaFactory)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []Request{
		{Threshold: -1, Workers: 1},
		{Threshold: 6, Workers: 1},
		{Threshold: 6, TopK: 4, Workers: 2},
		{Threshold: -1, Workers: 4},
	} {
		want, err := refD.search(query, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lanesD.search(query, req)
		if err != nil {
			t.Fatal(err)
		}
		want.EnginesBuilt, got.EnginesBuilt = 0, 0
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("req %+v: lanes report differs\ncycle: %+v\nlanes: %+v", req, want, got)
		}
	}
}

// TestLanesPackFill pins the pack carving itself via the lane observer:
// one worker scans the mixed corpus as one chunk per engine shape, so
// the packs must come out exactly (64, 6, 5, 1) against a 64-lane
// engine — and identically when the corpus is partitioned over 2 or 3
// shards, because a shape's chunk spans every shard holding it.  A
// scalar-backend pool reports no packs, and clock-gated and generalized
// pools under the lanes backend report packs wider than one lane.
func TestLanesPackFill(t *testing.T) {
	pools, err := NewPools(lanesFactory, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fills [][2]int
	var mu sync.Mutex
	pools.SetLaneObserver(func(filled, width int) {
		mu.Lock()
		fills = append(fills, [2]int{filled, width})
		mu.Unlock()
	})
	db := lanesDB(seqgen.NewDNA(33))
	d, err := newDBWith(db, pools)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.search("ACGTACG", Request{Threshold: -1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{64, 64}, {6, 64}, {5, 64}, {1, 64}}
	if !reflect.DeepEqual(fills, want) {
		t.Fatalf("lane packs = %v, want %v", fills, want)
	}
	for _, parts := range []int{2, 3} {
		fills = nil
		scans := batchShards(t, db, parts)
		if _, err := multiSearch(pools, scans, "ACGTACG", Request{Threshold: -1, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fills, want) {
			t.Fatalf("%d shards: lane packs = %v, want %v", parts, fills, want)
		}
	}
	// A scalar-backend pool races packs of one and must never report
	// them.
	scalar, err := newDB([]string{"ACGT", "TTTT"}, dnaFactory)
	if err != nil {
		t.Fatal(err)
	}
	scalar.pools.SetLaneObserver(func(filled, width int) {
		t.Errorf("observer fired on scalar pools: (%d, %d)", filled, width)
	})
	if _, err := scalar.search("ACGT", Request{Threshold: -1, Workers: 1}); err != nil {
		t.Fatal(err)
	}

	// Clock-gated and generalized pools under the lanes backend race
	// lane packs too, not one lane at a time.
	prepared, err := score.BLOSUM62().PrepareForRace()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		factory Factory
		db      []string
		query   string
	}{
		{"gated", func(n, m int) (*race.Array, error) {
			g, err := race.NewGatedArray(n, m, 2)
			if err != nil {
				return nil, err
			}
			g.SetBackend(race.BackendLanes)
			return g.Array, nil
		}, lanesDB(seqgen.NewDNA(33)), "ACGTACG"},
		{"protein", func(n, m int) (*race.Array, error) {
			g, err := race.NewGeneralArray(n, m, prepared, race.BinaryCounter)
			if err != nil {
				return nil, err
			}
			g.SetBackend(race.BackendLanes)
			return g.Array, nil
		}, seqgen.NewProtein(37).Database(12, 4), "WARD"},
	} {
		pools, err := NewPools(c.factory, nil)
		if err != nil {
			t.Fatal(err)
		}
		widest := 0
		pools.SetLaneObserver(func(filled, width int) {
			mu.Lock()
			widest = max(widest, filled)
			mu.Unlock()
		})
		d, err := newDBWith(c.db, pools)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.search(c.query, Request{Threshold: -1, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if widest < 2 {
			t.Errorf("%s pool: widest lane pack holds %d lanes, want more than one", c.name, widest)
		}
	}
}

// TestLanesErrorAttribution pins the batched path's error contract: a
// corrupt entry anywhere in a pack must surface the same error and slot
// attribution the scalar scan reports.
func TestLanesErrorAttribution(t *testing.T) {
	g := seqgen.NewDNA(35)
	db := g.Database(10, 6)
	db[7] = "ACGTXA" // decode failure mid-pack
	query := g.Random(6)
	want, werr := oneShot(query, db, Request{Threshold: -1, Workers: 1})
	lanesD, err := newDB(db, lanesFactory)
	if err != nil {
		t.Fatal(err)
	}
	got, gerr := lanesD.search(query, Request{Threshold: -1, Workers: 1})
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("error disagreement: cycle %v, lanes %v", werr, gerr)
	}
	if werr == nil {
		t.Fatalf("corrupt entry must fail the search (got %+v / %+v)", want, got)
	}
	if werr.Error() != gerr.Error() {
		t.Fatalf("error text differs:\ncycle: %v\nlanes: %v", werr, gerr)
	}
}

// widthFactory builds lane-pack engines at a fixed multi-word width.
func widthFactory(width int) Factory {
	return func(n, m int) (*race.Array, error) {
		a, err := race.NewArray(n, m)
		if err != nil {
			return nil, err
		}
		a.SetBackend(race.BackendLanes)
		if err := a.SetLaneWidth(width); err != nil {
			return nil, err
		}
		return a, nil
	}
}

// TestLanesPackCarvingWidths pins the pack carving at multi-word
// widths: a 130-entry bucket must come out as one full pack plus a
// partial tail at width 128 and as a single partial pack at 256, with
// the small buckets always one partial pack each.
func TestLanesPackCarvingWidths(t *testing.T) {
	g := seqgen.NewDNA(36)
	var db []string
	for i := 0; i < 130; i++ {
		db = append(db, g.Random(8))
	}
	for i := 0; i < 5; i++ {
		db = append(db, g.Random(5))
	}
	db = append(db, g.Random(11))
	want := map[int][][2]int{
		128: {{128, 128}, {2, 128}, {5, 128}, {1, 128}},
		256: {{130, 256}, {5, 256}, {1, 256}},
	}
	for _, width := range []int{128, 256} {
		pools, err := NewPools(widthFactory(width), nil)
		if err != nil {
			t.Fatal(err)
		}
		var fills [][2]int
		var mu sync.Mutex
		pools.SetLaneObserver(func(filled, w int) {
			mu.Lock()
			fills = append(fills, [2]int{filled, w})
			mu.Unlock()
		})
		d, err := newDBWith(db, pools)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.search("ACGTACGT", Request{Threshold: -1, Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fills, want[width]) {
			t.Fatalf("width %d: lane packs = %v, want %v", width, fills, want[width])
		}
	}
}

// TestLanesSearchMatchesCycleWidths extends the byte-identity pin to
// multi-word packs: at widths 128 and 256 the mixed-shape corpus —
// full packs, partial tails, and singleton buckets that race with one
// live lane — must reproduce the scalar reference report exactly.
func TestLanesSearchMatchesCycleWidths(t *testing.T) {
	db := lanesDB(seqgen.NewDNA(33))
	query := seqgen.NewDNA(34).Random(7)
	refD, err := newDB(db, dnaFactory)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{128, 256} {
		lanesD, err := newDB(db, widthFactory(width))
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range []Request{
			{Threshold: -1, Workers: 1},
			{Threshold: 6, TopK: 4, Workers: 2},
		} {
			want, err := refD.search(query, req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := lanesD.search(query, req)
			if err != nil {
				t.Fatal(err)
			}
			want.EnginesBuilt, got.EnginesBuilt = 0, 0
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("width %d req %+v: report differs\ncycle: %+v\nlanes: %+v",
					width, req, want, got)
			}
		}
	}
}

// batchShards partitions db into parts shard snapshots and returns the
// scan set (full coverage, global IDs = corpus positions).
func batchShards(t *testing.T, db []string, parts int) []ShardScan {
	t.Helper()
	shardEntries := make([][]string, parts)
	shardIDs := make([][]uint64, parts)
	for i, e := range db {
		s := i % parts
		shardEntries[s] = append(shardEntries[s], e)
		shardIDs[s] = append(shardIDs[s], uint64(i))
	}
	scans := make([]ShardScan, parts)
	for s := 0; s < parts; s++ {
		snap, err := NewSnapshot(shardEntries[s], 0)
		if err != nil {
			t.Fatal(err)
		}
		scans[s] = ShardScan{Snap: snap, IDs: shardIDs[s]}
	}
	return scans
}

// TestMultiSearchBatchMatchesSequential pins the cross-query contract:
// every report of a batch must be byte-identical to a batch of that
// query alone — across lane widths, shard counts, and worker counts —
// except EnginesBuilt, which counts the batch.
func TestMultiSearchBatchMatchesSequential(t *testing.T) {
	g := seqgen.NewDNA(37)
	var db []string
	for _, n := range []int{6, 8, 10} {
		db = append(db, g.Database(20, n)...)
	}
	queries := []string{g.Random(8), g.Random(6), g.Random(8), g.Random(10)}
	for _, width := range []int{64, 128} {
		for _, parts := range []int{1, 3} {
			for _, workers := range []int{1, 3} {
				pools, err := NewPools(widthFactory(width), nil)
				if err != nil {
					t.Fatal(err)
				}
				scans := batchShards(t, db, parts)
				req := Request{Threshold: 16, TopK: 7, Workers: workers}
				sets := make([][]ShardScan, len(queries))
				for qi := range queries {
					sets[qi] = scans
				}
				got, err := MultiSearchBatch(pools, sets, queries, req)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(queries) {
					t.Fatalf("%d reports for %d queries", len(got), len(queries))
				}
				for qi, q := range queries {
					want, err := multiSearch(pools, scans, q, req)
					if err != nil {
						t.Fatal(err)
					}
					want.EnginesBuilt, got[qi].EnginesBuilt = 0, 0
					if !reflect.DeepEqual(want, got[qi]) {
						t.Fatalf("width %d parts %d workers %d query %d: batch report differs\nsequential: %+v\nbatch:      %+v",
							width, parts, workers, qi, want, got[qi])
					}
				}
			}
		}
	}
}

// TestMultiSearchBatchKnownOutcomes pins the known-outcome contract: a
// batch handed each query's outcomes from an earlier batch races only
// the entries they do not cover (nothing, when they cover every entry),
// and returns reports byte-identical to racing everything, apart from
// EnginesBuilt and Memoized.  Outcomes come back one per scanned entry,
// in ascending ID order.
func TestMultiSearchBatchKnownOutcomes(t *testing.T) {
	g := seqgen.NewDNA(39)
	var db []string
	for _, n := range []int{6, 8, 10} {
		db = append(db, g.Database(20, n)...)
	}
	queries := []string{g.Random(8), g.Random(6), g.Random(8)}
	pools, err := NewPools(widthFactory(64), nil)
	if err != nil {
		t.Fatal(err)
	}
	packs := 0
	pools.SetLaneObserver(func(filled, width int) { packs++ })
	scans := batchShards(t, db, 3)
	req := Request{Threshold: 12, TopK: 5, Workers: 1}
	sets := func(known func(qi int) []Outcome) [][]ShardScan {
		out := make([][]ShardScan, len(queries))
		for qi := range queries {
			out[qi] = append([]ShardScan(nil), scans...)
			for s := range out[qi] {
				out[qi][s].Known = known(qi)
			}
		}
		return out
	}
	cold, err := MultiSearchBatch(pools, sets(func(int) []Outcome { return nil }), queries, req)
	if err != nil {
		t.Fatal(err)
	}
	for qi, rep := range cold {
		if len(rep.Outcomes) != rep.Scanned || rep.Memoized != 0 {
			t.Fatalf("query %d: %d outcomes, %d memoized for %d scanned", qi, len(rep.Outcomes), rep.Memoized, rep.Scanned)
		}
		for i := 1; i < len(rep.Outcomes); i++ {
			if rep.Outcomes[i-1].ID >= rep.Outcomes[i].ID {
				t.Fatalf("query %d: outcomes not in ascending ID order at %d", qi, i)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		every int // keep every n-th known outcome
	}{{"all known", 1}, {"half known", 2}} {
		packs = 0
		known := func(qi int) []Outcome {
			var k []Outcome
			for i, o := range cold[qi].Outcomes {
				if i%tc.every == 0 {
					k = append(k, o)
				}
			}
			return k
		}
		warm, err := MultiSearchBatch(pools, sets(known), queries, req)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range queries {
			if got, want := warm[qi].Memoized, len(known(qi)); got != want {
				t.Errorf("%s, query %d: %d memoized, want %d", tc.name, qi, got, want)
			}
			w, c := *warm[qi], *cold[qi]
			w.EnginesBuilt, c.EnginesBuilt, w.Memoized = 0, 0, 0
			if !reflect.DeepEqual(w, c) {
				t.Fatalf("%s, query %d: report differs\nknown: %+v\ncold:  %+v", tc.name, qi, w, c)
			}
		}
		if (packs == 0) != (tc.every == 1) {
			t.Errorf("%s: %d lane packs raced", tc.name, packs)
		}
	}
}

// TestMultiSearchBatchErrorAttribution pins the batch error contract at
// a multi-word width: a corrupt entry raced by only one query must
// surface as a *QueryError naming that query with the scalar path's
// error text, and when several queries race it, the lowest query index
// wins — exactly where sequential calls would first stop.
func TestMultiSearchBatchErrorAttribution(t *testing.T) {
	g := seqgen.NewDNA(38)
	db := g.Database(10, 6)
	db[7] = "ACGTXA" // decode failure mid-pack
	queries := []string{g.Random(6), g.Random(6), g.Random(6)}
	// Candidate subsets: query 0 skips the corrupt slot, queries 1 and 2
	// both race it.
	clean := make([]int, 0, len(db)-1)
	for i := range db {
		if i != 7 {
			clean = append(clean, i)
		}
	}
	pools, err := NewPools(widthFactory(128), nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshot(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := identityIDs(len(db))
	sets := [][]ShardScan{
		{{Snap: snap, Candidates: clean, IDs: ids}},
		{{Snap: snap, IDs: ids}},
		{{Snap: snap, IDs: ids}},
	}
	_, err = MultiSearchBatch(pools, sets, queries, Request{Threshold: -1, Workers: 1})
	if err == nil {
		t.Fatal("corrupt entry must fail the batch")
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("error %v (%T) is not a *QueryError", err, err)
	}
	if qe.Query != 1 {
		t.Fatalf("error attributed to query %d, want 1 (the lowest query racing the corrupt entry)", qe.Query)
	}
	_, werr := oneShot(queries[1], db, Request{Threshold: -1, Workers: 1})
	if werr == nil {
		t.Fatal("scalar reference did not fail")
	}
	if qe.Err.Error() != werr.Error() {
		t.Fatalf("error text differs:\nscalar: %v\nbatch:  %v", werr, qe.Err)
	}
}

// TestKeepBest checks the fold's top-K selection against a full sort of
// rank keys with many tied scores, at every K from none to more than
// all.
func TestKeepBest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		refs := make([]rankRef, rng.Intn(40))
		for i, id := range rng.Perm(len(refs)) {
			refs[i] = rankRef{score: int64(rng.Intn(6)), id: uint64(id), ref: int32(i)}
		}
		want := slices.Clone(refs)
		slices.SortFunc(want, cmpRank)
		for k := 0; k <= len(refs)+1; k++ {
			var best []rankRef
			for _, r := range refs {
				best = keepBest(best, r, k)
			}
			slices.SortFunc(best, cmpRank)
			n := len(want)
			if k > 0 {
				n = min(k, n)
			}
			if !slices.Equal(best, want[:n]) {
				t.Fatalf("trial %d k %d: kept %v, want %v", trial, k, best, want[:n])
			}
		}
	}
}
