package racelogic_test

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"racelogic"
	"racelogic/internal/seqgen"
)

// shardCounts is the partition sweep the determinism properties run
// over: the degenerate single shard, a power of two, a prime, and a
// count larger than some test corpora.
var shardCounts = []int{1, 2, 7, 16}

// TestShardedSearchEquivalence is the tentpole acceptance property:
// for every shard count, a database driven through the same load and
// mutation script returns search reports byte-identical (modulo
// EnginesBuilt) to the single-shard database — results, Index/ID
// coordinates, aggregates, and the floating-point energy total alike.
func TestShardedSearchEquivalence(t *testing.T) {
	buildAll := func(entries []string, opts ...racelogic.Option) map[int]*racelogic.Database {
		t.Helper()
		dbs := make(map[int]*racelogic.Database, len(shardCounts))
		for _, n := range shardCounts {
			db, err := racelogic.NewDatabase(entries, append([]racelogic.Option{racelogic.WithShards(n)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if db.Shards() != n {
				t.Fatalf("Shards() = %d, want %d", db.Shards(), n)
			}
			dbs[n] = db
		}
		return dbs
	}
	compareAll := func(stage string, dbs map[int]*racelogic.Database, queries []string, opts ...racelogic.Option) {
		t.Helper()
		for _, q := range queries {
			want, err := dbs[1].Search(q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range shardCounts[1:] {
				got, err := dbs[n].Search(q, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(stripEngines(want), stripEngines(got)) {
					t.Errorf("%s: shards=%d query %q: report differs from shards=1:\n got %+v\nwant %+v",
						stage, n, q, got, want)
				}
			}
		}
	}

	g := seqgen.NewDNA(131)
	var entries []string
	for _, m := range []int{7, 9, 12} {
		entries = append(entries, g.Database(14, m)...)
	}
	queries := []string{g.Random(9), g.Random(12), g.Random(5), g.Random(3)}

	dbs := buildAll(entries, racelogic.WithSeedIndex(4), racelogic.WithTopK(11), racelogic.WithThreshold(18))
	compareAll("fresh", dbs, queries)
	compareAll("full-scan", dbs, queries, racelogic.WithFullScan(), racelogic.WithThreshold(-1))

	// Drive every variant through one mutation script: batch inserts
	// (spanning shards), removes that leave tombstones, removes that
	// trigger the automatic compaction, and a manual Compact.  The
	// databases must agree after every step — Version included.
	batch := []string{g.Random(9), g.Random(12), g.Random(12), g.Random(7)}
	for _, n := range shardCounts {
		if _, err := dbs[n].Insert(batch...); err != nil {
			t.Fatal(err)
		}
		if err := dbs[n].Remove(3, 17, 42, 44); err != nil {
			t.Fatal(err)
		}
	}
	compareAll("tombstoned", dbs, queries)
	for _, n := range shardCounts[1:] {
		if got, want := dbs[n].Tombstones(), dbs[1].Tombstones(); got != want {
			t.Errorf("shards=%d: tombstones=%d, want %d", n, got, want)
		}
		if !reflect.DeepEqual(dbs[n].IDs(), dbs[1].IDs()) {
			t.Errorf("shards=%d: IDs %v differ from single-shard %v", n, dbs[n].IDs(), dbs[1].IDs())
		}
	}
	stats := make(map[int]*racelogic.CompactStats, len(shardCounts))
	for _, n := range shardCounts {
		st, err := dbs[n].Compact()
		if err != nil {
			t.Fatal(err)
		}
		stats[n] = st
	}
	for _, n := range shardCounts[1:] {
		if !reflect.DeepEqual(stats[n], stats[1]) {
			t.Errorf("shards=%d: compact stats %+v differ from single-shard %+v", n, stats[n], stats[1])
		}
	}
	compareAll("compacted", dbs, queries)
	for _, n := range shardCounts[1:] {
		if dbs[n].Version() != dbs[1].Version() {
			t.Errorf("shards=%d: version %d, want %d", n, dbs[n].Version(), dbs[1].Version())
		}
		if dbs[n].Len() != dbs[1].Len() || dbs[n].Buckets() != dbs[1].Buckets() {
			t.Errorf("shards=%d: len=%d buckets=%d, want %d/%d",
				n, dbs[n].Len(), dbs[n].Buckets(), dbs[1].Len(), dbs[1].Buckets())
		}
	}
}

// TestShardedCompactRemapEquivalence pins the global Remap coordinates:
// the pre→post slot remap of a partitioned compaction must equal the
// single-shard one exactly.
func TestShardedCompactRemapEquivalence(t *testing.T) {
	g := seqgen.NewDNA(137)
	entries := g.Database(12, 8)
	var want *racelogic.CompactStats
	for _, n := range shardCounts {
		db, err := racelogic.NewDatabase(entries, racelogic.WithShards(n),
			racelogic.WithCompactionPolicy(racelogic.CompactionPolicy{})) // manual only
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Remove(1, 4, 5, 9, 10); err != nil {
			t.Fatal(err)
		}
		st, err := db.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			want = st
			continue
		}
		if !reflect.DeepEqual(st, want) {
			t.Errorf("shards=%d: compact stats %+v differ from single-shard %+v", n, st, want)
		}
	}
}

// TestShardedConcurrentMutationAtomicity is the mid-search atomicity
// property under partitioning, run with -race in CI: a mutator inserts
// a multi-entry batch (spanning several of the 7 shards) in one call
// and removes it in another, while searchers hammer the same query.
// Every report must see all of the batch or none of it — the one-CAS
// view publish under test.
func TestShardedConcurrentMutationAtomicity(t *testing.T) {
	g := seqgen.NewDNA(139)
	base := g.Database(10, 10) // length 10: cannot collide with the length-12 batch
	db, err := racelogic.NewDatabase(base, racelogic.WithSeedIndex(4), racelogic.WithShards(7))
	if err != nil {
		t.Fatal(err)
	}
	query := g.Random(12)
	batch := make([]string, 4)
	for i := range batch {
		if batch[i], err = g.Mutate(query, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	members := make(map[string]bool, len(batch))
	for _, e := range batch {
		members[e] = true
	}
	if len(members) != len(batch) {
		t.Skip("mutation collision produced duplicate batch entries; reseed")
	}

	const rounds, searchers = 30, 6
	var stop atomic.Bool
	errs := make(chan error, searchers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < rounds; i++ {
			ids, err := db.Insert(batch...)
			if err != nil {
				errs <- err
				return
			}
			if err := db.Remove(ids...); err != nil {
				errs <- err
				return
			}
		}
	}()
	for w := 0; w < searchers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rep, err := db.Search(query)
				if err != nil {
					errs <- err
					return
				}
				seen := 0
				for _, r := range rep.Results {
					if members[r.Sequence] {
						seen++
					}
				}
				if seen != 0 && seen != len(batch) {
					errs <- fmt.Errorf("version %d: saw %d of the %d-entry batch — a half-applied multi-shard mutation",
						rep.Version, seen, len(batch))
					return
				}
				if size, want := rep.Scanned+rep.Skipped, len(base)+seen; size != want {
					errs <- fmt.Errorf("version %d: scanned+skipped = %d, want %d", rep.Version, size, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if db.Len() != len(base) {
		t.Errorf("final live size = %d, want %d", db.Len(), len(base))
	}
	if got := db.Version(); got < int64(2*rounds) {
		t.Errorf("version = %d after %d mutations", got, 2*rounds)
	}
}

// TestOpenReshardsInPlace pins WithShards on Open: the directory is
// rewritten under the new partition count with nothing lost, and the
// new layout is what later default opens recover.
func TestOpenReshardsInPlace(t *testing.T) {
	g := seqgen.NewDNA(151)
	dir := t.TempDir()
	db, err := racelogic.NewDatabase(g.Database(10, 9), racelogic.WithSeedIndex(4), racelogic.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir, racelogic.WithSnapshotInterval(0), racelogic.WithSnapshotEvery(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(g.Random(9), g.Random(13)); err != nil {
		t.Fatal(err)
	}
	wantIDs, wantLen, wantVersion := db.IDs(), db.Len(), db.Version()
	query := g.Random(9)
	want, err := db.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := racelogic.Open(dir, racelogic.WithShards(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards() != 5 {
		t.Fatalf("resharded Shards() = %d, want 5", res.Shards())
	}
	if res.Len() != wantLen || res.Version() != wantVersion || !reflect.DeepEqual(res.IDs(), wantIDs) {
		t.Fatalf("reshard changed the database: len=%d version=%d ids=%v", res.Len(), res.Version(), res.IDs())
	}
	got, err := res.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripEngines(want), stripEngines(got)) {
		t.Errorf("resharded report differs:\n got %+v\nwant %+v", got, want)
	}
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := racelogic.Open(dir) // no WithShards: the dir's count rules
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Shards() != 5 {
		t.Errorf("reopened Shards() = %d, want the resharded 5", back.Shards())
	}
}

// TestReshardKeepsTombstones pins that a reshard carries the tombstones
// a crash left in a journal tail: reopening under another shard count
// reports the same Version, Tombstones, IDs and reports, Index
// positions included, as the database that crashed, and so does the
// resharded layout when it is opened again.
func TestReshardKeepsTombstones(t *testing.T) {
	g := seqgen.NewDNA(167)
	dir := t.TempDir()
	db, err := racelogic.NewDatabase(g.Database(10, 8), racelogic.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir, racelogic.WithSnapshotInterval(0), racelogic.WithSnapshotEvery(0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(1); err != nil {
		t.Fatal(err)
	}
	query := g.Random(8)
	want, err := db.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) != db.Len() {
		t.Fatalf("test needs every entry ranked: %d results of %d", len(want.Results), db.Len())
	}
	wantIDs, wantVersion := db.IDs(), db.Version()
	db = nil // crash: the remove lives only in a journal tail

	for _, opts := range [][]racelogic.Option{{racelogic.WithShards(5)}, nil} {
		back, err := racelogic.Open(dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if back.Shards() != 5 || back.Version() != wantVersion || back.Tombstones() != 1 ||
			!reflect.DeepEqual(back.IDs(), wantIDs) {
			t.Errorf("%d shards at version %d with %d tombstones and IDs %v; want 5 at %d with 1 and %v",
				back.Shards(), back.Version(), back.Tombstones(), back.IDs(), wantVersion, wantIDs)
		}
		got, err := back.Search(query)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripEngines(got), stripEngines(want)) {
			t.Errorf("resharded report differs:\n got %+v\nwant %+v", got, want)
		}
		if err := back.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALSegmentRotationBoundsJournal pins the rotation satellite: with
// the count and interval snapshot triggers disabled, a tiny segment cap
// still keeps the journal bounded, because each sealed segment nudges
// the snapshotter to fold it away eagerly.
func TestWALSegmentRotationBoundsJournal(t *testing.T) {
	g := seqgen.NewDNA(157)
	dir := t.TempDir()
	db, err := racelogic.NewDatabase(g.Database(4, 8), racelogic.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir,
		racelogic.WithSnapshotInterval(0), racelogic.WithSnapshotEvery(0),
		racelogic.WithWALSegmentBytes(256)); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 60; i++ {
		if _, err := db.Insert(g.Random(8)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for db.Snapshots() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("segment rotation never triggered an eager snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Once the snapshotter has caught up, the journal must be far below
	// what 60 journaled inserts would otherwise hold.  Poll: inserts and
	// checkpoints interleave, so the bound holds at quiescence.
	for db.WALBytes() > 4*256 {
		if time.Now().After(deadline) {
			t.Fatalf("journal never folded: wal_bytes=%d after rotation-triggered snapshots (segments=%d)",
				db.WALBytes(), db.WALSegments())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if db.SnapshotFailures() != 0 {
		t.Errorf("%d snapshot failures during rotation folding", db.SnapshotFailures())
	}
	// Recovery from the segmented layout works.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := racelogic.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Len() != 64 {
		t.Errorf("recovered %d entries from the rotated layout, want 64", back.Len())
	}
}

// TestShardedCrashRecovery reruns the durability acceptance property at
// an explicit non-default shard count: recovery from per-shard journal
// tails is byte-identical to a never-killed control.
func TestShardedCrashRecovery(t *testing.T) {
	g := seqgen.NewDNA(163)
	gCtl := seqgen.NewDNA(163)
	dir := t.TempDir()
	opts := []racelogic.Option{racelogic.WithSeedIndex(4), racelogic.WithTopK(10), racelogic.WithShards(7)}
	durable, err := racelogic.NewDatabase(g.Database(8, 10), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.Persist(dir, racelogic.WithSnapshotInterval(0), racelogic.WithSnapshotEvery(0)); err != nil {
		t.Fatal(err)
	}
	control, err := racelogic.NewDatabase(gCtl.Database(8, 10), opts...)
	if err != nil {
		t.Fatal(err)
	}
	mutationScript(t, durable, g)
	mutationScript(t, control, gCtl)
	if durable.WALRecords() == 0 {
		t.Fatal("test is vacuous: no journaled mutations to recover")
	}
	durable = nil // crash

	back, err := racelogic.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Shards() != 7 {
		t.Fatalf("recovered Shards() = %d, want 7", back.Shards())
	}
	if back.Len() != control.Len() || back.Version() != control.Version() ||
		back.Tombstones() != control.Tombstones() || !reflect.DeepEqual(back.IDs(), control.IDs()) {
		t.Fatalf("recovered shape differs: len %d/%d version %d/%d tombstones %d/%d",
			back.Len(), control.Len(), back.Version(), control.Version(),
			back.Tombstones(), control.Tombstones())
	}
	for _, q := range []string{g.Random(12), g.Random(9)} {
		want, err := control.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripEngines(want), stripEngines(got)) {
			t.Errorf("query %q: recovered report differs:\n got %+v\nwant %+v", q, got, want)
		}
	}
}
