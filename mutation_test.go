package racelogic_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"racelogic"
	"racelogic/internal/seqgen"
)

// TestDatabaseInsertRemove drives the public mutation API end to end:
// stable IDs, version counting, all-or-nothing failures, and searches
// reflecting every landed mutation.
func TestDatabaseInsertRemove(t *testing.T) {
	g := seqgen.NewDNA(71)
	entries := g.Database(6, 8)
	db, err := racelogic.NewDatabase(entries, racelogic.WithSeedIndex(4))
	if err != nil {
		t.Fatal(err)
	}
	if db.Version() != 0 || db.Len() != 6 {
		t.Fatalf("fresh database: version=%d len=%d", db.Version(), db.Len())
	}
	if got, want := db.IDs(), []uint64{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("initial IDs = %v, want %v", got, want)
	}

	query := g.Random(8)
	planted, err := g.Mutate(query, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := db.Insert(planted, g.Random(10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []uint64{6, 7}) {
		t.Fatalf("inserted IDs = %v, want [6 7]", ids)
	}
	if db.Version() != 1 || db.Len() != 8 || db.Buckets() != 2 {
		t.Fatalf("after insert: version=%d len=%d buckets=%d", db.Version(), db.Len(), db.Buckets())
	}
	rep, err := db.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 {
		t.Errorf("report version = %d, want 1", rep.Version)
	}
	found := false
	for _, r := range rep.Results {
		if r.ID == 6 {
			found = true
			if r.Sequence != planted {
				t.Errorf("ID 6 carries sequence %q, want %q", r.Sequence, planted)
			}
		}
	}
	if !found {
		t.Error("inserted near-match did not surface in the next search")
	}

	// Remove is all-or-nothing: the unknown ID fails the whole batch.
	if err := db.Remove(0, 99); !errors.Is(err, racelogic.ErrUnknownID) {
		t.Errorf("remove with unknown ID: err = %v, want ErrUnknownID", err)
	}
	if err := db.Remove(0, 0); err == nil {
		t.Error("repeated ID in one Remove must error")
	}
	if db.Len() != 8 || db.Version() != 1 {
		t.Errorf("failed removes must not mutate: len=%d version=%d", db.Len(), db.Version())
	}
	if err := db.Remove(6); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 7 || db.Version() != 2 || db.Tombstones() != 1 {
		t.Fatalf("after remove: len=%d version=%d tombstones=%d", db.Len(), db.Version(), db.Tombstones())
	}
	rep, err = db.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.ID == 6 {
			t.Error("removed entry still surfaces in searches")
		}
	}
	if rep.Scanned+rep.Skipped != db.Len() {
		t.Errorf("scanned %d + skipped %d != %d live entries", rep.Scanned, rep.Skipped, db.Len())
	}
	// Removing an already-removed ID is unknown, not a double delete.
	if err := db.Remove(6); !errors.Is(err, racelogic.ErrUnknownID) {
		t.Errorf("re-removing: err = %v, want ErrUnknownID", err)
	}

	// Insert validates the alphabet atomically: one bad entry, nothing
	// lands, and the version stays put.
	if _, err := db.Insert("ACGT", "ACGN"); err == nil {
		t.Error("insert with a non-DNA symbol must error")
	}
	if _, err := db.Insert("ACGT", ""); err == nil {
		t.Error("insert with an empty entry must error")
	}
	if db.Len() != 7 || db.Version() != 2 {
		t.Errorf("failed inserts must not mutate: len=%d version=%d", db.Len(), db.Version())
	}
	if ids, err := db.Insert(); err != nil || len(ids) != 0 || db.Version() != 2 {
		t.Errorf("empty insert must be a version-preserving no-op: ids=%v err=%v version=%d", ids, err, db.Version())
	}
}

// TestDatabaseCompaction removes until tombstones outnumber live
// entries and checks the dense rebuild: IDs survive renumbering, the
// incrementally maintained seed index is rebuilt consistently, and
// searches agree with a fresh database over the same live set.
func TestDatabaseCompaction(t *testing.T) {
	g := seqgen.NewDNA(73)
	entries := g.Database(10, 9)
	db, err := racelogic.NewDatabase(entries, racelogic.WithSeedIndex(4))
	if err != nil {
		t.Fatal(err)
	}
	// Remove 6 of 10: dead (6) > live (4) triggers compaction.
	if err := db.Remove(0, 2, 4, 6, 8, 9); err != nil {
		t.Fatal(err)
	}
	if db.Tombstones() != 0 {
		t.Fatalf("tombstones = %d after passing the compaction threshold, want 0", db.Tombstones())
	}
	if got, want := db.IDs(), []uint64{1, 3, 5, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("IDs after compaction = %v, want %v", got, want)
	}
	live := []string{entries[1], entries[3], entries[5], entries[7]}
	fresh, err := racelogic.NewDatabase(live, racelogic.WithSeedIndex(4))
	if err != nil {
		t.Fatal(err)
	}
	query := g.Random(9)
	got, err := db.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	// The compacted database matches a fresh one entry for entry; only
	// IDs, the version counter, and engine counts legitimately differ.
	if got.Scanned != want.Scanned || got.Skipped != want.Skipped || len(got.Results) != len(want.Results) {
		t.Fatalf("compacted search %+v differs from fresh %+v", got, want)
	}
	for i, r := range got.Results {
		w := want.Results[i]
		if r.Index != w.Index || r.Sequence != w.Sequence || r.Score != w.Score {
			t.Errorf("rank %d: compacted (%d,%q,%d) vs fresh (%d,%q,%d)",
				i, r.Index, r.Sequence, r.Score, w.Index, w.Sequence, w.Score)
		}
	}
	// Slots renumbered densely, so new inserts extend cleanly.
	ids, err := db.Insert(g.Random(9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []uint64{10}) {
		t.Errorf("post-compaction insert IDs = %v, want [10]", ids)
	}
	if db.Len() != 5 {
		t.Errorf("len = %d, want 5", db.Len())
	}
}

// TestDatabaseConcurrentMutation is the snapshot-isolation stress test,
// run under -race in CI.  A mutator repeatedly inserts a pair of
// near-matches in one call and removes them in another, while searchers
// hammer the same query.  Every report must be atomic: both pair
// members present or neither, and the scanned+skipped total equal to
// the live size of one of the two legal states.  Tombstones accumulate
// across rounds, so the compaction path runs under fire too.
func TestDatabaseConcurrentMutation(t *testing.T) {
	g := seqgen.NewDNA(79)
	base := g.Database(10, 10) // length 10: cannot collide with the length-12 pair
	db, err := racelogic.NewDatabase(base, racelogic.WithSeedIndex(4))
	if err != nil {
		t.Fatal(err)
	}
	query := g.Random(12)
	p, err := g.Mutate(query, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := g.Mutate(query, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	const rounds, searchers = 40, 6
	var stop atomic.Bool
	errs := make(chan error, searchers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < rounds; i++ {
			ids, err := db.Insert(p, q)
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
				var nP, nQ int
				for _, r := range rep.Results {
					switch r.Sequence {
					case p:
						nP++
					case q:
						nQ++
					}
				}
				if nP != nQ || nP > 1 {
					errs <- fmt.Errorf("version %d: saw %d copies of P and %d of Q — a half-applied mutation",
						rep.Version, nP, nQ)
					return
				}
				size := rep.Scanned + rep.Skipped
				if want := len(base) + 2*nP; size != want {
					errs <- fmt.Errorf("version %d: scanned+skipped = %d, want %d with pair present=%v",
						rep.Version, size, want, nP == 1)
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

// TestSnapshotRoundTrip is the durability acceptance property: after
// mutations, Persist → Close → Open reproduces the database so exactly
// that search reports are byte-identical modulo EnginesBuilt, and the
// ID/version counters continue where they left off.  Tombstones are
// present throughout: the snapshots capture them rather than compact
// them, so Index positions (which rank tombstoned IDs too), Skipped and
// Version all survive the round trip.
func TestSnapshotRoundTrip(t *testing.T) {
	g := seqgen.NewDNA(83)
	var entries []string
	for _, n := range []int{8, 10, 12} {
		entries = append(entries, g.Database(8, n)...)
	}
	db, err := racelogic.NewDatabase(entries,
		racelogic.WithSeedIndex(4), racelogic.WithThreshold(16), racelogic.WithTopK(10), racelogic.WithLibrary("OSU"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(g.Random(12), g.Random(9)); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(2, 7, 11); err != nil {
		t.Fatal(err)
	}
	wantDead, wantVersion := db.Tombstones(), db.Version()
	if wantDead == 0 {
		t.Fatal("test needs tombstones at save time to exercise their capture")
	}

	dir := t.TempDir()
	if err := db.Persist(dir); err != nil {
		t.Fatal(err)
	}
	if db.Tombstones() != wantDead || db.Version() != wantVersion || db.Compactions() != 0 {
		t.Errorf("Persist changed the database: tombstones %d → %d, version %d → %d, %d compactions",
			wantDead, db.Tombstones(), wantVersion, db.Version(), db.Compactions())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := racelogic.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Len() != db.Len() || back.Version() != wantVersion || back.Tombstones() != wantDead ||
		back.SeedK() != db.SeedK() || back.Buckets() != db.Buckets() {
		t.Fatalf("reopened shape differs: len %d/%d version %d/%d tombstones %d/%d seedk %d/%d buckets %d/%d",
			back.Len(), db.Len(), back.Version(), wantVersion, back.Tombstones(), wantDead,
			back.SeedK(), db.SeedK(), back.Buckets(), db.Buckets())
	}
	if !reflect.DeepEqual(back.IDs(), db.IDs()) {
		t.Fatalf("reopened IDs %v differ from saved %v", back.IDs(), db.IDs())
	}
	queries := []string{g.Random(12), g.Random(10), g.Random(6), g.Random(3)}
	for _, q := range queries {
		want, err := db.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripEngines(want), stripEngines(got)) {
			t.Errorf("query %q: reopened report differs:\n got %+v\nwant %+v", q, got, want)
		}
		// The default options fingerprint survived: a thresholded,
		// truncated, seeded search behaves identically without re-passing
		// any option.
		full, err := back.Search(q, racelogic.WithFullScan(), racelogic.WithThreshold(-1))
		if err != nil {
			t.Fatal(err)
		}
		if full.Scanned != back.Len() {
			t.Errorf("query %q: full scan raced %d of %d", q, full.Scanned, back.Len())
		}
	}

	// Counters resume: the next insert must not reuse a persisted ID.
	oldIDs := back.IDs()
	ids, err := back.Insert(g.Random(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range oldIDs {
		if ids[0] == old {
			t.Fatalf("reused stable ID %d after reload", old)
		}
	}
	if back.Version() != db.Version()+1 {
		t.Errorf("version after reload+insert = %d, want %d", back.Version(), db.Version()+1)
	}
}

// TestOpenSnapshotErrors pins the shard-snapshot failure modes at
// Open: a missing directory reports ErrNoDatabase, and one flipped byte
// in one shard's snapshot fails the whole Open, never half-loads.
func TestOpenSnapshotErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := racelogic.Open(filepath.Join(dir, "missing")); !errors.Is(err, racelogic.ErrNoDatabase) {
		t.Errorf("missing directory: %v, want ErrNoDatabase", err)
	}
	db, err := racelogic.NewDatabase([]string{"ACGT", "TTTT"}, racelogic.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "shard-*.snap"))
	if err != nil || len(snaps) != 2 {
		t.Fatalf("want 2 shard snapshots in %s, got %v (err=%v)", dir, snaps, err)
	}
	raw, err := os.ReadFile(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(snaps[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := racelogic.Open(dir); err == nil || errors.Is(err, racelogic.ErrNoDatabase) {
		t.Errorf("corrupted shard snapshot: %v, want a load error", err)
	}

	// A format-2 snapshot — seed index serialized, tombstones compacted
	// away — is refused by its version number, not misread.
	raw[len(raw)/2] ^= 0xff
	raw[len("RLSNAP")] = 2
	if err := os.WriteFile(snaps[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := racelogic.Open(dir); err == nil || !strings.Contains(err.Error(), "format version 2") {
		t.Errorf("format-2 shard snapshot: %v, want a refusal naming version 2", err)
	}
}
