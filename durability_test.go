package racelogic_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"racelogic"
	"racelogic/internal/seqgen"
)

// mutationScript drives one database through a representative workload:
// batch inserts, removes that cross the compaction threshold, and a
// manual compact.  It returns the inserted IDs so scripts stay in step
// across databases.
func mutationScript(t *testing.T, db *racelogic.Database, g *seqgen.Generator) {
	t.Helper()
	var ids []uint64
	for round := 0; round < 3; round++ {
		batch := []string{g.Random(9), g.Random(12), g.Random(12)}
		got, err := db.Insert(batch...)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, got...)
	}
	// Remove enough to trip the default dead>live policy at least once.
	if err := db.Remove(ids[0], ids[2], ids[4]); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(ids[6]); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(g.Random(10)); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecovery is the PR's acceptance property: a database killed
// between snapshots — dropped without Close, nothing saved since
// Persist — reopens via Open(dir) with zero acknowledged mutations
// lost, returning byte-identical search reports (modulo EnginesBuilt)
// to a never-killed database that ran the same script.
func TestCrashRecovery(t *testing.T) {
	g := seqgen.NewDNA(91)
	gCtl := seqgen.NewDNA(91) // identical stream for the control
	base := g.Database(8, 10)
	dir := t.TempDir()

	opts := []racelogic.Option{racelogic.WithSeedIndex(4), racelogic.WithTopK(10), racelogic.WithThreshold(18)}
	durable, err := racelogic.NewDatabase(base, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// Disable background snapshots: recovery must work from the initial
	// snapshot plus the WAL alone.
	if err := durable.Persist(dir, racelogic.WithSnapshotInterval(0), racelogic.WithSnapshotEvery(0)); err != nil {
		t.Fatal(err)
	}
	control, err := racelogic.NewDatabase(gCtl.Database(8, 10), opts...)
	if err != nil {
		t.Fatal(err)
	}

	mutationScript(t, durable, g)
	mutationScript(t, control, gCtl)

	// "Crash": drop the durable handle without Close or Checkpoint.  The
	// WAL is all that remembers the mutations.
	if durable.WALRecords() == 0 {
		t.Fatal("test is vacuous: no journaled mutations to recover")
	}
	durable = nil

	back, err := racelogic.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Len() != control.Len() || back.Version() != control.Version() ||
		back.Tombstones() != control.Tombstones() || back.Buckets() != control.Buckets() {
		t.Fatalf("recovered shape differs: len %d/%d version %d/%d tombstones %d/%d buckets %d/%d",
			back.Len(), control.Len(), back.Version(), control.Version(),
			back.Tombstones(), control.Tombstones(), back.Buckets(), control.Buckets())
	}
	if !reflect.DeepEqual(back.IDs(), control.IDs()) {
		t.Fatalf("recovered IDs %v differ from control %v", back.IDs(), control.IDs())
	}
	for _, q := range []string{g.Random(12), g.Random(10), g.Random(9), g.Random(5)} {
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

	// Counters resumed: the next IDs must be fresh on both.
	gotIDs, err := back.Insert(g.Random(8))
	if err != nil {
		t.Fatal(err)
	}
	wantIDs, err := control.Insert(gCtl.Random(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Errorf("post-recovery insert IDs %v, control %v", gotIDs, wantIDs)
	}
}

// TestCrashRecoveryAfterCheckpoint crashes after a checkpoint plus more
// mutations: recovery must load the newest snapshot, skip the journal
// records it covers, and replay only the tail.
func TestCrashRecoveryAfterCheckpoint(t *testing.T) {
	g := seqgen.NewDNA(97)
	dir := t.TempDir()
	db, err := racelogic.NewDatabase(g.Database(5, 8), racelogic.WithSeedIndex(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir, racelogic.WithSnapshotInterval(0), racelogic.WithSnapshotEvery(0)); err != nil {
		t.Fatal(err)
	}
	preIDs, err := db.Insert(g.Random(8), g.Random(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.WALRecords() != 0 {
		t.Fatalf("checkpoint left %d journal records", db.WALRecords())
	}
	if db.Snapshots() != 1 {
		t.Fatalf("Snapshots() = %d after one checkpoint", db.Snapshots())
	}
	postIDs, err := db.Insert(g.Random(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(preIDs[0]); err != nil {
		t.Fatal(err)
	}
	wantLen, wantVersion := db.Len(), db.Version()
	db = nil // crash

	back, err := racelogic.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Len() != wantLen || back.Version() != wantVersion {
		t.Fatalf("recovered len=%d version=%d, want %d/%d", back.Len(), back.Version(), wantLen, wantVersion)
	}
	ids := back.IDs()
	for _, id := range ids {
		if id == preIDs[0] {
			t.Error("removed entry came back after recovery")
		}
	}
	found := false
	for _, id := range ids {
		if id == postIDs[0] {
			found = true
		}
	}
	if !found {
		t.Error("post-checkpoint insert lost in recovery")
	}
}

// TestBackgroundSnapshotter pins the count trigger: after snapEvery
// mutations the loop folds the journal into the snapshot on its own.
func TestBackgroundSnapshotter(t *testing.T) {
	g := seqgen.NewDNA(101)
	dir := t.TempDir()
	db, err := racelogic.NewDatabase(g.Database(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir, racelogic.WithSnapshotEvery(2), racelogic.WithSnapshotInterval(0)); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Insert(g.Random(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(g.Random(8)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for db.Snapshots() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background snapshotter never fired on the mutation-count trigger")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if db.SnapshotFailures() != 0 {
		t.Errorf("%d background snapshot failures", db.SnapshotFailures())
	}
}

// TestCompactionPolicy pins the policy knobs on a memory-only database:
// MaxDead triggers ahead of the ratio, and the zero policy never
// auto-compacts but leaves manual Compact (and its remap) working.
func TestCompactionPolicy(t *testing.T) {
	g := seqgen.NewDNA(103)
	entries := g.Database(10, 9)
	db, err := racelogic.NewDatabase(entries,
		racelogic.WithCompactionPolicy(racelogic.CompactionPolicy{MaxDead: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(0); err != nil {
		t.Fatal(err)
	}
	if db.Tombstones() != 1 {
		t.Fatalf("one remove under MaxDead=2 must tombstone, got %d", db.Tombstones())
	}
	if err := db.Remove(1); err != nil {
		t.Fatal(err)
	}
	if db.Tombstones() != 0 {
		t.Fatalf("second remove must hit MaxDead=2 and compact, got %d tombstones", db.Tombstones())
	}

	manual, err := racelogic.NewDatabase(entries, racelogic.WithCompactionPolicy(racelogic.CompactionPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := manual.Remove(0, 1, 2, 3, 4, 5, 6); err != nil {
		t.Fatal(err)
	}
	if manual.Tombstones() != 7 {
		t.Fatalf("zero policy must never auto-compact, got %d tombstones", manual.Tombstones())
	}
	vBefore := manual.Version()
	st, err := manual.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Reclaimed != 7 || st.Live != 3 || st.Version != vBefore+1 {
		t.Fatalf("manual compact stats = %+v", st)
	}
	if len(st.Remap) != 10 {
		t.Fatalf("remap covers %d slots, want 10", len(st.Remap))
	}
	// Slots 7,8,9 survive as 0,1,2; everything else dropped.
	for old, now := range st.Remap {
		want := -1
		if old >= 7 {
			want = old - 7
		}
		if now != want {
			t.Errorf("remap[%d] = %d, want %d", old, now, want)
		}
	}
	// Idempotent: nothing left to reclaim.
	st2, err := manual.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Reclaimed != 0 || st2.Remap != nil || st2.Version != st.Version {
		t.Fatalf("second compact must be a no-op, got %+v", st2)
	}

	if _, err := racelogic.NewDatabase(entries,
		racelogic.WithCompactionPolicy(racelogic.CompactionPolicy{MaxDead: -1})); err == nil {
		t.Error("negative MaxDead must error")
	}
}

// TestDurabilityAPIErrors pins the misuse cases: wrong options in the
// wrong place, double Persist, Open on nothing, mutations after Close.
func TestDurabilityAPIErrors(t *testing.T) {
	g := seqgen.NewDNA(107)
	dir := t.TempDir()

	if _, err := racelogic.NewDatabase(g.Database(3, 8), racelogic.WithSync(true)); err == nil {
		t.Error("WithSync on NewDatabase must error")
	}
	if _, err := racelogic.Open(filepath.Join(dir, "empty")); err == nil {
		t.Error("Open on a dir with no database must error")
	}

	db, err := racelogic.NewDatabase(g.Database(3, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir, racelogic.WithTopK(3)); err == nil {
		t.Error("engine/search options on Persist must error")
	}
	if err := db.Persist(dir); err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir); err == nil {
		t.Error("double Persist must error")
	}
	other, err := racelogic.NewDatabase(g.Database(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Persist(dir); err == nil {
		t.Error("Persist into a dir that already holds a database must error")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("Close must be idempotent: %v", err)
	}
	if db.Durable() {
		t.Error("a closed database no longer journals; Durable must be false")
	}
	if err := db.Checkpoint(); !errors.Is(err, racelogic.ErrClosed) {
		t.Errorf("Checkpoint after Close: %v, want ErrClosed", err)
	}
	if _, err := db.Insert("ACGT"); !errors.Is(err, racelogic.ErrClosed) {
		t.Errorf("Insert after Close: %v, want ErrClosed", err)
	}
	if err := db.Remove(0); err == nil {
		t.Error("Remove after Close must error")
	}
	if _, err := db.Compact(); err == nil {
		t.Error("Compact after Close must error")
	}
	// Searches keep working against the final state.
	if _, err := db.Search("ACGTACGT"); err != nil {
		t.Errorf("Search after Close must keep working: %v", err)
	}

	if _, err := racelogic.Open(dir, racelogic.WithSeedIndex(4)); err == nil {
		t.Error("engine options on Open must error")
	}
	back, err := racelogic.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Durable() || back.SnapshotAge() < 0 {
		t.Error("reopened database must report durable with a snapshot age")
	}
	if err := back.Close(); err != nil {
		t.Fatal(err)
	}

	// A corrupted journal header must refuse to open, not half-load.
	// The sharded layout keeps one journal per shard; mangling any one
	// of them must fail the whole Open.
	walPaths, err := filepath.Glob(filepath.Join(dir, "shard-*.wal"))
	if err != nil || len(walPaths) == 0 {
		t.Fatalf("no shard journals in %s (err=%v)", dir, err)
	}
	if err := os.WriteFile(walPaths[len(walPaths)/2], []byte("not a journal, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := racelogic.Open(dir); err == nil {
		t.Error("mangled WAL header must error loudly")
	}
}

// TestFailedPersistDetachesJournals pins Persist's error path: when one
// shard's journal cannot be created, the journals it already opened are
// closed, detached and removed, so the database stays memory-only and
// later mutations reach no journal file.
func TestFailedPersistDetachesJournals(t *testing.T) {
	g := seqgen.NewDNA(113)
	dir := t.TempDir()
	// A directory where shard 1's journal belongs fails its creation.
	if err := os.Mkdir(filepath.Join(dir, "shard-0001.g0.wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	db, err := racelogic.NewDatabase(g.Database(6, 8), racelogic.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir); err == nil {
		t.Fatal("Persist succeeded with shard 1's journal path taken by a directory")
	}
	if db.Durable() {
		t.Error("a failed Persist left the database durable")
	}
	journal := filepath.Join(dir, "shard-0000.g0.wal")
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("a failed Persist left %s behind (stat: %v)", journal, err)
	}
	for i := 0; i < 8; i++ {
		if _, err := db.Insert(g.Random(8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Errorf("8 inserts after a failed Persist recreated %s (stat: %v)", journal, err)
	}
	if n := db.WALRecords(); n != 0 {
		t.Errorf("a failed Persist left journals attached: WALRecords = %d", n)
	}
}

// TestFailedPersistCommitsNothing pins the order Persist writes a
// layout in: every journal exists before the manifest commits it, and a
// failed call removes what it wrote.  With shard 1's journal path taken
// by a directory, Persist fails, the directory holds no database, and a
// retry once the blocker is gone persists every entry.
func TestFailedPersistCommitsNothing(t *testing.T) {
	g := seqgen.NewDNA(229)
	dir := t.TempDir()
	blocker := filepath.Join(dir, "shard-0001.g0.wal")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	db, err := racelogic.NewDatabase(g.Database(6, 8), racelogic.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir); err == nil {
		t.Fatal("Persist succeeded with shard 1's journal path taken by a directory")
	}
	if _, err := racelogic.Open(dir); !errors.Is(err, racelogic.ErrNoDatabase) {
		t.Fatalf("Open after a failed Persist: got %v, want ErrNoDatabase", err)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0].Name() != filepath.Base(blocker) {
		var names []string
		for _, e := range left {
			names = append(names, e.Name())
		}
		t.Errorf("a failed Persist left %v, want only the blocker", names)
	}

	if _, err := db.Insert(g.Random(8)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir); err != nil {
		t.Fatalf("Persist retried after the blocker was removed: %v", err)
	}
	want := db.IDs()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := racelogic.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := back.IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened %d IDs, want the %d the retried Persist held", len(got), len(want))
	}
}

// dirFiles returns every file in dir, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// TestSealedSegmentRefused pins that a sealed journal segment,
// <base>.wal.<seq>, left by a build that rotated journals is never
// skipped: Open and Persist both refuse a directory holding one, name
// the file, and leave every file in the directory as it was.
func TestSealedSegmentRefused(t *testing.T) {
	g := seqgen.NewDNA(117)
	const sealed = "shard-0000.g0.wal.000001"

	openDir := t.TempDir()
	db, err := racelogic.NewDatabase(g.Database(6, 8), racelogic.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(openDir); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(g.Random(8), g.Random(8)); err != nil {
		t.Fatal(err)
	}
	// The segment holds records: the journal's bytes before Close folds them.
	raw, err := os.ReadFile(filepath.Join(openDir, "shard-0000.g0.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(openDir, sealed), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	want := dirFiles(t, openDir)
	if _, err := racelogic.Open(openDir); err == nil || !strings.Contains(err.Error(), sealed) {
		t.Errorf("Open with a leftover %s: got %v, want an error naming it", sealed, err)
	}
	if got := dirFiles(t, openDir); !reflect.DeepEqual(got, want) {
		t.Errorf("a refused Open changed the directory: %d files, want %d as before", len(got), len(want))
	}

	persistDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(persistDir, sealed), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := racelogic.NewDatabase(g.Database(6, 8), racelogic.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	want = dirFiles(t, persistDir)
	if err := fresh.Persist(persistDir); err == nil || !strings.Contains(err.Error(), sealed) {
		t.Errorf("Persist with a leftover %s: got %v, want an error naming it", sealed, err)
	}
	if got := dirFiles(t, persistDir); !reflect.DeepEqual(got, want) {
		t.Errorf("a refused Persist changed the directory: %d files, want %d as before", len(got), len(want))
	}
	if fresh.Durable() {
		t.Error("a refused Persist left the database durable")
	}
}

// TestStaleJournalFoldedAway pins the crash-window cleanup: when a
// crash lands between "snapshot renamed" and "journal truncated", the
// leftover records are covered by the snapshot — replay must skip them,
// WALRecords reports them until the next checkpoint, and that
// checkpoint must fold them away even though there is nothing new to
// snapshot.
func TestStaleJournalFoldedAway(t *testing.T) {
	g := seqgen.NewDNA(113)
	dir := t.TempDir()
	db, err := racelogic.NewDatabase(g.Database(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir, racelogic.WithSnapshotInterval(0), racelogic.WithSnapshotEvery(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(g.Random(8)); err != nil {
		t.Fatal(err)
	}
	// Capture every shard's journal — the insert landed in exactly one
	// of them, and the crash window below can leave any of them stale.
	walPaths, err := filepath.Glob(filepath.Join(dir, "shard-*.wal"))
	if err != nil || len(walPaths) == 0 {
		t.Fatalf("no shard journals in %s (err=%v)", dir, err)
	}
	raw := make(map[string][]byte, len(walPaths))
	for _, p := range walPaths {
		if raw[p], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil { // snapshots cover the insert, journals truncated
		t.Fatal(err)
	}
	wantLen, wantVersion := db.Len(), db.Version()
	db = nil // crash
	// Undo the truncation: the snapshots are renamed, the journals not.
	for p, b := range raw {
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	back, err := racelogic.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Len() != wantLen || back.Version() != wantVersion {
		t.Fatalf("recovered len=%d version=%d, want %d/%d — a covered record was replayed twice",
			back.Len(), back.Version(), wantLen, wantVersion)
	}
	if back.WALRecords() != 1 {
		t.Fatalf("stale journal holds %d records, expected the 1 covered insert", back.WALRecords())
	}
	if err := back.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if back.WALRecords() != 0 {
		t.Errorf("checkpoint with nothing new must still fold the covered records away, %d left", back.WALRecords())
	}
}

// TestRecoveredTailSurvivesCheckpoint pins that a journal tail Open
// replays stays on disk until a snapshot set really holds it.  The
// recovered database is ahead of its shard snapshots, so neither Close's
// final checkpoint nor an idle background tick may take the
// nothing-new path and truncate the journals: after either one and a
// crash, a second Open must still see every acknowledged mutation.
func TestRecoveredTailSurvivesCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []racelogic.Option
		// after runs between the first recovery and the second Open.
		after func(t *testing.T, db *racelogic.Database)
	}{
		{"close", nil, func(t *testing.T, db *racelogic.Database) {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"idle snapshotter", []racelogic.Option{racelogic.WithSnapshotInterval(20 * time.Millisecond)},
			func(t *testing.T, db *racelogic.Database) {
				time.Sleep(200 * time.Millisecond) // ~10 ticks, then crash
				t.Cleanup(func() { _ = db.Close() })
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := seqgen.NewDNA(127)
			dir := t.TempDir()
			db, err := racelogic.NewDatabase(g.Database(4, 8), racelogic.WithShards(2))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Persist(dir, racelogic.WithSnapshotInterval(0), racelogic.WithSnapshotEvery(0)); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Insert(g.Random(8), g.Random(9)); err != nil {
				t.Fatal(err)
			}
			wantIDs, wantVersion := db.IDs(), db.Version()
			db = nil // crash

			first, err := racelogic.Open(dir, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if first.WALRecords() == 0 || !reflect.DeepEqual(first.IDs(), wantIDs) {
				t.Fatalf("first recovery: ids %v with %d journal records, want %v from a journal tail",
					first.IDs(), first.WALRecords(), wantIDs)
			}
			tc.after(t, first)

			back, err := racelogic.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			if !reflect.DeepEqual(back.IDs(), wantIDs) || back.Version() != wantVersion {
				t.Fatalf("second recovery: ids %v at version %d, want %v at %d — the replayed tail was truncated",
					back.IDs(), back.Version(), wantIDs, wantVersion)
			}
		})
	}
}

// TestCheckpointLeavesCompactionToPolicy pins that a checkpoint
// captures tombstones instead of compacting them: neither Checkpoint
// nor Close's final checkpoint moves Version, Tombstones or
// Compactions, and the reopened database holds the same tombstones at
// the same version, with identical reports and an empty journal.
func TestCheckpointLeavesCompactionToPolicy(t *testing.T) {
	g := seqgen.NewDNA(131)
	dir := t.TempDir()
	db, err := racelogic.NewDatabase(g.Database(12, 9), racelogic.WithSeedIndex(4), racelogic.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(dir, racelogic.WithSnapshotInterval(0), racelogic.WithSnapshotEvery(0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(1, 4, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(g.Random(9)); err != nil {
		t.Fatal(err)
	}
	wantVersion, wantDead := db.Version(), db.Tombstones()
	if wantDead != 3 || db.Compactions() != 0 {
		t.Fatalf("setup: %d tombstones after %d compactions, want 3 after none", wantDead, db.Compactions())
	}
	unchanged := func(what string, d *racelogic.Database) {
		t.Helper()
		if d.Version() != wantVersion || d.Tombstones() != wantDead || d.Compactions() != 0 {
			t.Errorf("after %s: version %d, %d tombstones, %d compactions; want %d, %d, 0",
				what, d.Version(), d.Tombstones(), d.Compactions(), wantVersion, wantDead)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.Snapshots() != 1 || db.WALRecords() != 0 {
		t.Fatalf("Checkpoint saved %d snapshot sets and left %d journal records, want 1 and 0",
			db.Snapshots(), db.WALRecords())
	}
	unchanged("Checkpoint", db)
	if _, err := db.Insert(g.Random(10)); err != nil {
		t.Fatal(err)
	}
	wantVersion++
	query := g.Random(9)
	want, err := db.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	unchanged("Close", db)

	back, err := racelogic.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	unchanged("Open", back)
	if back.WALRecords() != 0 {
		t.Errorf("reopened journal holds %d records; Close's checkpoint should have folded them", back.WALRecords())
	}
	got, err := back.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripEngines(got), stripEngines(want)) {
		t.Errorf("reopened report differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestErrUnknownIDSurvivesJournal double-checks that journaling does
// not change the public error contract.
func TestErrUnknownIDSurvivesJournal(t *testing.T) {
	g := seqgen.NewDNA(109)
	db, err := racelogic.NewDatabase(g.Database(3, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Remove(99); !errors.Is(err, racelogic.ErrUnknownID) {
		t.Errorf("remove unknown: %v, want ErrUnknownID", err)
	}
	// The failed remove must not have been journaled: reopening later
	// replays only acknowledged mutations, and the version is unmoved.
	if db.Version() != 0 {
		t.Errorf("failed remove bumped version to %d", db.Version())
	}
	if db.WALRecords() != 0 {
		t.Errorf("failed remove left %d journal records", db.WALRecords())
	}
}
