package racelogic

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"racelogic/internal/seqgen"
)

// copyFiles copies the regular files of src into a fresh directory: the
// crash image of a database still running in src.
func copyFiles(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// reportsOf runs every query against db, seeded and full-scan, and
// returns the reports with EnginesBuilt blanked: it counts the arrays a
// process compiled, not what the database holds.
func reportsOf(t *testing.T, db *Database, queries []string) []*SearchReport {
	t.Helper()
	var out []*SearchReport
	for _, q := range queries {
		for _, opts := range [][]Option{nil, {WithFullScan()}} {
			rep, err := db.Search(q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			rep.EnginesBuilt = 0
			out = append(out, rep)
		}
	}
	return out
}

// TestRecoveryMatchesLive is the bulk replay's equivalence property.  A
// database runs a journal tail that mixes single and bulk inserts,
// removes of snapshot entries and of entries the tail itself inserted,
// a journaled compaction mid-tail, and records a snapshot set already
// covers (written as a checkpoint whose truncation was skipped, as when
// a mutation lands mid-write).  Its crash image — the directory copied
// while it runs — must recover to the same IDs, Version, Tombstones,
// WALRecords and search reports, Index and Skipped included, on 1–3
// shards and resharded on Open; the recovery report must count the
// covered records as skipped and the rest as replayed.
func TestRecoveryMatchesLive(t *testing.T) {
	for _, tc := range []struct{ shards, reshardTo int }{
		{1, 0}, {2, 0}, {3, 0}, {2, 3}, {3, 1},
	} {
		g := seqgen.NewDNA(int64(211 + 10*tc.shards + tc.reshardTo))
		d, err := NewDatabase(g.Database(40, 12), WithShards(tc.shards), WithSeedIndex(4),
			WithThreshold(9), WithTopK(12))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		idle := []Option{WithSnapshotInterval(0), WithSnapshotEvery(0), WithCompactionPolicy(CompactionPolicy{})}
		if err := d.Persist(dir, idle...); err != nil {
			t.Fatal(err)
		}
		insert := func(entries ...string) []uint64 {
			t.Helper()
			ids, err := d.Insert(entries...)
			if err != nil {
				t.Fatal(err)
			}
			return ids
		}
		remove := func(ids ...uint64) {
			t.Helper()
			if err := d.Remove(ids...); err != nil {
				t.Fatal(err)
			}
		}

		// Covered: journaled, then captured by a snapshot set that left
		// the journals as they were.
		a := insert(g.Random(12))
		a = append(a, insert(g.Random(10), g.Random(12), g.Random(14))...)
		remove(3, a[1])
		if err := d.writeShardSnapshots(dir, d.view.Load()); err != nil {
			t.Fatal(err)
		}
		covered := d.WALRecords()

		// The tail: replayed over the snapshots.
		b := insert(g.Random(12), g.Random(12))
		remove(b[0], a[2], 5)
		b = append(b, insert(g.Random(11))...)
		if _, err := d.Compact(); err != nil {
			t.Fatal(err)
		}
		b = append(b, insert(g.Random(12), g.Random(13), g.Random(12), g.Random(9))...)
		remove(b[2], 7)
		remove(b[3], b[4], 11)
		b = append(b, insert(g.Random(12))...)
		if d.Tombstones() == 0 {
			t.Fatal("test is vacuous: the tail leaves no tombstone")
		}

		opts := idle
		if tc.reshardTo > 0 {
			opts = append(opts, WithShards(tc.reshardTo))
		}
		back, err := Open(copyFiles(t, dir), opts...)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if !reflect.DeepEqual(back.IDs(), d.IDs()) || back.Version() != d.Version() || back.Tombstones() != d.Tombstones() {
			t.Errorf("%+v: recovered %d IDs at version %d with %d tombstones, live %d at %d with %d",
				tc, len(back.IDs()), back.Version(), back.Tombstones(), len(d.IDs()), d.Version(), d.Tombstones())
		}
		queries := append(g.Database(4, 12), d.view.Load().states[0].snap.Entry(0), g.Random(3))
		if got, want := reportsOf(t, back, queries), reportsOf(t, d, queries); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: recovered search reports differ from the live database's", tc)
		}

		var replayed, skipped int64
		for _, st := range back.ShardStats() {
			if st.Recovery != nil {
				replayed += st.Recovery.Replayed
				skipped += st.Recovery.Skipped
			}
		}
		if tc.reshardTo > 0 {
			// The reshard folded every journal into the new layout's
			// snapshots, and its shards were built, not recovered.
			if back.WALRecords() != 0 || replayed+skipped != 0 {
				t.Errorf("%+v: resharded database holds %d journal records and reports %d replayed",
					tc, back.WALRecords(), replayed+skipped)
			}
		} else {
			if back.WALRecords() != d.WALRecords() {
				t.Errorf("%+v: recovered WALRecords %d, live %d", tc, back.WALRecords(), d.WALRecords())
			}
			if skipped != covered || replayed != d.WALRecords()-covered {
				t.Errorf("%+v: recovery report counts %d replayed and %d skipped, want %d and %d",
					tc, replayed, skipped, d.WALRecords()-covered, covered)
			}
		}

		// The recovered database keeps working: the same mutation lands
		// on both with the same IDs.
		next := g.Random(12)
		wantIDs := insert(next)
		gotIDs, err := back.Insert(next)
		if err != nil || !reflect.DeepEqual(gotIDs, wantIDs) {
			t.Errorf("%+v: insert after recovery assigned %v (%v), live %v", tc, gotIDs, err, wantIDs)
		}
		if err := back.Close(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointCountsFromCapture pins the count trigger against the
// view a checkpoint captured rather than the set last written: a
// mutation landing while a snapshot set is written must not nudge the
// snapshotter into writing a second set right behind it.  The
// snapshotter is parked and its nudges collected, a checkpoint runs by
// hand, and one insert lands after the checkpoint has written shard 0's
// file and while it writes shard 1's.  An insert that lands after the
// checkpoint finished exercises nothing, so the round is retried.
func TestCheckpointCountsFromCapture(t *testing.T) {
	const every, rounds = 4, 10
	g := seqgen.NewDNA(223)
	// Large shards keep the second file's write long enough for the
	// insert to land inside it.
	d, err := NewDatabase(g.Database(40000, 24), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Persist(t.TempDir(), WithSnapshotInterval(0), WithSnapshotEvery(every)); err != nil {
		t.Fatal(err)
	}
	close(d.stopSnap)
	<-d.loopDone
	nudges := make(chan struct{}, 1024)
	d.lmu.Lock()
	d.snapSignal = nudges
	d.stopSnap = make(chan struct{}) // Close closes it again
	d.lmu.Unlock()
	defer d.Close()

	for round := 0; ; round++ {
		if round == rounds {
			t.Skipf("in %d rounds no insert landed while shard 1's snapshot was written; the trigger was not exercised", rounds)
		}
		if round > 0 {
			// Count from a fresh capture again.
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < every; i++ {
			if _, err := d.Insert(g.Random(24)); err != nil {
				t.Fatal(err)
			}
		}
		if len(nudges) != 1 {
			t.Fatalf("%d inserts sent %d nudges, want 1", every, len(nudges))
		}
		<-nudges // the snapshotter takes it and checkpoints:

		shard0 := d.shards[0].lastSnap.Load()
		saves := d.Snapshots()
		done := make(chan error, 1)
		go func() { done <- d.Checkpoint() }()
		for deadline := time.Now().Add(10 * time.Second); d.shards[0].lastSnap.Load() == shard0; time.Sleep(10 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("the checkpoint never wrote shard 0's snapshot")
			}
		}
		if _, err := d.Insert(g.Random(24)); err != nil {
			t.Fatal(err)
		}
		midWrite := d.Snapshots() == saves
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if n := len(nudges); n != 0 {
			t.Fatalf("an insert landing while the set was written sent %d nudges: the snapshotter would write a second set for 1 mutation", n)
		}
		if midWrite {
			break
		}
	}
	// The count resumes from the captured view: every more mutations
	// nudge again.
	for i := 0; i < every-1; i++ {
		if _, err := d.Insert(g.Random(24)); err != nil {
			t.Fatal(err)
		}
	}
	if len(nudges) != 1 {
		t.Errorf("%d mutations past the captured view sent %d nudges, want 1", every, len(nudges))
	}
}
