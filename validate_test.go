package racelogic

import (
	"path/filepath"
	"strings"
	"testing"

	"racelogic/internal/store"
)

// persistedDNA persists a two-entry DNA database into a fresh directory
// with the background snapshotter idle, and returns it open.
func persistedDNA(t *testing.T) (*Database, string) {
	t.Helper()
	dir := t.TempDir()
	d, err := NewDatabase([]string{"ACGTACGT", "TTGCAACG"}, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Persist(dir, WithSnapshotInterval(0), WithSnapshotEvery(0)); err != nil {
		t.Fatal(err)
	}
	return d, dir
}

// wantAlphabetError fails the test unless Open refused dir for an entry
// outside the engine alphabet.
func wantAlphabetError(t *testing.T, dir string) {
	t.Helper()
	back, err := Open(dir)
	if err == nil {
		back.Close()
		t.Fatal("Open accepted an entry outside the DNA alphabet; every search racing it would fail")
	}
	if !strings.Contains(err.Error(), "outside the engine alphabet") {
		t.Fatalf("Open failed for another reason: %v", err)
	}
}

// TestOpenRejectsInvalidSnapshotEntry pins that Open validates the
// entries it restores from snapshot slots, as NewDatabase validates its
// input: a slot rewritten with a symbol outside the alphabet, under a
// valid checksum, must fail Open rather than every later search.
func TestOpenRejectsInvalidSnapshotEntry(t *testing.T) {
	d, dir := persistedDNA(t)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.snap"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want one shard snapshot, got %v (err=%v)", paths, err)
	}
	snap, err := store.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	snap.Entries[0] = "ACGTXXXX"
	if err := store.WriteFile(paths[0], snap); err != nil {
		t.Fatal(err)
	}
	wantAlphabetError(t, dir)
}

// TestOpenRejectsInvalidReplayedInsert pins the same check on the
// journal: an insert record carrying a symbol outside the alphabet,
// appended past Insert's validation, must fail Open's replay.
func TestOpenRejectsInvalidReplayedInsert(t *testing.T) {
	d, dir := persistedDNA(t)
	defer d.Close()
	sh := d.shards[0]
	sh.mu.Lock()
	err := sh.jrnl.AppendInsert(sh.p.Version()+1, d.ticket.Add(1), []uint64{d.nextID.Add(1) - 1}, []string{"ACGTXXXX"})
	sh.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// Crash: d is abandoned without Close, so only its journal holds
	// the record.
	wantAlphabetError(t, dir)
}
