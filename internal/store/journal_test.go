package store

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestJournalRotation drives the segmented journal through its life
// cycle: appends rotate into sealed segments past the size cap, replay
// stitches sealed + active back together in order, and Reset deletes
// the sealed files.
func TestJournalRotation(t *testing.T) {
	dir := t.TempDir()
	j, prior, err := OpenJournal(dir, "shard-0000", 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(prior))
	}
	var want []Record
	for i := 1; i <= 12; i++ {
		rec := Record{Op: OpInsert, Version: int64(i), Global: int64(i),
			IDs: []uint64{uint64(i)}, Entries: []string{"ACGTACGTACGTACGT"}}
		if _, err := j.AppendInsert(rec.Version, rec.Global, rec.IDs, rec.Entries); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
		if _, err := j.RotateIfOversized(); err != nil {
			t.Fatal(err)
		}
	}
	if j.SealedSegments() == 0 {
		t.Fatal("64-byte cap never rotated across 12 appends")
	}
	if j.Records() != 12 {
		t.Fatalf("Records() = %d across segments, want 12", j.Records())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	back, recs, err := OpenJournal(dir, "shard-0000", 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("reopened journal replayed:\n got %+v\nwant %+v", recs, want)
	}
	if back.SealedSegments() == 0 {
		t.Fatal("reopen lost the sealed segments")
	}
	if err := back.Reset(); err != nil {
		t.Fatal(err)
	}
	if back.Records() != 0 || back.Size() == 0 || back.SealedSegments() != 0 {
		t.Fatalf("after Reset: records=%d size=%d sealed=%d", back.Records(), back.Size(), back.SealedSegments())
	}
	files, err := filepath.Glob(filepath.Join(dir, "shard-0000.wal.*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("Reset left sealed segments on disk: %v", files)
	}
	if err := back.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornSealedTail pins the crash story for the segment
// boundary: a torn tail in the active segment truncates away on reopen,
// and the records of every sealed segment stay intact ahead of it.
func TestJournalTornSealedTail(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, "s", 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, err := j.AppendInsert(int64(i), int64(i), []uint64{uint64(i)}, []string{"ACGTACGTACGT"}); err != nil {
			t.Fatal(err)
		}
		if _, err := j.RotateIfOversized(); err != nil {
			t.Fatal(err)
		}
	}
	if j.SealedSegments() == 0 {
		t.Fatal("no rotation happened")
	}
	if _, err := j.AppendInsert(5, 5, []uint64{5}, []string{"TTTT"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the active segment's last record.
	active := filepath.Join(dir, "s.wal")
	raw, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(active, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenJournal(dir, "s", 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("torn active tail: replayed %d records, want the 4 sealed/intact ones", len(recs))
	}
	for i, rec := range recs {
		if rec.Version != int64(i+1) {
			t.Fatalf("record %d has version %d", i, rec.Version)
		}
	}
}

// TestWALGroupCommit hammers one segment from many goroutines: every
// append must be durable when its Wait returns, while the leader
// batches the flushes — far fewer fsyncs than appends.
func TestWALGroupCommit(t *testing.T) {
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, "g", 0)
	if err != nil {
		t.Fatal(err)
	}
	const appenders, each = 8, 25
	var mu sync.Mutex // stands in for the shard write lock ordering appends
	var wg sync.WaitGroup
	errs := make(chan error, appenders)
	seq := int64(0)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				mu.Lock()
				seq++
				c, err := j.AppendInsert(seq, seq, []uint64{uint64(seq)}, []string{"ACGT"})
				mu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if err := c.Wait(); err != nil {
					errs <- err
					return
				}
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if j.Records() != appenders*each {
		t.Fatalf("Records() = %d, want %d", j.Records(), appenders*each)
	}
	syncs := j.Syncs()
	if syncs == 0 {
		t.Fatal("group commit never flushed")
	}
	if syncs > appenders*each {
		t.Fatalf("%d fsyncs for %d appends — group commit amortized nothing", syncs, appenders*each)
	}
	t.Logf("group commit: %d appends, %d fsyncs", appenders*each, syncs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenJournal(dir, "g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != appenders*each {
		t.Fatalf("replayed %d records, want %d", len(recs), appenders*each)
	}
}

// TestWALDropLast pins the multi-shard rollback: dropping the most
// recent append restores the previous replayable state exactly.
func TestWALDropLast(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	w, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendInsert(1, 1, []uint64{0}, []string{"ACGT"}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendInsert(2, 2, []uint64{1}, []string{"TTTT"}); err != nil {
		t.Fatal(err)
	}
	if err := w.DropLast(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 1 {
		t.Fatalf("Records() after DropLast = %d, want 1", w.Records())
	}
	// Idempotent within the same window: nothing more to drop.
	if err := w.DropLast(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendCompact(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Op: OpInsert, Version: 1, Global: 1, IDs: []uint64{0}, Entries: []string{"ACGT"}},
		{Op: OpCompact, Version: 2, Global: 2},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("after DropLast+append, replay = %+v, want %+v", recs, want)
	}
}

// TestManifestRoundTrip pins the layout manifest: round trip, checksum
// rejection, and validation.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.manifest")
	if err := WriteManifestFile(path, Manifest{Shards: 7}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 7 {
		t.Fatalf("Shards = %d, want 7", m.Shards)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for at := range raw {
		bad := append([]byte(nil), raw...)
		bad[at] ^= 0x41
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifestFile(path); err == nil {
			t.Fatalf("flipping manifest byte %d loaded successfully", at)
		}
	}
	if err := WriteManifestFile(path, Manifest{Shards: 0}); err == nil {
		t.Error("zero-shard manifest must be rejected")
	}
}
