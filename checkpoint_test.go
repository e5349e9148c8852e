package racelogic

import (
	"reflect"
	"testing"
	"time"

	"racelogic/internal/seqgen"
)

// TestReplayedTailBehindCheckpointStamp pins that Open never claims a
// snapshot set covers a journal record it replayed.  A checkpoint
// captures the published view without taking the shard locks, so the
// view it writes can run ahead of a ticket that is journaled but not
// yet published: here mutation A holds shard 0's lock with its ticket
// journaled and applied while B publishes a later ticket on shard 1,
// and the checkpoint writes B's view, stamped past A's ticket, without
// A.  After a crash, Open replays A from shard 0's journal and the
// version does not rise past the stamp; an idle Checkpoint and Close
// must still write A into a snapshot before they truncate its journal,
// or the next Open loses an acknowledged insert.
func TestReplayedTailBehindCheckpointStamp(t *testing.T) {
	g := seqgen.NewDNA(137)
	dir := t.TempDir()
	d, err := NewDatabase(g.Database(6, 8), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	idle := []Option{WithSnapshotInterval(0), WithSnapshotEvery(0)}
	if err := d.Persist(dir, idle...); err != nil {
		t.Fatal(err)
	}
	// nextOn skips IDs until the next one Insert allocates routes to
	// shard s.
	nextOn := func(s int) uint64 {
		for shardOf(d.nextID.Load(), len(d.shards)) != s {
			d.nextID.Add(1)
		}
		return d.nextID.Load()
	}

	// A: journaled and applied on shard 0 under its lock, unpublished.
	idA := nextOn(0)
	d.nextID.Add(1)
	entryA := g.Random(8)
	sh := d.shards[0]
	sh.mu.Lock()
	ticketA := d.ticket.Add(1)
	if err := sh.jrnl.AppendInsert(d.state(0).nextSeq(), ticketA, []uint64{idA}, []string{entryA}); err != nil {
		sh.mu.Unlock()
		t.Fatal(err)
	}
	stateA, err := sh.applyInsert(d.state(0), []uint64{idA}, []string{entryA})
	if err != nil {
		sh.mu.Unlock()
		t.Fatal(err)
	}

	// B publishes on shard 1, past A's ticket.
	nextOn(1)
	if _, err := d.Insert(g.Random(8)); err != nil {
		sh.mu.Unlock()
		t.Fatal(err)
	}
	stamp := d.Version()

	// The checkpoint writes B's view, then waits on shard 0's lock to
	// truncate; A publishes once the snapshot set is on disk.
	saves := d.Snapshots()
	done := make(chan error, 1)
	go func() { done <- d.Checkpoint() }()
	for deadline := time.Now().Add(10 * time.Second); d.Snapshots() == saves; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			sh.mu.Unlock()
			t.Fatal("checkpoint wrote no snapshot set")
		}
	}
	d.publish([]int{0}, map[int]*shardstate{0: stateA}, ticketA)
	sh.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if d.WALRecords() != 1 {
		t.Fatalf("checkpoint left %d journal records, want A's 1", d.WALRecords())
	}
	wantIDs := d.IDs()
	// Crash: d is abandoned without Close.

	first, err := Open(dir, idle...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.IDs(), wantIDs) || first.WALRecords() != 1 {
		t.Fatalf("first recovery: ids %v with %d journal records, want %v with A's 1",
			first.IDs(), first.WALRecords(), wantIDs)
	}
	if first.Version() > stamp {
		t.Fatalf("test is vacuous: replaying A raised the version to %d, past the stamp %d", first.Version(), stamp)
	}
	if err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if !reflect.DeepEqual(back.IDs(), wantIDs) {
		t.Fatalf("second recovery: ids %v, want %v — A's journal was truncated with A in no snapshot",
			back.IDs(), wantIDs)
	}
}

// TestWALByteTriggerNudgesOncePerMultiple pins the cadence of the
// journal byte trigger: with the count and interval triggers off, the
// snapshotter is nudged once for each multiple of the cap a shard's
// journal grows across since its last truncation, not on every append
// that leaves it past the cap.
func TestWALByteTriggerNudgesOncePerMultiple(t *testing.T) {
	const walCap = 128
	g := seqgen.NewDNA(167)
	d, err := NewDatabase(g.Database(8, 8), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Persist(t.TempDir(), WithSnapshotInterval(0), WithSnapshotEvery(0), WithWALSegmentBytes(walCap)); err != nil {
		t.Fatal(err)
	}
	// Park the snapshotter and collect its nudges where none is dropped.
	close(d.stopSnap)
	<-d.loopDone
	nudges := make(chan struct{}, 1024)
	d.lmu.Lock()
	d.snapSignal = nudges
	d.stopSnap = make(chan struct{}) // Close closes it again
	d.lmu.Unlock()
	defer d.Close()

	multiples := func() int {
		n := 0
		for _, sh := range d.shards {
			n += int(sh.jrnl.Size() / walCap)
		}
		return n
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 40; i++ {
			if _, err := d.Insert(g.Random(8)); err != nil {
				t.Fatal(err)
			}
			if got, want := len(nudges), multiples(); got != want {
				t.Fatalf("round %d, insert %d: %d nudges for %d multiples of %d journal bytes crossed", round, i, got, want, walCap)
			}
		}
		if multiples() < 4 {
			t.Fatalf("round %d: the journals crossed only %d multiples of %d bytes", round, multiples(), walCap)
		}
		for len(nudges) > 0 {
			<-nudges
		}
		// Nothing lands mid-write, so the checkpoint truncates every
		// journal and the count starts over.
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if n := d.WALRecords(); n != 0 {
			t.Fatalf("round %d: checkpoint left %d journal records", round, n)
		}
	}
}
