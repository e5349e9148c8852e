package store

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzSnapshotRead throws arbitrary bytes at the snapshot reader, which
// Open feeds the untrusted contents of every shard snapshot file.  Read
// must never panic, and any snapshot it accepts must come back
// deep-equal from a Write→Read round trip.
func FuzzSnapshotRead(f *testing.F) {
	// A valid shard snapshot, its truncations, the hostile length header
	// and a snapshot with tombstoned slots seed the corpus.
	s := testSnapshot(f)
	s.Shard, s.ShardCount, s.GlobalVersion = 1, 3, 40
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, cut := range []int{len(magic) + 1, len(valid) / 4, len(valid) / 2, len(valid) - 4, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	f.Add(hostileSnapshot())
	f.Add([]byte{})
	var dead bytes.Buffer
	if err := Write(&dead, tombstoned(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(dead.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatalf("re-encoding an accepted snapshot: %v", err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reading a re-encoded snapshot: %v", err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatal("Write→Read round trip changed the snapshot")
		}
	})
}
