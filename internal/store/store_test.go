package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"racelogic/internal/seqgen"
)

// testSnapshot builds a representative snapshot: mixed-length entries,
// non-contiguous IDs (as after compactions), every fingerprint field
// non-zero, and every slot live.
func testSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	g := seqgen.NewDNA(61)
	entries := append(g.Database(6, 8), g.Database(4, 5)...)
	ids := make([]uint64, len(entries))
	for i := range ids {
		ids[i] = uint64(3*i + 1) // gaps, like a mutated database
	}
	return &Snapshot{
		Options: Options{
			Library: "OSU", Matrix: "", GateRegion: 2, OneHot: false,
			SeedK: 4, Threshold: 14, TopK: -3, Workers: 2,
		},
		Shard:         0,
		ShardCount:    1,
		Version:       17,
		GlobalVersion: 17,
		NextID:        uint64(3*len(entries) + 1),
		IDs:           ids,
		Entries:       entries,
		Dead:          make([]bool, len(entries)),
	}
}

// tombstoned returns testSnapshot with slots 0, 5 and the last one
// tombstoned, as a shard holding uncompacted removes is captured.
func tombstoned(t testing.TB) *Snapshot {
	s := testSnapshot(t)
	for _, slot := range []int{0, 5, len(s.Dead) - 1} {
		s.Dead[slot] = true
	}
	return s
}

// TestRoundTrip pins the format: Read(Write(s)) reproduces every field
// and writing is deterministic.
func TestRoundTrip(t *testing.T) {
	s := testSnapshot(t)
	var buf, buf2 bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf2, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("Write is not deterministic")
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("round trip differs:\n got %+v\nwant %+v", back, s)
	}
}

// TestTombstoneRoundTrip pins that a snapshot keeps every slot: the
// tombstoned ones come back flagged, with their IDs and entries, in
// slot order.
func TestTombstoneRoundTrip(t *testing.T) {
	s := tombstoned(t)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Errorf("tombstone round trip differs:\n got %+v\nwant %+v", back, s)
	}
	dead := 0
	for _, d := range back.Dead {
		if d {
			dead++
		}
	}
	if dead != 3 || len(back.Entries) != len(s.Entries) {
		t.Errorf("read %d tombstones over %d slots, want 3 over %d", dead, len(back.Entries), len(s.Entries))
	}

	s.Dead = s.Dead[1:]
	if err := Write(&buf, s); err == nil {
		t.Error("a tombstone flag count that differs from the entry count must be rejected at write")
	}
}

// TestReadRejectsBadTombstoneFlag pins the flag's domain: a value of 2
// under a valid checksum is refused by the flag check itself.
func TestReadRejectsBadTombstoneFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, tombstoned(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The last slot's flag is the payload's final byte, just before the
	// four-byte trailer.
	flag := len(raw) - 5
	if raw[flag] != 1 {
		t.Fatalf("byte %d holds %d, want the last slot's tombstone flag 1", flag, raw[flag])
	}
	raw[flag] = 2
	binary.LittleEndian.PutUint32(raw[flag+1:], crc32.ChecksumIEEE(raw[:flag+1]))
	if _, err := Read(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "bool field holds 2") {
		t.Errorf("tombstone flag 2: got %v, want a refusal of the flag value", err)
	}
}

// TestReadRejectsCorruption flips every byte of a valid snapshot in
// turn: no single-byte corruption may load successfully.
func TestReadRejectsCorruption(t *testing.T) {
	s := testSnapshot(t)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for at := 0; at < len(raw); at++ {
		bad := append([]byte(nil), raw...)
		bad[at] ^= 0x41
		if _, err := Read(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flipping byte %d of %d loaded successfully", at, len(raw))
		}
	}
	for _, cut := range []int{0, 3, len(raw) / 2, len(raw) - 1} {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d bytes must error", cut)
		}
	}
	if _, err := Read(bytes.NewReader(append(append([]byte(nil), raw...), 0))); err == nil {
		t.Error("trailing garbage must error")
	}
}

// TestReadRejectsBadStructure pins the semantic checks that a checksum
// alone cannot express.
func TestReadRejectsBadStructure(t *testing.T) {
	s := testSnapshot(t)
	s.IDs[0], s.IDs[1] = 5, 5
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate IDs: got %v", err)
	}

	s = testSnapshot(t)
	s.NextID = 1 // below every assigned ID
	buf.Reset()
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("IDs at or above NextID must error")
	}

	if err := Write(&buf, &Snapshot{IDs: []uint64{1}, Entries: nil}); err == nil {
		t.Error("mismatched IDs/Entries lengths must error")
	}

	// Format 1, the layout before the shard header, and format 2, the
	// layout with a serialized seed index and no tombstone flags, are
	// refused by the version check like any other version this build
	// does not write.
	s = testSnapshot(t)
	buf.Reset()
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	for _, old := range []byte{1, 2} {
		raw := append([]byte(nil), buf.Bytes()...)
		raw[len(magic)] = old
		want := fmt.Sprintf("format version %d", old)
		if _, err := Read(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("format-%d snapshot: got %v, want a refusal naming version %d", old, err, old)
		}
	}
}

// TestFileRoundTrip covers the atomic file path: write, reload, and the
// temp file is gone.
func TestFileRoundTrip(t *testing.T) {
	s := testSnapshot(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.snap")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Error("file round trip differs")
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Errorf("directory holds %d files after WriteFile, want just the snapshot", len(names))
	}
	// Overwriting replaces atomically.
	s.Version++
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	back, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != s.Version {
		t.Errorf("reloaded version %d, want %d", back.Version, s.Version)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.snap")); err == nil {
		t.Error("missing file must error")
	}
}

// TestSnapshotShardHeader pins the v2 shard header round trip and its
// validation.
func TestSnapshotShardHeader(t *testing.T) {
	s := testSnapshot(t)
	s.Shard, s.ShardCount, s.GlobalVersion = 3, 8, 99
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Shard != 3 || back.ShardCount != 8 || back.GlobalVersion != 99 {
		t.Fatalf("shard header round trip: %d of %d at global %d", back.Shard, back.ShardCount, back.GlobalVersion)
	}
	s.Shard = 8 // out of range
	if err := Write(&buf, s); err == nil {
		t.Error("shard ≥ shard count must be rejected at write")
	}
}

// hostileSnapshot is a 19-byte snapshot whose library name claims
// 1 GiB, just under maxStringLen, followed by four bytes of it.
func hostileSnapshot() []byte {
	b := append([]byte(magic), FormatVersion, 0, 1, 0) // shard 0 of 1, global version 0
	b = binary.AppendUvarint(b, 1<<30)
	return append(b, "ACGT"...)
}

// TestReadHostileStringLength pins the decoder's allocation bound: a
// length field is untrusted until the trailing checksum is verified,
// so the hostile snapshot must fail with unexpected EOF having
// allocated about what the file holds, not the gigabyte it claims.
func TestReadHostileStringLength(t *testing.T) {
	raw := hostileSnapshot()
	if len(raw) != 19 {
		t.Fatalf("hostile snapshot is %d bytes, want 19", len(raw))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("hostile snapshot: got %v, want unexpected EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("reading the hostile snapshot allocated %d bytes, want under 1 MiB", got)
	}
}

// TestReadOutOfOrderIDs pins the duplicate check past the ascending
// run a snapshot usually holds: unique IDs in any slot order load, and
// a repeat after the first out-of-order ID is still refused, naming it.
func TestReadOutOfOrderIDs(t *testing.T) {
	for _, tc := range []struct {
		ids  []uint64
		want string
	}{
		{[]uint64{7, 2, 9, 4}, ""},
		{[]uint64{7, 2, 9, 2}, "duplicate entry ID 2"},
		{[]uint64{1, 3, 9, 9}, "duplicate entry ID 9"},
	} {
		s := &Snapshot{ShardCount: 1, NextID: 10, IDs: tc.ids,
			Entries: []string{"AC", "GT", "TA", "CA"}, Dead: make([]bool, 4)}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if tc.want == "" {
			if err != nil || !reflect.DeepEqual(back.IDs, tc.ids) {
				t.Errorf("IDs %v: got %v, %v", tc.ids, back, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("IDs %v: got %v, want %q", tc.ids, err, tc.want)
		}
	}
}

// BenchmarkRead times ReadFile of one shard snapshot of the
// mixed-durable shape: 10 000 length-24 DNA entries, every tenth slot
// tombstoned, the file Open reads per shard.
func BenchmarkRead(b *testing.B) {
	entries := seqgen.NewDNA(61).Database(10000, 24)
	s := &Snapshot{ShardCount: 2, NextID: uint64(2 * len(entries)), Entries: entries,
		IDs: make([]uint64, len(entries)), Dead: make([]bool, len(entries))}
	for i := range entries {
		s.IDs[i] = uint64(2 * i)
		s.Dead[i] = i%10 == 0
	}
	path := filepath.Join(b.TempDir(), "shard.snap")
	if err := WriteFile(path, s); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
