package store

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// walScript appends a representative mix of records and returns them.
func walScript(t *testing.T, path string) []Record {
	t.Helper()
	w, prior, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(prior) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(prior))
	}
	recs := []Record{
		{Op: OpInsert, Version: 1, Global: 11, IDs: []uint64{0, 1, 2}, Entries: []string{"ACGT", "ACGTACGT", "TT"}},
		{Op: OpRemove, Version: 2, Global: 12, IDs: []uint64{1}},
		{Op: OpInsert, Version: 3, Global: 15, IDs: []uint64{3}, Entries: []string{"GGGGCCCC"}},
		{Op: OpCompact, Version: 4, Global: 16},
		{Op: OpRemove, Version: 5, Global: 19, IDs: []uint64{0, 3}},
		{Op: OpCompact, Version: 6, Global: 20},
	}
	for _, r := range recs {
		var err error
		switch r.Op {
		case OpInsert:
			err = w.AppendInsert(r.Version, r.Global, r.IDs, r.Entries)
		case OpRemove:
			err = w.AppendRemove(r.Version, r.Global, r.IDs)
		case OpCompact:
			err = w.AppendCompact(r.Version, r.Global)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Records(); got != int64(len(recs)) {
		t.Fatalf("Records() = %d, want %d", got, len(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestWALRoundTrip pins append → replay fidelity, reopen-and-continue,
// and Reset.
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	recs := walScript(t, path)

	got, _, err := Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay differs:\n got %+v\nwant %+v", got, recs)
	}

	// Reopen: the existing records come back and appends continue.
	w, prior, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prior, recs) {
		t.Fatalf("reopen replayed %+v, want %+v", prior, recs)
	}
	if err := w.AppendCompact(7, 21); err != nil {
		t.Fatal(err)
	}
	if w.Records() != int64(len(recs))+1 {
		t.Errorf("Records() after reopen+append = %d", w.Records())
	}

	// Reset empties the segment; the header survives for the next append.
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 {
		t.Errorf("Records() after Reset = %d", w.Records())
	}
	if err := w.AppendRemove(8, 22, []uint64{9}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err = Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{{Op: OpRemove, Version: 8, Global: 22, IDs: []uint64{9}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after Reset, replay = %+v, want %+v", got, want)
	}

	if err := w.AppendCompact(9, 23); err == nil {
		t.Error("append on a closed WAL must error")
	}
}

// TestWALReplayMissing pins the bootstrap path: no file is an empty
// journal, not an error.
func TestWALReplayMissing(t *testing.T) {
	recs, n, err := Replay(filepath.Join(t.TempDir(), "missing.wal"))
	if err != nil || len(recs) != 0 || n != 0 {
		t.Fatalf("missing WAL: recs=%v n=%d err=%v", recs, n, err)
	}
}

// isPrefix reports whether got is a (possibly empty) prefix of want.
func isPrefix(got, want []Record) bool {
	if len(got) > len(want) {
		return false
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return false
		}
	}
	return true
}

// TestWALTruncationProperty is the crash property: a WAL cut at EVERY
// possible byte offset replays a clean prefix of the original records —
// never an error, never a mangled or phantom record.  This is the
// journal counterpart of the snapshot single-byte corruption sweep.
func TestWALTruncationProperty(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	recs := walScript(t, full)
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.wal")
	for at := 0; at <= len(raw); at++ {
		if err := os.WriteFile(cut, raw[:at], 0o644); err != nil {
			t.Fatal(err)
		}
		got, clean, err := Replay(cut)
		if err != nil {
			t.Fatalf("cut at %d of %d: replay errored: %v", at, len(raw), err)
		}
		if clean > int64(at) {
			t.Fatalf("cut at %d: clean prefix %d runs past the file", at, clean)
		}
		if !isPrefix(got, recs) {
			t.Fatalf("cut at %d: replayed records are not a prefix:\n got %+v", at, got)
		}
		if at == len(raw) && len(got) != len(recs) {
			t.Fatalf("uncut file lost records: %d of %d", len(got), len(recs))
		}
		// OpenWAL after the crash must land appends on a record boundary:
		// reopen, append, and the result is still a clean prefix plus the
		// new record.
		w, prior, err := OpenWAL(cut)
		if err != nil {
			t.Fatalf("cut at %d: OpenWAL: %v", at, err)
		}
		if err := w.AppendCompact(99, 99); err != nil {
			t.Fatalf("cut at %d: append after reopen: %v", at, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		after, _, err := Replay(cut)
		if err != nil {
			t.Fatalf("cut at %d: replay after reopen+append: %v", at, err)
		}
		wantLen := len(prior) + 1
		if len(after) != wantLen {
			t.Fatalf("cut at %d: %d records after reopen+append, want %d", at, len(after), wantLen)
		}
		if last := after[len(after)-1]; last.Op != OpCompact || last.Version != 99 {
			t.Fatalf("cut at %d: appended record decoded as %+v", at, last)
		}
	}
}

// TestWALCorruptionProperty flips every byte of a valid segment in turn:
// replay must yield a prefix of the original records (the flip may cost
// the record it hit and everything after, never anything else) or, for a
// mangled header, fail loudly.  A segment headed format 1 — the layout
// before records carried their global version — fails loudly as well.
func TestWALCorruptionProperty(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	recs := walScript(t, full)
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.wal")
	for at := 0; at < len(raw); at++ {
		mut := append([]byte(nil), raw...)
		mut[at] ^= 0x41
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, err := Replay(bad)
		if at < int(headerLen) {
			if err == nil {
				t.Fatalf("flip at header byte %d must error loudly", at)
			}
			continue
		}
		if err != nil {
			t.Fatalf("flip at %d: body corruption must degrade, not error: %v", at, err)
		}
		if !isPrefix(got, recs) {
			t.Fatalf("flip at %d: replayed records are not a prefix of the originals:\n got %+v", at, got)
		}
		if len(got) == len(recs) {
			t.Fatalf("flip at %d: every record still replayed — the corruption went undetected", at)
		}
	}

	v1 := append([]byte(nil), raw...)
	v1[len(walMagic)] = 1
	if err := os.WriteFile(bad, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Replay(bad); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Errorf("format-1 segment: Replay got %v, want a refusal naming version 1", err)
	}
	if _, _, err := OpenWAL(bad); err == nil {
		t.Error("format-1 segment: OpenWAL must refuse it")
	}
}
