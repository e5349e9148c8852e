package store

import (
	"os"
	"path/filepath"
	"testing"
)

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
