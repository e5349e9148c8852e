package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// manifestMagic opens the layout manifest of a sharded durable
// directory.
const manifestMagic = "RLMANI"

// ManifestFormatVersion is the manifest wire format this build writes.
const ManifestFormatVersion = 1

// Manifest records the two facts about a durable directory that no
// single shard file can state authoritatively: how many shards the
// layout has, and which layout generation is current.  It is written
// last when a layout is created or rewritten — its presence (and
// generation) is the commit point, so a crash mid-bootstrap or
// mid-reshard leaves either the complete old layout or the complete new
// one, never a mix: every generation's files carry
// the generation in their names, and files of other generations are
// ignored (and cleaned up) by the next open.
type Manifest struct {
	Shards int
	Gen    int
}

// WriteManifestFile saves m to path atomically (temp + rename).
func WriteManifestFile(path string, m Manifest) error {
	if m.Shards < 1 {
		return fmt.Errorf("store: manifest shard count %d must be ≥ 1", m.Shards)
	}
	if m.Gen < 0 {
		return fmt.Errorf("store: manifest generation %d must be ≥ 0", m.Gen)
	}
	var buf bytes.Buffer
	buf.WriteString(manifestMagic)
	buf.Write(binary.AppendUvarint(nil, ManifestFormatVersion))
	buf.Write(binary.AppendUvarint(nil, uint64(m.Shards)))
	buf.Write(binary.AppendUvarint(nil, uint64(m.Gen)))
	sum := crc32.ChecksumIEEE(buf.Bytes())
	payload := binary.LittleEndian.AppendUint32(buf.Bytes(), sum)

	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp)
	if _, err := f.Write(payload); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadManifestFile loads and verifies the manifest at path.
func ReadManifestFile(path string) (Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	if len(raw) < len(manifestMagic)+4 || string(raw[:len(manifestMagic)]) != manifestMagic {
		return Manifest{}, fmt.Errorf("store: %s: not a racelogic manifest", path)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if binary.LittleEndian.Uint32(tail) != crc32.ChecksumIEEE(body) {
		return Manifest{}, fmt.Errorf("store: %s: manifest checksum mismatch", path)
	}
	rest := body[len(manifestMagic):]
	format, n := binary.Uvarint(rest)
	if n <= 0 || format != ManifestFormatVersion {
		return Manifest{}, fmt.Errorf("store: %s: manifest format version %d, this build reads %d", path, format, ManifestFormatVersion)
	}
	shards, n2 := binary.Uvarint(rest[n:])
	if n2 <= 0 || shards < 1 || shards > 1<<20 {
		return Manifest{}, fmt.Errorf("store: %s: implausible manifest shard count %d", path, shards)
	}
	gen, n3 := binary.Uvarint(rest[n+n2:])
	if n3 <= 0 || gen > 1<<40 {
		return Manifest{}, fmt.Errorf("store: %s: implausible manifest generation %d", path, gen)
	}
	return Manifest{Shards: int(shards), Gen: int(gen)}, nil
}
