package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// magic opens every snapshot file.
const magic = "RLSNAP"

// FormatVersion is the wire format this package writes and the only
// one Read accepts; any other version is refused instead of guessed at.
// The shard header (Shard, ShardCount, GlobalVersion) right after the
// format field lets recovery stitch the global counters back together
// from one snapshot file per shard.
const FormatVersion = 3

// maxStringLen bounds any single decoded string (entry or library
// name).  The checksum sits at the end of the file, so a length field
// is untrusted when it is read: the decoder refuses one the bytes left
// cannot hold before it slices or allocates anything (see decoder.str).
const maxStringLen = 1 << 30

// Options is the fingerprint of everything fixed when a database is
// built: the engine-shaping options plus the per-search defaults.  A
// database opened from a snapshot reconstructs its configuration from
// this, so no flag juggling is needed to reload compatibly.
type Options struct {
	Library    string // standard-cell library name ("AMIS", "OSU")
	Matrix     string // protein matrix name; "" = DNA array
	GateRegion int    // Section 4.3 clock-gating region; 0 = ungated
	OneHot     bool   // one-hot delay encoding (protein array)
	SeedK      int    // k-mer seed index length; 0 = none
	Threshold  int64  // default Section 6 threshold; < 0 = off
	TopK       int    // default top-K truncation; ≤ 0 = all matches
	Workers    int    // default worker-pool width; ≤ 0 = NumCPU
}

// Snapshot is one shard's serializable state within a partitioned
// layout.
type Snapshot struct {
	Options Options
	// Shard is this file's shard number in [0, ShardCount); ShardCount
	// is the layout's partition count.
	Shard      int
	ShardCount int
	// Version is the owning shard's mutation sequence at save time —
	// the counter the shard's journal records are checked against.
	// GlobalVersion is the database-wide logical mutation counter at
	// save time.  NextID is the next stable entry ID the database would
	// assign; every shard records the same global value.
	Version       int64
	GlobalVersion int64
	NextID        uint64
	// IDs[i] is the stable ID of Entries[i], in the shard's slot order,
	// and Dead[i] marks a tombstoned slot.  A snapshot captures every
	// slot, removed ones included: only a compaction reclaims them.
	IDs     []uint64
	Entries []string
	Dead    []bool
}

// hashWriter feeds every written byte through the checksum on its way
// to the underlying writer.
type hashWriter struct {
	w io.Writer
	h hash.Hash32
}

func (hw *hashWriter) Write(p []byte) (int, error) {
	hw.h.Write(p)
	return hw.w.Write(p)
}

// encoder writes the varint-framed primitive fields both formats are
// built from, latching the first error so field lists read flat.
type encoder struct {
	w       io.Writer
	scratch []byte
	err     error
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: w, scratch: make([]byte, 0, binary.MaxVarintLen64)}
}

func (e *encoder) raw(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) uvarint(v uint64) { e.raw(binary.AppendUvarint(e.scratch[:0], v)) }
func (e *encoder) varint(x int64)   { e.raw(binary.AppendVarint(e.scratch[:0], x)) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.raw([]byte(s))
}

func (e *encoder) boolean(b bool) {
	var x uint64
	if b {
		x = 1
	}
	e.uvarint(x)
}

// Write serializes s to w in the format documented on the package.
func Write(w io.Writer, s *Snapshot) error {
	if len(s.IDs) != len(s.Entries) || len(s.Dead) != len(s.Entries) {
		return fmt.Errorf("store: %d IDs and %d tombstone flags for %d entries", len(s.IDs), len(s.Dead), len(s.Entries))
	}
	if s.ShardCount < 1 || s.Shard < 0 || s.Shard >= s.ShardCount {
		return fmt.Errorf("store: shard %d of %d is not a valid shard header", s.Shard, s.ShardCount)
	}
	bw := bufio.NewWriter(w)
	hw := &hashWriter{w: bw, h: crc32.NewIEEE()}
	e := newEncoder(hw)

	e.raw([]byte(magic))
	e.uvarint(FormatVersion)
	e.uvarint(uint64(s.Shard))
	e.uvarint(uint64(s.ShardCount))
	e.varint(s.GlobalVersion)
	o := s.Options
	e.str(o.Library)
	e.str(o.Matrix)
	e.uvarint(uint64(o.GateRegion))
	e.boolean(o.OneHot)
	e.uvarint(uint64(o.SeedK))
	e.varint(o.Threshold)
	e.varint(int64(o.TopK))
	e.varint(int64(o.Workers))
	e.varint(s.Version)
	e.uvarint(s.NextID)
	e.uvarint(uint64(len(s.Entries)))
	for i, entry := range s.Entries {
		e.uvarint(s.IDs[i])
		e.str(entry)
		e.boolean(s.Dead[i])
	}
	if e.err != nil {
		return e.err
	}
	// The trailer is the one field the checksum does not cover.
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], hw.h.Sum32())
	if _, err := bw.Write(tail[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// errVarintOverflow is the error binary.ReadUvarint gives a varint
// longer than 64 bits.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// decoder reads serialized fields sequentially from one in-memory
// buffer, latching the first error so the happy path reads as a flat
// field list.  It is shared by the snapshot reader and the WAL record
// decoder.  The buffer is a string, so a decoded string field is a
// substring of it rather than a copy.
type decoder struct {
	b   string
	off int
	err error
}

// left returns the number of bytes not yet consumed.
func (d *decoder) left() int { return len(d.b) - d.off }

// uvarint decodes one uvarint, failing as binary.ReadUvarint would: EOF
// when no byte is left, unexpected EOF when the varint is cut short.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if d.off == len(d.b) {
			d.err = io.ErrUnexpectedEOF
			if i == 0 {
				d.err = io.EOF
			}
			return 0
		}
		c := d.b[d.off]
		d.off++
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				break
			}
			return x | uint64(c)<<s
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	d.err = errVarintOverflow
	return 0
}

func (d *decoder) varint() int64 {
	ux := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// str decodes a length-prefixed string.  The length is untrusted until
// the checksum is verified, so one the remaining bytes cannot hold is
// refused before anything is sliced or allocated.
func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxStringLen {
		d.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	if n > uint64(d.left()) {
		d.err = io.ErrUnexpectedEOF
		return ""
	}
	s := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return s
}

func (d *decoder) boolean() bool {
	x := d.uvarint()
	if d.err == nil && x > 1 {
		d.err = fmt.Errorf("bool field holds %d", x)
	}
	return x == 1
}

// minSlotBytes is the fewest bytes one snapshot slot can occupy: a
// one-byte ID, a one-byte length and a one-byte tombstone flag.
const minSlotBytes = 3

// Read deserializes a snapshot, verifying the magic, format version,
// structural invariants (unique IDs below NextID) and the CRC-32
// trailer.  Any mismatch is an error: a corrupted snapshot must fail to
// load, not serve wrong search results.
func Read(r io.Reader) (*Snapshot, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	return decode(raw)
}

// decode parses one whole snapshot file.  The fields are decoded in
// file order and the checksum over every byte before the trailer is
// computed in one pass once they are, so a corrupted file reports the
// first field that does not decode, as a streaming reader would.  The
// entries are substrings of one string copy of raw.
func decode(raw []byte) (*Snapshot, error) {
	b := string(raw)
	d := &decoder{b: b}
	if len(b) < len(magic) {
		return nil, fmt.Errorf("store: reading magic: %w", shortRead(len(b)))
	}
	if head := b[:len(magic)]; head != magic {
		return nil, fmt.Errorf("store: bad magic %q: not a racelogic snapshot", head)
	}
	d.off = len(magic)
	format := d.uvarint()
	if d.err == nil && format != FormatVersion {
		return nil, fmt.Errorf("store: snapshot format version %d, this build reads %d", format, FormatVersion)
	}

	s := &Snapshot{Shard: int(d.uvarint()), ShardCount: int(d.uvarint()), GlobalVersion: d.varint()}
	if d.err == nil && (s.ShardCount < 1 || s.ShardCount > 1<<20 || s.Shard < 0 || s.Shard >= s.ShardCount) {
		return nil, fmt.Errorf("store: implausible shard header %d of %d", s.Shard, s.ShardCount)
	}
	s.Options = Options{
		Library:    strings.Clone(d.str()),
		Matrix:     strings.Clone(d.str()),
		GateRegion: int(d.uvarint()),
		OneHot:     d.boolean(),
		SeedK:      int(d.uvarint()),
		Threshold:  d.varint(),
		TopK:       int(d.varint()),
		Workers:    int(d.varint()),
	}
	s.Version = d.varint()
	s.NextID = d.uvarint()
	count := d.uvarint()
	if d.err != nil {
		return nil, fmt.Errorf("store: reading header: %w", d.err)
	}
	if count > 1<<40 {
		return nil, fmt.Errorf("store: implausible entry count %d", count)
	}
	// count is untrusted until the checksum is verified: refuse one the
	// bytes left cannot hold before sizing anything by it.
	if count > uint64(d.left()/minSlotBytes) {
		return nil, fmt.Errorf("store: %d slots cannot fit in the %d bytes left: %w", count, d.left(), io.ErrUnexpectedEOF)
	}
	if count > 0 {
		s.IDs = make([]uint64, 0, count)
		s.Entries = make([]string, 0, count)
		s.Dead = make([]bool, 0, count)
	}
	// IDs are unique.  Slots are appended in ID order except where
	// concurrent inserts interleaved, so an ascending run needs no set;
	// the first ID out of order starts one from the IDs before it.
	var seen map[uint64]bool
	for i := uint64(0); i < count; i++ {
		id := d.uvarint()
		entry := d.str()
		dead := d.boolean()
		if d.err != nil {
			return nil, fmt.Errorf("store: reading entry %d: %w", i, d.err)
		}
		if id >= s.NextID {
			return nil, fmt.Errorf("store: entry %d has ID %d ≥ next ID %d", i, id, s.NextID)
		}
		if seen == nil && i > 0 && id <= s.IDs[i-1] {
			seen = make(map[uint64]bool, count)
			for _, prev := range s.IDs {
				seen[prev] = true
			}
		}
		if seen != nil {
			if seen[id] {
				return nil, fmt.Errorf("store: duplicate entry ID %d", id)
			}
			seen[id] = true
		}
		if len(entry) == 0 {
			return nil, fmt.Errorf("store: entry %d (ID %d) is empty", i, id)
		}
		s.IDs = append(s.IDs, id)
		s.Entries = append(s.Entries, entry)
		s.Dead = append(s.Dead, dead)
	}
	end := d.off
	if len(b)-end < 4 {
		return nil, fmt.Errorf("store: reading checksum: %w", shortRead(len(b)-end))
	}
	sum := crc32.ChecksumIEEE(raw[:end])
	if got := binary.LittleEndian.Uint32(raw[end : end+4]); got != sum {
		return nil, fmt.Errorf("store: checksum mismatch: file %08x, computed %08x — snapshot is corrupted", got, sum)
	}
	if len(b) > end+4 {
		return nil, fmt.Errorf("store: trailing data after checksum")
	}
	return s, nil
}

// shortRead is the error io.ReadFull gives when n bytes of a field were
// present but more were needed.
func shortRead(n int) error {
	if n == 0 {
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

// WriteFile saves s to path atomically: the snapshot is written to a
// temporary sibling, fsynced, and renamed into place, so a crash
// mid-save leaves any previous snapshot intact.
func WriteFile(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename
	if err := Write(f, s); err != nil {
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

// ReadFile loads a snapshot from path: the file is read whole and
// decoded from memory.
func ReadFile(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := decode(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
