package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// walMagic opens every WAL file.
const walMagic = "RLWAL"

// WALFormatVersion is the WAL wire format this package writes and the
// only one Replay accepts.  Every record carries the Global field — the
// database-wide logical mutation counter, journaled beside the
// per-shard sequence so a sharded database can recover its global
// version from whichever shard saw the newest mutation.
const WALFormatVersion = 2

// maxRecordLen bounds a single record's payload.  Frame lengths are read
// before their CRC can be verified, so they must be sanity-checked
// before allocation.
const maxRecordLen = 1 << 28

// Op identifies the mutation a WAL record journals.
type Op byte

const (
	// OpInsert journals a batch insert: the assigned stable IDs and
	// their entries.
	OpInsert Op = 1
	// OpRemove journals a batch remove by stable ID.
	OpRemove Op = 2
	// OpCompact journals a dense rebuild.  Compaction is deterministic
	// given the state it runs on, so the record carries no payload
	// beyond the resulting version.
	OpCompact Op = 3
)

// Record is one journaled mutation.
type Record struct {
	Op Op
	// Version is the owning shard's mutation sequence after applying
	// this record.  Replay uses it to skip records a shard snapshot
	// already covers and to detect journal gaps: within one shard's
	// journal the sequence is gapless.
	Version int64
	// Global is the database-wide logical mutation counter the record
	// belongs to.  One multi-shard mutation journals one record per
	// touched shard, all carrying the same Global; recovery takes the
	// maximum across every shard's journal.
	Global int64
	// IDs are the stable entry IDs inserted or removed; nil for compact.
	IDs []uint64
	// Entries are the inserted sequences, parallel to IDs; nil otherwise.
	Entries []string
}

// countReader counts consumed bytes so Replay can report how long the
// clean prefix is.
type countReader struct {
	r *bufio.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// headerLen is the byte length of the journal header this build writes.
var headerLen = int64(len(walMagic) + len(binary.AppendUvarint(nil, WALFormatVersion)))

// Replay reads the WAL at path and returns every intact record in
// order, plus the byte length of the clean prefix they occupy.  A
// missing file replays as empty.  Replay stops cleanly at the first
// torn or corrupt record — a frame running past end-of-file, a CRC
// mismatch, or a payload that does not decode — returning the records
// before it; corrupt bytes never surface as entries.  A present-but-
// mangled header (bad magic, unknown format version) is a loud error
// instead: that is not a torn append, the file itself is not ours.
func Replay(path string) ([]Record, int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	cr := &countReader{r: bufio.NewReader(f)}

	head := make([]byte, len(walMagic))
	if _, err := io.ReadFull(cr, head); err != nil {
		// Shorter than the magic: only a crash during the very first
		// header write can leave this, before any record existed.
		return nil, 0, nil
	}
	if string(head) != walMagic {
		return nil, 0, fmt.Errorf("store: bad WAL magic %q: not a racelogic journal", head)
	}
	format, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, 0, nil // torn header, no records yet
	}
	if format != WALFormatVersion {
		return nil, 0, fmt.Errorf("store: WAL format version %d, this build reads %d", format, WALFormatVersion)
	}

	var recs []Record
	clean := cr.n
	for {
		rec, ok := readRecord(cr)
		if !ok {
			return recs, clean, nil
		}
		recs = append(recs, rec)
		clean = cr.n
	}
}

// readRecord decodes one framed record; ok is false at end-of-file and
// on any torn or corrupt frame.
func readRecord(cr *countReader) (Record, bool) {
	n, err := binary.ReadUvarint(cr)
	if err != nil || n == 0 || n > maxRecordLen {
		return Record{}, false
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(cr, payload); err != nil {
		return Record{}, false
	}
	var tail [4]byte
	if _, err := io.ReadFull(cr, tail[:]); err != nil {
		return Record{}, false
	}
	if binary.LittleEndian.Uint32(tail[:]) != crc32.ChecksumIEEE(payload) {
		return Record{}, false
	}
	return decodeRecord(payload)
}

// decodeRecord parses a CRC-verified payload; ok is false when the
// structure is invalid anyway (a corruption the checksum was also fed).
func decodeRecord(payload []byte) (Record, bool) {
	br := bytes.NewReader(payload)
	d := &decoder{r: br}
	op, err := br.ReadByte()
	if err != nil {
		return Record{}, false
	}
	rec := Record{Op: Op(op), Version: d.varint(), Global: d.varint()}
	switch rec.Op {
	case OpInsert:
		count := d.uvarint()
		if d.err != nil || count > maxRecordLen {
			return Record{}, false
		}
		for i := uint64(0); i < count; i++ {
			rec.IDs = append(rec.IDs, d.uvarint())
			rec.Entries = append(rec.Entries, d.str())
		}
	case OpRemove:
		count := d.uvarint()
		if d.err != nil || count > maxRecordLen {
			return Record{}, false
		}
		for i := uint64(0); i < count; i++ {
			rec.IDs = append(rec.IDs, d.uvarint())
		}
	case OpCompact:
	default:
		return Record{}, false
	}
	if d.err != nil || br.Len() != 0 {
		return Record{}, false
	}
	return rec, true
}

// WAL is an open write-ahead log: one shard's journal file.  Appends
// are serialized internally, but the database layer additionally
// orders them under its own per-shard write lock so record sequences
// hit the file monotonically.  Appends never fsync on their own; callers that need
// acknowledged-means-durable call GroupSync afterwards, which batches
// the flushes of every append waiting on the journal into as few
// fsyncs as possible (group commit).
type WAL struct {
	mu       sync.Mutex
	f        *os.File
	size     int64
	lastSize int64 // size before the most recent append (DropLast window)
	records  int64
	buf      bytes.Buffer
	timings  Timings

	// Group-commit state.  synced is the prefix length known durable;
	// a single leader flushes at a time while followers wait, so N
	// concurrent mutations cost far fewer than N fsyncs.
	gmu     sync.Mutex
	gcond   *sync.Cond
	syncing bool
	synced  int64
	serr    error // the current round's flush failure
	fatal   error // a flush failed: the journal's unsynced tail is suspect
	syncs   int64 // fsyncs issued through GroupSync/Close, for tests
}

// OpenWAL opens the journal at path for appending, creating it with a
// fresh header when absent, and returns the intact records already in
// it.  Any torn tail left by a crash is truncated away first, so the
// next append lands on a record boundary.
func OpenWAL(path string) (*WAL, []Record, error) {
	recs, clean, err := Replay(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{f: f, records: int64(len(recs))}
	w.gcond = sync.NewCond(&w.gmu)
	if clean < headerLen || len(recs) == 0 {
		// New (or torn-at-birth) journal: start it over with a fresh
		// header.
		if err := w.rewriteHeader(); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
	} else {
		if err := f.Truncate(clean); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		if _, err := f.Seek(clean, io.SeekStart); err != nil {
			_ = f.Close()
			return nil, nil, err
		}
		w.size = clean
		w.lastSize = clean
		w.synced = clean
	}
	return w, recs, nil
}

// rewriteHeader resets the file to a bare header.  Caller holds no
// lock during OpenWAL; Reset takes w.mu.
func (w *WAL) rewriteHeader() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	head := append([]byte(walMagic), binary.AppendUvarint(nil, WALFormatVersion)...)
	if _, err := w.f.Write(head); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.size = int64(len(head))
	w.lastSize = w.size
	w.records = 0
	w.gmu.Lock()
	w.synced = w.size
	w.serr = nil
	// A successful truncate-and-sync proves the device is writable again
	// and discards every suspect byte, so a latched flush failure is over:
	// whatever the old records held is covered by the snapshot that
	// triggered this Reset.
	w.fatal = nil
	w.gmu.Unlock()
	return nil
}

// AppendInsert journals a batch insert producing the given shard
// sequence under global mutation g: ids[i] is the stable ID assigned to
// entries[i].
//
//racelint:journal
func (w *WAL) AppendInsert(version, g int64, ids []uint64, entries []string) error {
	if len(ids) != len(entries) {
		return fmt.Errorf("store: %d IDs for %d inserted entries", len(ids), len(entries))
	}
	return w.append(func(e *encoder) {
		e.raw([]byte{byte(OpInsert)})
		e.varint(version)
		e.varint(g)
		e.uvarint(uint64(len(ids)))
		for i, id := range ids {
			e.uvarint(id)
			e.str(entries[i])
		}
	})
}

// AppendRemove journals a batch remove producing the given shard
// sequence under global mutation g.
//
//racelint:journal
func (w *WAL) AppendRemove(version, g int64, ids []uint64) error {
	return w.append(func(e *encoder) {
		e.raw([]byte{byte(OpRemove)})
		e.varint(version)
		e.varint(g)
		e.uvarint(uint64(len(ids)))
		for _, id := range ids {
			e.uvarint(id)
		}
	})
}

// AppendCompact journals a dense rebuild producing the given shard
// sequence under global mutation g.
//
//racelint:journal
func (w *WAL) AppendCompact(version, g int64) error {
	return w.append(func(e *encoder) {
		e.raw([]byte{byte(OpCompact)})
		e.varint(version)
		e.varint(g)
	})
}

// append frames one payload and writes it in a single call, keeping the
// window a crash can tear as small as the kernel allows.  On a write
// failure the journal is truncated back to the last good record so the
// failed append can never replay as acknowledged.
func (w *WAL) append(encode func(*encoder)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: WAL is closed")
	}
	if w.timings.Append != nil {
		begin := time.Now()
		defer func() { w.timings.Append(time.Since(begin).Seconds()) }()
	}
	// After a flush failure the kernel may have dropped dirty pages while
	// marking them clean (the classic fsync-error trap), so nothing past
	// the synced watermark can be trusted and nothing new may be
	// acknowledged on top of it.  Fail the append — before anything is
	// applied — until a checkpoint folds the log away and Reset proves
	// the device writable again.
	w.gmu.Lock()
	fatal := w.fatal
	w.gmu.Unlock()
	if fatal != nil {
		return fmt.Errorf("store: WAL flush previously failed (%w); awaiting checkpoint reset", fatal)
	}
	w.buf.Reset()
	e := newEncoder(&w.buf)
	encode(e)
	if e.err != nil {
		return e.err
	}
	payload := w.buf.Bytes()
	frame := binary.AppendUvarint(nil, uint64(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(frame); err != nil {
		w.unwind()
		return err
	}
	w.lastSize = w.size
	w.size += int64(len(frame))
	w.records++
	return nil
}

// DropLast unwinds the most recent append — the rollback a multi-shard
// mutation needs when a sibling shard's journal write fails after this
// one succeeded.  It is valid only while the caller still holds the
// ordering lock it appended under (no append may have landed since).
func (w *WAL) DropLast() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: WAL is closed")
	}
	if w.lastSize == w.size {
		return nil
	}
	if err := w.f.Truncate(w.lastSize); err != nil {
		return err
	}
	if _, err := w.f.Seek(w.lastSize, io.SeekStart); err != nil {
		return err
	}
	w.size = w.lastSize
	w.records--
	// Clamp the group-commit watermark: a flush may already have covered
	// the dropped bytes, and a later append into the reclaimed range must
	// not be acknowledged without its own flush.
	w.gmu.Lock()
	if w.synced > w.size {
		w.synced = w.size
	}
	w.gmu.Unlock()
	return nil
}

// unwind drops a half-written append.  Best effort: if the truncate
// itself fails the torn record is still rejected at replay by its CRC.
func (w *WAL) unwind() {
	_ = w.f.Truncate(w.size)
	_, _ = w.f.Seek(w.size, io.SeekStart)
}

// GroupSync blocks until every byte appended before the call is durable
// — the group-commit flush.  Concurrent callers elect one leader that
// fsyncs for everyone waiting; the flush itself runs under the append
// lock, so the batch a flush covers is exact.  Callers invoke it after
// releasing their ordering locks, which is what lets flushes from many
// mutations coalesce.
//
// If the journal shrinks below the caller's appended prefix while it
// waits — a Reset after a checkpoint snapshot captured the records, or
// a DropLast rollback — GroupSync returns nil: the bytes are either
// durable in the snapshot or deliberately gone, and there is nothing
// left to flush.
//
// A flush failure is latched: a failed fsync may have discarded dirty
// pages while marking them clean, so the unsynced tail is suspect
// forever and no later flush may acknowledge bytes sitting on top of
// it.  Every waiter of the failed round and every subsequent GroupSync
// (and append) errors until a checkpoint folds the log into a durable
// snapshot and Reset — whose own truncate-and-sync must succeed —
// clears the latch.
func (w *WAL) GroupSync() error {
	w.mu.Lock()
	end := w.size
	w.mu.Unlock()
	for {
		w.mu.Lock()
		if w.size < end {
			end = w.size
		}
		closed := w.f == nil
		w.mu.Unlock()

		w.gmu.Lock()
		if w.synced >= end {
			w.gmu.Unlock()
			return nil
		}
		if w.fatal != nil {
			err := w.fatal
			w.gmu.Unlock()
			return err
		}
		if closed {
			err := w.serr
			w.gmu.Unlock()
			if err == nil {
				err = fmt.Errorf("store: WAL is closed")
			}
			return err
		}
		if w.syncing {
			w.gcond.Wait()
			if w.synced >= end {
				w.gmu.Unlock()
				return nil
			}
			err := w.serr // the round we waited on failed (or nil: retry)
			w.gmu.Unlock()
			if err != nil {
				return err
			}
			continue
		}
		// Become the leader of one flush round.  serr is per round: it is
		// cleared here so an old failure never outlives its waiters.
		w.syncing = true
		w.serr = nil
		w.gmu.Unlock()

		w.mu.Lock()
		cover := w.size
		var err error
		if w.f == nil {
			err = fmt.Errorf("store: WAL is closed")
		} else if w.timings.Sync != nil {
			begin := time.Now()
			err = w.f.Sync()
			w.timings.Sync(time.Since(begin).Seconds())
		} else {
			err = w.f.Sync()
		}
		w.mu.Unlock()

		w.gmu.Lock()
		w.syncing = false
		w.syncs++
		if err == nil && cover > w.synced {
			w.synced = cover
		}
		if err != nil {
			w.serr = err
			w.fatal = err
		}
		w.gcond.Broadcast()
		w.gmu.Unlock()
		if err != nil {
			return err
		}
	}
}

// Syncs returns the number of fsyncs issued through GroupSync — under
// concurrent mutation load it stays well below the append count, which
// is the whole point of group commit.
func (w *WAL) Syncs() int64 {
	w.gmu.Lock()
	defer w.gmu.Unlock()
	return w.syncs
}

// Reset empties the journal back to a bare header — the truncation step
// after a snapshot has captured everything the log held.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("store: WAL is closed")
	}
	return w.rewriteHeader()
}

// Records returns the number of records in the journal.
func (w *WAL) Records() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Size returns the journal's byte length.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Sync flushes the journal to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	return w.f.Sync()
}

// Close syncs and closes the journal.  Further appends fail; waiters
// blocked in GroupSync observe the final synced prefix (everything, on
// a successful close) and return.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return nil
	}
	size := w.size
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	w.mu.Unlock()

	w.gmu.Lock()
	if err == nil && size > w.synced {
		w.synced = size
	}
	if err != nil {
		w.serr = err
	}
	w.syncs++
	w.gcond.Broadcast()
	w.gmu.Unlock()
	return err
}
