package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"racelogic"
)

// crashImage is a durable database directory as a crash would leave
// it: base holds the corpus snapshot with an empty journal, tail the
// same snapshot plus the journaled tail mutations.  The service only
// ever opens copies, so every set-up replays the same records.
type crashImage struct {
	base, tail string
	baseLen    int // live entries in base
	live       int // live entries in tail
	// entries maps every ID the image ever assigned to its sequence,
	// removed ones included: a search may still return an entry a
	// concurrent remove is deleting.
	entries map[uint64]string
	// userBytes is the payload the tail mutations carried: the bytes
	// of inserted sequences plus eight per removed ID.
	userBytes int
}

// recovery is the state opening an image copy must find.
type recovery struct {
	version int64
	entries int
	tail    int64 // journal records replayed
}

// expect returns the directory to copy for the base or tail image and
// the state recovering it must produce.
func (img *crashImage) expect(tail bool) (string, recovery) {
	if !tail {
		return img.base, recovery{entries: img.baseLen}
	}
	return img.tail, recovery{version: journalTail, entries: img.live, tail: journalTail}
}

// durableOptions are the journal and snapshot settings the mixed-durable
// service runs under: fsync on every acknowledged mutation, and
// checkpoints triggered by mutation count only.
func durableOptions(every int) []racelogic.Option {
	return []racelogic.Option{
		racelogic.WithSync(true),
		racelogic.WithSnapshotInterval(0),
		racelogic.WithSnapshotEvery(every),
	}
}

// prepareImage builds the crash image for in under root, or reuses the
// one an earlier run left there for the same seed.  Mutations are
// applied one at a time from one goroutine, so the same seed yields the
// same snapshot and journal bytes.
func prepareImage(in *inputs, root string) (*crashImage, error) {
	img := &crashImage{
		base:    filepath.Join(root, "base"),
		tail:    filepath.Join(root, "tail"),
		baseLen: len(in.corpus),
		entries: make(map[uint64]string, len(in.corpus)),
	}
	for i, e := range in.corpus {
		img.entries[uint64(i)] = e
	}
	next := uint64(len(in.corpus))
	img.live = len(in.corpus)
	for _, r := range in.durable.tail {
		switch r.op {
		case opInsert:
			img.entries[next] = r.entry
			next++
			img.live++
			img.userBytes += len(r.entry)
		case opRemove:
			img.live--
			img.userBytes += 8
		}
	}
	done := filepath.Join(root, "complete")
	if _, err := os.Stat(done); err == nil {
		return img, nil
	}
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	work := filepath.Join(root, "work")
	db, err := racelogic.NewDatabase(in.corpus, in.dbOpts...)
	if err != nil {
		return nil, err
	}
	err = writeImage(db, in.durable.tail, work, img)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.RemoveAll(work)
	}
	if err != nil {
		return nil, err
	}
	return img, os.WriteFile(done, nil, 0o644)
}

// writeImage persists db to work, copies it as the base image, applies
// the tail, and copies the result as the tail image.  The copies are
// taken before Close, whose checkpoint would fold the tail away.
func writeImage(db *racelogic.Database, tail []request, work string, img *crashImage) error {
	// The snapshot trigger is off while the tail is written, so the
	// image holds exactly one snapshot and the whole tail.
	if err := db.Persist(work, durableOptions(0)...); err != nil {
		return err
	}
	if err := copyDir(work, img.base); err != nil {
		return err
	}
	for _, r := range tail {
		if err := applyDirect(db, r); err != nil {
			return err
		}
	}
	return copyDir(work, img.tail)
}

// applyDirect applies one mutation request through the library API.
func applyDirect(db *racelogic.Database, r request) error {
	switch r.op {
	case opInsert:
		_, err := db.Insert(r.entry)
		return err
	case opRemove:
		return db.Remove(r.id)
	}
	return fmt.Errorf("request kind %d is not a mutation", r.op)
}

// openCopy recovers the image copy at dir and checks the recovered
// version, entry count and journal-tail length against want, so every
// set-up replays the same records.
func openCopy(dir string, want recovery) (*racelogic.Database, error) {
	db, err := racelogic.Open(dir, append(durableOptions(snapshotEvery),
		racelogic.WithBackend(racelogic.BackendLanes))...)
	if err != nil {
		return nil, err
	}
	got := recovery{version: db.Version(), entries: db.Len(), tail: db.WALRecords()}
	if got != want {
		_ = db.Close() // the mismatch is the error worth reporting
		return nil, fmt.Errorf("recovered version %d, %d entries, journal tail %d; want %d, %d, %d",
			got.version, got.entries, got.tail, want.version, want.entries, want.tail)
	}
	return db, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) (err error) {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = io.Copy(out, in)
	return err
}

// walBytes sums the sizes of the journal files in dir.
func walBytes(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.wal*"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	if total == 0 {
		return 0, errors.New("no journal files in " + dir)
	}
	return total, nil
}
