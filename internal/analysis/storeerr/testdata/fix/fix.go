// Package fix exercises storeerr: errors returned on durability paths
// (the store package, os file operations, bufio flushes) must not be
// discarded by bare call statements.
package fix

import (
	"bufio"
	"os"

	"racelogic/internal/store"
)

// handled propagates store errors: legal.
func handled(w *store.WAL) error {
	if err := w.DropLast(); err != nil {
		return err
	}
	return w.Close()
}

// dropped discards a store error: flagged.
func dropped(w *store.WAL) {
	w.DropLast() // want `error returned by .*DropLast.* is discarded on a durability path`
}

// explicit assigns to _: a visible, reviewable discard, legal.
func explicit(w *store.WAL) {
	_ = w.DropLast()
}

// closeFile drops (*os.File).Close on a write path: flagged.
func closeFile(f *os.File) {
	f.Close() // want `error returned by .*Close.* is discarded on a durability path`
}

// syncFile drops fsync: flagged.
func syncFile(f *os.File) {
	f.Sync() // want `error returned by .*Sync.* is discarded on a durability path`
}

// renameDrop drops os.Rename: flagged.
func renameDrop(a, b string) {
	os.Rename(a, b) // want `error returned by os.Rename is discarded on a durability path`
}

// flushDrop drops a buffered writer flush: flagged.
func flushDrop(w *bufio.Writer) {
	w.Flush() // want `error returned by .*Flush.* is discarded on a durability path`
}

// deferredClose on a read path is structurally unobservable: legal.
func deferredClose(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 16)
	n, err := f.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// nonDurability ignores a call off the checked surface: legal.
func nonDurability(f *os.File) {
	f.Name()
	os.Getenv("HOME")
}

// bestEffort documents an intended discard: suppressed.
func bestEffort(a, b string) {
	//lint:ignore racelint/storeerr cleanup of a scratch file is best-effort
	os.Remove(a)
	_ = b
}
