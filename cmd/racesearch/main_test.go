package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"racelogic"
	"racelogic/internal/seqgen"
)

// TestLoadDBFASTA pins the -db path: a real FASTA file with multi-line
// records loads one concatenated sequence per record.
func TestLoadDBFASTA(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.fasta")
	fasta := ">a first\nACGT\nACGT\n>b\nTTTT\n"
	if err := os.WriteFile(path, []byte(fasta), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := loadDB(path, []string{"ACGT"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ACGTACGT", "TTTT"}
	if len(db) != len(want) || db[0] != want[0] || db[1] != want[1] {
		t.Errorf("got %v, want %v", db, want)
	}
	if _, err := loadDB(filepath.Join(t.TempDir(), "missing.fasta"), nil); err == nil {
		t.Error("missing -db file must error")
	}
}

// TestLoadDBPositional pins that the positional-FILE path parses exactly
// like -db: auto-detected format, comments skipped, lowercase accepted.
func TestLoadDBPositional(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.txt")
	if err := os.WriteFile(path, []byte("# comment\nacgt\n\n; note\nTTTT\n  GGCC  \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := loadDB("", []string{"QUERY", path})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ACGT", "TTTT", "GGCC"}
	if len(db) != len(want) {
		t.Fatalf("got %d entries %v, want %v", len(db), db, want)
	}
	for i := range want {
		if db[i] != want[i] {
			t.Errorf("entry %d = %q, want %q", i, db[i], want[i])
		}
	}
}

// TestRunTopKMatchesSerialAlign pins the CLI's ranking against serial
// single-pair Align calls: the top-K indices and scores must be exactly
// the K best (score, index) pairs of the naive loop.
func TestRunTopKMatchesSerialAlign(t *testing.T) {
	g := seqgen.NewDNA(11)
	query := g.Random(10)
	db := g.Database(25, 10)

	// Serial golden model: one engine per pair, no threshold.
	type scored struct {
		index int
		score int64
	}
	var golden []scored
	for i, entry := range db {
		e, err := racelogic.NewDNAEngine(len(query), len(entry))
		if err != nil {
			t.Fatal(err)
		}
		a, err := e.Align(query, entry)
		if err != nil {
			t.Fatal(err)
		}
		golden = append(golden, scored{i, a.Score})
	}
	// Selection sort the golden list by (score, index) — small K.
	for i := range golden {
		for j := i + 1; j < len(golden); j++ {
			if golden[j].score < golden[i].score ||
				(golden[j].score == golden[i].score && golden[j].index < golden[i].index) {
				golden[i], golden[j] = golden[j], golden[i]
			}
		}
	}

	const k = 5
	rep, err := racelogic.Search(query, db, racelogic.WithTopK(k), racelogic.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != k {
		t.Fatalf("got %d results, want %d", len(rep.Results), k)
	}
	for i, r := range rep.Results {
		if r.Index != golden[i].index || r.Score != golden[i].score {
			t.Errorf("rank %d: got (index %d, score %d), want (index %d, score %d)",
				i, r.Index, r.Score, golden[i].index, golden[i].score)
		}
	}
}

func TestRunDNASearch(t *testing.T) {
	g := seqgen.NewDNA(3)
	db := g.Database(12, 8)
	if err := run(io.Discard, g.Random(8), db, "AMIS", 12, 3, 2, "", 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunProteinSearch(t *testing.T) {
	g := seqgen.NewProtein(4)
	db := g.Database(4, 4)
	if err := run(io.Discard, g.Random(4), db, "AMIS", -1, 2, 1, "BLOSUM62", 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunGatedSearch(t *testing.T) {
	g := seqgen.NewDNA(5)
	db := g.Database(6, 6)
	if err := run(io.Discard, g.Random(6), db, "OSU", 8, 2, 1, "", 2, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, "ACGT", []string{"ACGT"}, "XFAB", -1, 1, 1, "", 0, 0); err == nil {
		t.Error("unknown library must error")
	}
	if err := run(io.Discard, "ACGT", []string{"AXGT"}, "AMIS", -1, 1, 1, "", 0, 0); err == nil {
		t.Error("bad database symbol must error")
	}
	if err := run(io.Discard, "WAR", []string{"RAW"}, "AMIS", -1, 1, 1, "BLOSUM80", 0, 0); err == nil {
		t.Error("unknown matrix must error")
	}
	if err := run(io.Discard, "", []string{"ACGT"}, "AMIS", -1, 1, 1, "", 0, 0); err == nil {
		t.Error("empty query must error")
	}
}

// TestResolveDatabaseSnapshot pins the -snapshot flow: a directory
// without a database builds from -db and persists there; a later run
// opens the directory alone, on another backend, and searches
// identically.
func TestResolveDatabaseSnapshot(t *testing.T) {
	dir := t.TempDir()
	fasta := filepath.Join(dir, "db.fasta")
	if err := os.WriteFile(fasta, []byte(">a\nACGTACGT\n>b\nACGTACCT\n>c\nTTTTTTTT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "db")

	built, err := resolveDatabase(snap, fasta, nil, "AMIS", "", 0, 4, 0, racelogic.BackendCycle, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(snap, racelogic.ManifestName)); err != nil {
		t.Fatalf("database was not persisted: %v", err)
	}
	want, err := built.Search("ACGTACGT")
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	opened, err := resolveDatabase(snap, "", nil, "AMIS", "", 0, 0, 0, racelogic.BackendLanes, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if opened.Len() != built.Len() || opened.SeedK() != 4 || opened.Backend() != racelogic.BackendLanes {
		t.Fatalf("reopened len=%d seedk=%d backend %v, want %d, 4 and lanes",
			opened.Len(), opened.SeedK(), opened.Backend(), built.Len())
	}
	got, err := opened.Search("ACGTACGT")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != len(want.Results) || got.Results[0].ID != want.Results[0].ID ||
		got.Results[0].Score != want.Results[0].Score || got.Skipped != want.Skipped {
		t.Errorf("reopened search differs: got %+v, want %+v", got, want)
	}
	if err := search(io.Discard, opened, "ACGTACGT", -1, 3, 1); err != nil {
		t.Fatal(err)
	}
}

// TestResolveDatabaseSnapshotRejectsPositionalFile pins that a
// -snapshot directory holding a database cannot be silently combined
// with a positional database FILE: the contradiction is reported, not
// ignored.
func TestResolveDatabaseSnapshotRejectsPositionalFile(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "db")
	db, err := racelogic.NewDatabase([]string{"ACGT"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Persist(snap); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := resolveDatabase(snap, "", []string{"QUERY", "other.txt"}, "AMIS", "", 0, 0, 0, racelogic.BackendCycle, 0); err == nil {
		t.Error("-snapshot + positional FILE must error, not silently ignore the file")
	}
}
