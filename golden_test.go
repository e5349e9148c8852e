package racelogic_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"racelogic"
	"racelogic/internal/seqgen"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// goldenCompare marshals got, then either rewrites the golden file
// (-update) or requires a byte-identical match with it.  Every golden
// test runs its workload under every backend against the same file, so
// the corpus pins cycle-accurate behavior AND proves the fast backends
// reproduce it — a regression in any engine shows up as a diff.
func goldenCompare(t *testing.T, name string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "golden", name+".json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update` to create golden files)", err)
	}
	if !bytes.Equal(want, data) {
		t.Fatalf("%s does not match golden file; diff the file against this output or rerun with -update if the change is intended:\n%s", path, data)
	}
}

// goldenEntries is the fixed corpus every golden search runs against.
func goldenEntries() []string {
	gen := seqgen.NewDNA(400)
	entries := make([]string, 0, 12)
	for _, n := range []int{4, 6, 6, 8, 8, 8, 10, 10, 12, 5, 7, 9} {
		entries = append(entries, gen.Random(n))
	}
	return entries
}

// goldenProteinEntries is the fixed protein corpus of the protein
// golden search: several lengths, so the search races several shapes.
func goldenProteinEntries() []string {
	gen := seqgen.NewProtein(401)
	entries := make([]string, 0, 8)
	for _, n := range []int{3, 4, 4, 5, 5, 5, 6, 4} {
		entries = append(entries, gen.Random(n))
	}
	return entries
}

// TestGoldenSearchReports pins the full SearchReport — ranking, scores,
// stable IDs, scan counters, cycle totals, energy — for a deterministic
// database under each engine configuration, and checks every backend
// against the same files.
func TestGoldenSearchReports(t *testing.T) {
	dna := goldenEntries()
	dnaQueries := []string{"ACGTACGT", "TTTTTT", "GATTACA"}
	protein := goldenProteinEntries()
	variants := []struct {
		name             string
		entries, queries []string
		opts             []racelogic.Option
	}{
		{"plain", dna, dnaQueries, nil},
		{"gated", dna, dnaQueries, []racelogic.Option{racelogic.WithClockGating(2)}},
		{"threshold_topk", dna, dnaQueries, []racelogic.Option{racelogic.WithThreshold(7), racelogic.WithTopK(3)}},
		{"seeded", dna, dnaQueries, []racelogic.Option{racelogic.WithSeedIndex(3)}},
		// Threshold 64 accepts 2, 5 and 3 of the 8 entries.
		{"protein", protein, []string{protein[3], "WARD", "MKVLA"}, []racelogic.Option{racelogic.WithMatrix("BLOSUM62"), racelogic.WithThreshold(64)}},
	}
	for _, v := range variants {
		for _, backend := range []racelogic.Backend{racelogic.BackendCycle, racelogic.BackendLanes} {
			if *update && backend != racelogic.BackendCycle {
				continue // golden files are written from the reference backend
			}
			opts := append([]racelogic.Option{
				racelogic.WithBackend(backend),
				racelogic.WithWorkers(1),
			}, v.opts...)
			d, err := racelogic.NewDatabase(v.entries, opts...)
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			reports := make([]*racelogic.SearchReport, 0, len(v.queries))
			for _, q := range v.queries {
				rep, err := d.Search(q)
				if err != nil {
					t.Fatalf("%s (%v) %q: %v", v.name, backend, q, err)
				}
				rep.EnginesBuilt = 0 // pool-timing dependent, excluded from the pin
				reports = append(reports, rep)
			}
			goldenCompare(t, "search_"+v.name, reports)
		}
	}
}

// TestGoldenAlignments pins single-pair alignments — score, traceback
// rows, the full timing matrix, and metrics — for the DNA and protein
// engines under both backends.
func TestGoldenAlignments(t *testing.T) {
	type alignmentCase struct {
		Name      string
		P, Q      string
		Alignment *racelogic.Alignment
	}

	dna := []struct{ p, q string }{
		{"GATTACA", "GCATGCA"},
		{"ACGT", "ACGT"},
		{"AAAA", "TTTTTT"},
	}
	prot := []struct{ p, q string }{
		{"ARND", "ARNE"},
		{"WYV", "WYV"},
	}

	for _, backend := range []racelogic.Backend{racelogic.BackendCycle, racelogic.BackendLanes} {
		if *update && backend != racelogic.BackendCycle {
			continue
		}
		var cases []alignmentCase
		for _, c := range dna {
			e, err := racelogic.NewDNAEngine(len(c.p), len(c.q), racelogic.WithBackend(backend))
			if err != nil {
				t.Fatal(err)
			}
			a, err := e.Align(c.p, c.q)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, alignmentCase{"dna", c.p, c.q, a})
		}
		for _, c := range prot {
			e, err := racelogic.NewProteinEngine(len(c.p), len(c.q), "BLOSUM62", racelogic.WithBackend(backend))
			if err != nil {
				t.Fatal(err)
			}
			a, err := e.Align(c.p, c.q)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, alignmentCase{"protein", c.p, c.q, a})
		}
		goldenCompare(t, "alignments", cases)
	}
}

// layoutFile is one file of a durable directory as the layout golden
// records it.
type layoutFile struct {
	Name   string
	Size   int
	SHA256 string
}

// layoutOf returns every regular file of dir, by name, with its size
// and SHA-256.
func layoutOf(t *testing.T, dir string) []layoutFile {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []layoutFile
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		out = append(out, layoutFile{Name: e.Name(), Size: len(raw), SHA256: hex.EncodeToString(sum[:])})
	}
	return out
}

// TestGoldenDurableLayout pins the bytes a durable database writes.  A
// fixed history runs on two shards with a seed index: inserts, removes,
// a checkpoint, a compaction and a journal tail after it.  The golden
// records every file of its crash image (the directory while the
// database still runs), then every file of that image after Open
// replays it and Close checkpoints it.  So a moved journal sequence, a
// changed snapshot byte or a different file set fails the test.
func TestGoldenDurableLayout(t *testing.T) {
	idle := []racelogic.Option{racelogic.WithSnapshotInterval(0), racelogic.WithSnapshotEvery(0)}
	d, err := racelogic.NewDatabase(goldenEntries(), racelogic.WithShards(2), racelogic.WithSeedIndex(4))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := d.Persist(dir, idle...); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	gen := seqgen.NewDNA(402)
	insert := func(lengths ...int) []uint64 {
		t.Helper()
		entries := make([]string, len(lengths))
		for i, n := range lengths {
			entries[i] = gen.Random(n)
		}
		ids, err := d.Insert(entries...)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	remove := func(ids ...uint64) {
		t.Helper()
		if err := d.Remove(ids...); err != nil {
			t.Fatal(err)
		}
	}
	a := insert(9)
	b := insert(6, 8, 11, 7)
	remove(2, a[0], b[1])
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	remove(b[2])
	if _, err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	c := insert(10, 5)
	remove(c[0])
	if d.Tombstones() != 1 || d.WALRecords() == 0 {
		t.Fatalf("history ran off script: %d tombstones, %d journal records", d.Tombstones(), d.WALRecords())
	}

	var layout struct{ CrashImage, Reopened []layoutFile }
	layout.CrashImage = layoutOf(t, dir)
	image := t.TempDir()
	for _, f := range layout.CrashImage {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, f.Name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	back, err := racelogic.Open(image, idle...)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version() != d.Version() || back.Len() != d.Len() || back.Tombstones() != 1 {
		t.Fatalf("recovered version %d, %d live, %d tombstones; ran at %d with %d live",
			back.Version(), back.Len(), back.Tombstones(), d.Version(), d.Len())
	}
	if err := back.Close(); err != nil {
		t.Fatal(err)
	}
	layout.Reopened = layoutOf(t, image)
	goldenCompare(t, "durable_layout", layout)
}
