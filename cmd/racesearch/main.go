// Command racesearch scores one query sequence against a database of
// sequences on a pool of reusable Race Logic arrays — the paper's
// database-search workload — and prints the ranked matches with hardware
// metrics.
//
// The database comes from -db FILE, positional FILE or stdin — all three
// parsed identically: real FASTA (multi-line records are concatenated
// into one sequence each) or the plain one-sequence-per-line format,
// auto-detected, with blank lines and '#'/';' comments skipped and
// sequences uppercased.  With -snapshot DIR the database instead comes
// from (or goes to) a durable database directory, the one
// racelogic.Persist writes and racelogic.Open reads: if DIR holds a
// database it is opened directly — skipping parsing, validation, and
// seed-index construction, and carrying its own engine options —
// otherwise the freshly built database is persisted there so the next
// run starts warm.
//
// Usage:
//
//	racesearch [-db FILE | -snapshot DIR] [-lib AMIS|OSU] [-threshold T]
//	           [-top K] [-workers N] [-matrix BLOSUM62|PAM250] [-gate m]
//	           [-seedk K] [-shards N] [-backend cycle|event|lanes]
//	           [-lanewidth 64|128|256|512] QUERY [FILE]
//
// Examples:
//
//	racesearch -db genomes.fasta -threshold 30 -top 5 ACGTACGTACGT
//	racesearch -db genomes.fasta -seedk 8 -snapshot genomes.db ACGT
//	racesearch -snapshot genomes.db -top 5 ACGTACGTACGT
//	racesearch -matrix BLOSUM62 HEAGAWGHEE proteins.txt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"racelogic"
	"racelogic/internal/seqgen"
)

func main() {
	dbFile := flag.String("db", "", "database file, FASTA or one sequence per line (auto-detected)")
	snapshot := flag.String("snapshot", "", "database directory: open it if it holds a database, else persist the built one there")
	lib := flag.String("lib", "AMIS", "standard-cell library: AMIS or OSU")
	threshold := flag.Int64("threshold", -1, "Section 6 similarity threshold (-1 = off)")
	top := flag.Int("top", 10, "number of ranked matches to print")
	workers := flag.Int("workers", 0, "worker-pool width (0 = number of CPUs)")
	matrix := flag.String("matrix", "", "protein matrix (BLOSUM62 or PAM250; empty = DNA)")
	gate := flag.Int("gate", 0, "Section 4.3 clock-gating region size (0 = ungated; DNA only)")
	seedK := flag.Int("seedk", 0, "k-mer seed index length (0 = race every entry)")
	shards := flag.Int("shards", 0, "database shard count (0 = GOMAXPROCS)")
	backendName := flag.String("backend", "cycle", "simulation engine: cycle (reference) or lanes (fast); event: alias of lanes")
	laneWidth := flag.Int("lanewidth", 0, "lanes backend pack width: 64, 128, 256, or 512 (0 = default 64)")
	flag.Parse()
	backend, err := racelogic.ParseBackend(*backendName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "racesearch:", err)
		os.Exit(2)
	}
	if flag.NArg() < 1 || flag.NArg() > 2 || (*dbFile != "" && flag.NArg() == 2) {
		fmt.Fprintln(os.Stderr, "usage: racesearch [flags] QUERY [FILE]   (FILE and -db are exclusive)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	// The loaders uppercase database sequences; treat the query alike.
	query := strings.ToUpper(flag.Arg(0))

	db, err := resolveDatabase(*snapshot, *dbFile, flag.Args(), *lib, *matrix, *gate, *seedK, *shards, backend, *laneWidth)
	if err != nil {
		fmt.Fprintln(os.Stderr, "racesearch:", err)
		os.Exit(1)
	}
	err = search(os.Stdout, db, query, *threshold, *top, *workers)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "racesearch:", err)
		os.Exit(1)
	}
}

// resolveDatabase produces the Database to race, which the caller
// closes.  A -snapshot directory that holds a database wins (it carries
// its own engine options — shaping flags the user set explicitly
// alongside it are rejected as contradictory, except -backend and
// -lanewidth, the runtime choices a directory does not fix); otherwise
// the entries are loaded, a database built, and, when -snapshot names a
// directory without a database, persisted there for the next run.
func resolveDatabase(snapshot, dbFile string, args []string,
	lib, matrix string, gate, seedK, shards int, backend racelogic.Backend, laneWidth int) (*racelogic.Database, error) {

	if snapshot != "" {
		opts := []racelogic.Option{racelogic.WithBackend(backend)}
		if laneWidth > 0 {
			opts = append(opts, racelogic.WithLaneWidth(laneWidth))
		}
		db, err := racelogic.Open(snapshot, opts...)
		if err == nil {
			var conflict []string
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "db", "lib", "matrix", "gate", "seedk", "shards":
					conflict = append(conflict, "-"+f.Name)
				}
			})
			if len(args) == 2 {
				conflict = append(conflict, "the positional database FILE")
			}
			if len(conflict) > 0 {
				_ = db.Close() // the conflict is the error worth reporting
				return nil, fmt.Errorf("%s already fixes the database and engine options; drop %s",
					snapshot, strings.Join(conflict, ", "))
			}
			return db, nil
		}
		if !errors.Is(err, racelogic.ErrNoDatabase) {
			return nil, err
		}
	}
	entries, err := loadDB(dbFile, args)
	if err != nil {
		return nil, err
	}
	db, err := buildDatabase(entries, lib, matrix, gate, seedK, shards, backend, laneWidth)
	if err != nil {
		return nil, err
	}
	if snapshot != "" {
		if err := db.Persist(snapshot); err != nil {
			return nil, fmt.Errorf("persisting the database: %w", err)
		}
		fmt.Fprintf(os.Stderr, "racesearch: saved %d entries to %s\n", db.Len(), snapshot)
	}
	return db, nil
}

// loadDB resolves the database input — -db FILE, positional FILE, or
// stdin — through the shared corpus loader raceserve uses too.
func loadDB(dbFile string, args []string) ([]string, error) {
	path := dbFile
	if path == "" && len(args) == 2 {
		path = args[1]
	}
	return seqgen.Corpus{Path: path, Reader: os.Stdin}.Load()
}

// buildDatabase maps the engine-shaping flags onto a Database.
func buildDatabase(entries []string, lib, matrix string, gate, seedK, shards int, backend racelogic.Backend, laneWidth int) (*racelogic.Database, error) {
	opts := []racelogic.Option{racelogic.WithLibrary(lib), racelogic.WithBackend(backend)}
	if laneWidth > 0 {
		opts = append(opts, racelogic.WithLaneWidth(laneWidth))
	}
	if matrix != "" {
		opts = append(opts, racelogic.WithMatrix(matrix))
	}
	if gate > 0 {
		opts = append(opts, racelogic.WithClockGating(gate))
	}
	if seedK > 0 {
		opts = append(opts, racelogic.WithSeedIndex(seedK))
	}
	if shards > 0 {
		opts = append(opts, racelogic.WithShards(shards))
	}
	return racelogic.NewDatabase(entries, opts...)
}

// run is the whole build-and-search path as one call — the shape main
// takes without -snapshot, kept together for tests.
func run(w io.Writer, query string, entries []string, lib string, threshold int64,
	top, workers int, matrix string, gate, seedK int) error {

	db, err := buildDatabase(entries, lib, matrix, gate, seedK, 0, racelogic.BackendCycle, 0)
	if err != nil {
		return err
	}
	return search(w, db, query, threshold, top, workers)
}

// search runs one query with the per-search options and prints the
// ranked report.
func search(w io.Writer, db *racelogic.Database, query string, threshold int64, top, workers int) error {
	var opts []racelogic.Option
	if threshold >= 0 {
		opts = append(opts, racelogic.WithThreshold(threshold))
	}
	if top > 0 {
		opts = append(opts, racelogic.WithTopK(top))
	}
	if workers > 0 {
		opts = append(opts, racelogic.WithWorkers(workers))
	}
	rep, err := db.Search(query, opts...)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "query %s (%d symbols) vs %d entries in %d length buckets (%d arrays built)\n",
		query, len(query), rep.Scanned+rep.Skipped, rep.Buckets, rep.EnginesBuilt)
	if rep.Skipped > 0 {
		fmt.Fprintf(w, "seed index: %d entries raced, %d skipped without a shared seed\n", rep.Scanned, rep.Skipped)
	}
	if threshold >= 0 {
		fmt.Fprintf(w, "threshold %d: %d matched, %d rejected early\n", threshold, rep.Matched, rep.Rejected)
	} else {
		fmt.Fprintf(w, "no threshold: %d entries scored\n", rep.Matched)
	}
	fmt.Fprintln(w)
	if len(rep.Results) == 0 {
		fmt.Fprintln(w, "no matches")
	} else {
		fmt.Fprintf(w, "%-6s %-7s %-8s %-12s %s\n", "rank", "id", "score", "energy (J)", "sequence")
		for rank, r := range rep.Results {
			fmt.Fprintf(w, "%-6d %-7d %-8d %-12.3g %s\n", rank+1, r.ID, r.Score, r.Metrics.EnergyJ, r.Sequence)
		}
	}
	fmt.Fprintf(w, "\ntotal: %d cycles, %.3g J across the whole scan\n", rep.TotalCycles, rep.TotalEnergyJ)
	return nil
}
