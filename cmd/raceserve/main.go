// Command raceserve is the long-running database-search service: it
// loads a sequence database once — from a FASTA or line-per-sequence
// file, a durable state directory, or generated for demos — builds a
// persistent racelogic.Database with pooled engines and an optional
// k-mer seed index, and serves concurrent similarity queries and live
// mutations over an HTTP JSON API.
//
// With -wal DIR the database is crash-safe: every mutation is journaled
// to a write-ahead log before it is acknowledged, a background
// snapshotter periodically folds the journal into a snapshot, and on
// start the service recovers automatically — newest snapshot plus
// journal tail — so even a kill -9 loses nothing.  Without -wal the
// database lives in memory only, and its mutations end with the
// process.
//
// Usage:
//
//	raceserve -db sequences.fasta [flags]
//	raceserve -gen 10000 -genlen 12 [flags]
//	raceserve -db seed.fasta -wal state/ [flags]
//
// Flags:
//
//	-addr :8471          listen address
//	-db FILE             sequence database (FASTA or one per line)
//	-gen N               generate N random DNA sequences instead of -db
//	-genlen L            length of generated sequences (default 12)
//	-seed S              generator seed (default 42)
//	-lib AMIS|OSU        standard-cell library pricing the races
//	-matrix NAME         protein matrix (BLOSUM62 or PAM250; empty = DNA)
//	-gate M              Section 4.3 clock-gating region size (DNA only)
//	-seedk K             k-mer seed index length (0 = race every entry)
//	-shards N            shard count (0 = GOMAXPROCS); each shard owns its
//	                     own snapshot, seed index, and journal file
//	-cache N             LRU report-cache capacity (0 = off)
//	-top K               default top-K when a request omits top_k
//	-backend NAME        simulation engine: cycle (the cycle-accurate
//	                     reference), event (the event-driven fast path),
//	                     or lanes (bit-parallel candidate packing);
//	                     identical reports, fewer wall-clock seconds.
//	                     A runtime choice — valid with -wal state from
//	                     any backend
//	-lanewidth W         lanes backend pack width: 64, 128, 256, or 512
//	                     candidates per race (0 = default 64).  A runtime
//	                     choice like -backend
//	-wal DIR             durable state directory: recover from it if it
//	                     holds a database (ignoring -db/-gen and the
//	                     engine-shaping flags, which the state carries),
//	                     else bootstrap it from -db/-gen; journal every
//	                     mutation and snapshot in the background
//	-snapshot-interval D background snapshot period for -wal (0 = off)
//	-snapshot-every N    mutations between background snapshots (0 = off)
//	-fsync               fsync the journals before acknowledging (survives
//	                     power loss, not just crashes); concurrent
//	                     mutations share flushes via group commit
//	-wal-segment-bytes N checkpoint each time a shard's journal grows
//	                     across another multiple of N bytes, bounding the
//	                     replay tail at quiescence, not under steady
//	                     writes (0 = no byte trigger)
//	-debug-addr ADDR     serve net/http/pprof and /metrics on a second
//	                     listener (empty = off); keep it off public
//	                     interfaces
//	-slow-latency D      log uncached searches slower than D to /slowlog
//	                     and the process log (0 = off)
//	-slow-energy J       log uncached searches spending ≥ J joules —
//	                     the hardware-native slow threshold (0 = off)
//	-slow-log N          slow-query ring size (default 128)
//
// Endpoints:
//
//	POST   /search        {"query":"ACGTACGT","top_k":5,"threshold":12};
//	                      append ?trace=1 for the per-shard span
//	                      breakdown (bypasses the report cache); a JSON
//	                      array of such objects races as one batch and
//	                      answers with an array of reports in order
//	                      (queries sharing options pack into shared
//	                      lanes under -backend lanes)
//	POST   /entries       {"entries":["ACGTAACC"]} — live insert
//	POST   /entries/bulk  streaming import: FASTA/plain body, or NDJSON
//	                      (one JSON string per line) with
//	                      Content-Type: application/x-ndjson
//	DELETE /entries/{id}  live remove by stable ID
//	POST   /compact       manual dense rebuild; returns the slot remap
//	GET    /healthz       liveness probe
//	GET    /stats         service counters (version, journal tail,
//	                      snapshot age, compactions, cache, …) — one
//	                      consistent database view per reply
//	GET    /metrics       Prometheus text format: search latency/cycles/
//	                      energy histograms, WAL and snapshot counters,
//	                      per-shard gauges, build info
//	GET    /slowlog       the slow-query ring, oldest first
//
// Example:
//
//	raceserve -db db.fasta -seedk 8 -wal state/ &
//	curl -s localhost:8471/search -d '{"query":"ACGTACGT","top_k":3}'
//	curl -s localhost:8471/entries/bulk --data-binary @more.fasta
//	curl -s -X POST localhost:8471/compact
//	kill -9 %1      # nothing is lost:
//	raceserve -wal state/   # recovers snapshot + journal tail
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"racelogic"
	"racelogic/internal/seqgen"
	"racelogic/internal/server"
)

// options collects every flag buildServer needs.
type options struct {
	dbPath       string
	gen          int
	genLen       int
	seed         int64
	lib          string
	matrix       string
	gate         int
	seedK        int
	shards       int
	cache        int
	top          int
	backend      racelogic.Backend
	laneWidth    int
	walDir       string
	snapInterval time.Duration
	snapEvery    int
	fsync        bool
	segBytes     int64
	slowLatency  time.Duration
	slowEnergy   float64
	slowLogSize  int
}

func main() {
	var o options
	addr := flag.String("addr", ":8471", "listen address")
	flag.StringVar(&o.dbPath, "db", "", "sequence database file (FASTA or one sequence per line)")
	flag.IntVar(&o.gen, "gen", 0, "generate this many random DNA sequences instead of -db")
	flag.IntVar(&o.genLen, "genlen", 12, "length of generated sequences")
	flag.Int64Var(&o.seed, "seed", 42, "generator seed for -gen")
	flag.StringVar(&o.lib, "lib", "AMIS", "standard-cell library: AMIS or OSU")
	flag.StringVar(&o.matrix, "matrix", "", "protein matrix (BLOSUM62 or PAM250; empty = DNA)")
	flag.IntVar(&o.gate, "gate", 0, "Section 4.3 clock-gating region size (0 = ungated; DNA only)")
	flag.IntVar(&o.seedK, "seedk", 0, "k-mer seed index length (0 = race every entry)")
	flag.IntVar(&o.shards, "shards", 0, "database shard count (0 = GOMAXPROCS); with -wal, reshards a recovered directory in place")
	flag.IntVar(&o.cache, "cache", 128, "LRU report-cache capacity (0 = off)")
	flag.IntVar(&o.top, "top", 10, "default top-K when a request omits top_k")
	backendName := flag.String("backend", "cycle", "simulation engine: cycle (reference), event (fast), or lanes (batched)")
	flag.IntVar(&o.laneWidth, "lanewidth", 0, "lanes backend pack width: 64, 128, 256, or 512 (0 = default 64)")
	flag.StringVar(&o.walDir, "wal", "", "durable state directory: write-ahead log + background snapshots, crash-safe")
	flag.DurationVar(&o.snapInterval, "snapshot-interval", racelogic.DefaultSnapshotInterval,
		"background snapshot period for -wal (0 = off)")
	flag.IntVar(&o.snapEvery, "snapshot-every", racelogic.DefaultSnapshotEvery,
		"mutations between background snapshots for -wal (0 = off)")
	flag.BoolVar(&o.fsync, "fsync", false, "fsync the journals before acknowledging mutations (group-committed)")
	flag.Int64Var(&o.segBytes, "wal-segment-bytes", racelogic.DefaultWALSegmentBytes,
		"checkpoint each time a shard's journal grows across another multiple of this many bytes (0 = no byte trigger)")
	debugAddr := flag.String("debug-addr", "",
		"serve net/http/pprof and /metrics on this separate address (empty = off); keep it off public interfaces")
	flag.DurationVar(&o.slowLatency, "slow-latency", 0,
		"log uncached searches slower than this to /slowlog and the process log (0 = off)")
	flag.Float64Var(&o.slowEnergy, "slow-energy", 0,
		"log uncached searches spending at least this many joules (0 = off)")
	flag.IntVar(&o.slowLogSize, "slow-log", server.DefaultSlowLogSize,
		"slow-query ring size served by GET /slowlog")
	flag.Parse()
	backend, err := racelogic.ParseBackend(*backendName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "raceserve:", err)
		os.Exit(2)
	}
	o.backend = backend

	srv, db, err := buildServer(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "raceserve:", err)
		os.Exit(1)
	}
	log.Printf("raceserve: serving %d sequences on %s (version %d, %d shards, seed index k=%d, cache %d, durable %v)",
		db.Len(), *addr, db.Version(), db.Shards(), db.SeedK(), o.cache, db.Durable())
	if *debugAddr != "" {
		go serveDebug(*debugAddr, srv)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// A mutable corpus makes shutdown a data event, not just a network
	// one: drain in-flight requests, then close the database.  With -wal
	// every mutation is already journaled; the final checkpoint just
	// makes the next start replay-free.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	select {
	case err := <-done:
		fmt.Fprintln(os.Stderr, "raceserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("raceserve: shutdown: %v", err)
		}
		// Shutdown gave up with handlers still running.  Hard-close them
		// before the final checkpoint, so no mutation is acknowledged
		// after the journals close.
		hs.Close()
	}
	if o.walDir != "" {
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "raceserve: closing database:", err)
			os.Exit(1)
		}
		log.Printf("raceserve: checkpointed %d entries (version %d) to %s", db.Len(), db.Version(), o.walDir)
	}
}

// serveDebug runs the opt-in profiling listener: net/http/pprof on its
// own mux (never the service mux, so profiling exposure is an explicit
// -debug-addr decision) plus a /metrics convenience mount.
func serveDebug(addr string, srv *server.Server) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", srv.MetricsHandler())
	log.Printf("raceserve: debug listener (pprof + /metrics) on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("raceserve: debug listener: %v", err)
	}
}

// buildServer loads or recovers the database and assembles the HTTP
// service — everything main does short of listening.
func buildServer(o options) (*server.Server, *racelogic.Database, error) {
	db, err := loadDatabase(o)
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.New(server.Config{
		DB:               db,
		CacheSize:        o.cache,
		DefaultTopK:      o.top,
		SlowQueryLatency: o.slowLatency,
		SlowQueryEnergyJ: o.slowEnergy,
		SlowLogSize:      o.slowLogSize,
	})
	if err != nil {
		return nil, nil, err
	}
	return srv, db, nil
}

// engineOptions maps the runtime engine flags — the choices no stored
// state fixes, valid on every load path.
func engineOptions(o options) []racelogic.Option {
	opts := []racelogic.Option{racelogic.WithBackend(o.backend)}
	if o.laneWidth > 0 {
		opts = append(opts, racelogic.WithLaneWidth(o.laneWidth))
	}
	return opts
}

// durabilityOptions maps the -wal companion flags.
func durabilityOptions(o options) []racelogic.Option {
	return []racelogic.Option{
		racelogic.WithSync(o.fsync),
		racelogic.WithSnapshotInterval(o.snapInterval),
		racelogic.WithSnapshotEvery(o.snapEvery),
		racelogic.WithWALSegmentBytes(o.segBytes),
	}
}

// loadDatabase resolves the database in precedence order: recover the
// durable -wal directory if it already holds a database (the crash-safe
// warm start — cold-load flags are ignored, the state carries its own),
// else a cold load from -db/-gen — which, under -wal, also bootstraps
// the directory.
func loadDatabase(o options) (*racelogic.Database, error) {
	if o.walDir != "" {
		// Recover if the directory already holds a database; bootstrap
		// below only on ErrNoDatabase.  Corruption must fail loudly,
		// never fall back to a cold load that would shadow the real
		// state.
		openOpts := append(durabilityOptions(o), engineOptions(o)...)
		if o.shards > 0 {
			openOpts = append(openOpts, racelogic.WithShards(o.shards))
		}
		db, err := racelogic.Open(o.walDir, openOpts...)
		switch {
		case err == nil:
			log.Printf("raceserve: recovered %s (%d entries, version %d)", o.walDir, db.Len(), db.Version())
			return db, nil
		case !errors.Is(err, racelogic.ErrNoDatabase):
			return nil, err
		}
	}

	entries, err := seqgen.Corpus{
		Path:    o.dbPath,
		Gen:     o.gen,
		GenLen:  o.genLen,
		Seed:    o.seed,
		Protein: o.matrix != "",
	}.Load()
	if err != nil {
		return nil, fmt.Errorf("%w (a database is required: -db FILE, -gen N, or a -wal directory that holds one)", err)
	}

	opts := append([]racelogic.Option{racelogic.WithLibrary(o.lib)}, engineOptions(o)...)
	if o.matrix != "" {
		opts = append(opts, racelogic.WithMatrix(o.matrix))
	}
	if o.gate > 0 {
		opts = append(opts, racelogic.WithClockGating(o.gate))
	}
	if o.seedK > 0 {
		opts = append(opts, racelogic.WithSeedIndex(o.seedK))
	}
	if o.shards > 0 {
		opts = append(opts, racelogic.WithShards(o.shards))
	}
	db, err := racelogic.NewDatabase(entries, opts...)
	if err != nil {
		return nil, err
	}
	if o.walDir != "" {
		if err := db.Persist(o.walDir, durabilityOptions(o)...); err != nil {
			return nil, err
		}
		log.Printf("raceserve: bootstrapped durable state in %s", o.walDir)
	}
	return db, nil
}
