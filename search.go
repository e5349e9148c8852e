package racelogic

import (
	"context"
	"fmt"

	"racelogic/internal/pipeline"
	"racelogic/internal/race"
)

// SearchResult is one database entry that survived the race, with the
// hardware metrics of its individual alignment.
type SearchResult struct {
	// Index is the entry's current slot in the database: its position in
	// the global stable-ID order over every resident slot (live and
	// tombstoned), which is shard-count-invariant — a database
	// partitioned with WithShards reports the same Index an
	// unpartitioned one would.  Slots are renumbered when a mutated
	// database compacts its tombstones, so long-lived references should
	// use ID.  Sequence is the entry itself.
	Index    int
	Sequence string
	// ID is the entry's stable identifier: assigned at load or Insert,
	// unchanged by compaction and by snapshot save/reload, and the
	// handle Database.Remove takes.  For a one-shot Search, IDs coincide
	// with the database slice positions.
	ID uint64
	// Score is the alignment score (arrival time of the output edge).
	// Lower means more similar, for DNA and prepared protein matrices
	// alike.
	Score int64
	// Metrics prices this entry's race on its bucket's shared array.
	Metrics Metrics
}

// SearchReport is the outcome of scoring one query against a database.
type SearchReport struct {
	// Query is the searched-for sequence.
	Query string
	// Version is the database mutation counter the search ran against:
	// the whole report reflects exactly that snapshot, no matter which
	// Inserts or Removes landed while the races were in flight.  Always
	// 0 for the one-shot Search.
	Version int64
	// Results holds the matches ranked by (Score, Index) ascending,
	// truncated to WithTopK.  The order is deterministic regardless of
	// worker count and shard count alike — a partitioned database's
	// scatter-gather merge ranks by the same global coordinates.
	Results []SearchResult
	// Scanned, Matched and Rejected count the database entries raced,
	// the entries that finished below the threshold (including matches
	// beyond the top-K truncation), and the entries the Section 6
	// pre-filter abandoned after threshold+1 cycles.
	Scanned, Matched, Rejected int
	// Skipped counts the entries the k-mer seed index excluded without
	// racing at all — they share no length-k substring with the query.
	// Zero unless WithSeedIndex is in effect.  Scanned+Skipped equals
	// the database size.
	Skipped int
	// Buckets is the number of distinct entry lengths; EnginesBuilt is
	// the number of arrays constructed to cover them — the quantity
	// engine reuse keeps far below Scanned.
	Buckets, EnginesBuilt int
	// TotalCycles and TotalEnergyJ aggregate every race, accepted or
	// rejected; a threshold shrinks both.
	TotalCycles  int
	TotalEnergyJ float64
}

// Search scores query against every entry of db on a pool of reusable
// Race Logic arrays and returns the ranked matches — the paper's database
// search workload ("for every new sequence obtained, a search for similar
// sequences is performed across known databases", Section 1).
//
// Entries are sharded into one bucket per length, because arrays are
// fixed-size hardware: each bucket's array is built once and reset between
// races rather than rebuilt per pair, and buckets fan out across a worker
// pool.  Search accepts the same options as the engines:
//
//   - WithThreshold enables the Section 6 pre-filter — dissimilar entries
//     cost only threshold+1 cycles before being dropped;
//   - WithClockGating builds Section 4.3 gated arrays (combinable with
//     WithThreshold);
//   - WithMatrix selects a protein matrix and switches every bucket to
//     the Section 5 generalized array (WithOneHotEncoding applies);
//   - WithLibrary prices the races;
//   - WithTopK and WithWorkers shape the report and the fan-out.
//
// Search accepts WithSeedIndex too, building the k-mer pre-filter for
// its single query.  An empty database returns an empty report.  An
// empty query or database entry is an error: the arrays need at least a
// 1×1 edit graph.
//
// Search is a thin build-then-search wrapper over Database: it pays full
// sharding, indexing and compilation cost per call.  Callers with more
// than one query against the same collection should hold a Database and
// amortize that cost across searches.
func Search(query string, db []string, opts ...Option) (*SearchReport, error) {
	if len(query) == 0 {
		return nil, fmt.Errorf("racelogic: empty query")
	}
	d, err := NewDatabase(db, opts...)
	if err != nil {
		return nil, err
	}
	return d.search(context.Background(), query, d.cfg)
}

// BatchError reports which query of a batch failed.  Query is the
// index into the queries slice passed to SearchBatch; Err is the
// underlying failure, reachable through errors.Is/As.
type BatchError struct {
	Query int
	Err   error
}

func (e *BatchError) Error() string { return fmt.Sprintf("query %d: %v", e.Query, e.Err) }

func (e *BatchError) Unwrap() error { return e.Err }

// SearchBatch scores every query against db in one pipeline pass and
// returns one report per query, in input order.  It is the batch
// counterpart of the one-shot Search: the database is built once and
// shared by the whole batch, and under BackendLanes same-shape
// candidate pairs from different queries share lane packs.  Each
// report matches what Search would return for its query alone, except
// EnginesBuilt, which counts the batch's shared engine pool.
func SearchBatch(queries []string, db []string, opts ...Option) ([]*SearchReport, error) {
	d, err := NewDatabase(db, opts...)
	if err != nil {
		return nil, err
	}
	return d.searchBatch(context.Background(), queries, d.cfg)
}

// searchFactory maps the engine options onto a per-bucket array builder.
func searchFactory(cfg *config) (pipeline.Factory, error) {
	if cfg.matrix == "" {
		return cfg.dnaArray, nil
	}
	if cfg.gateRegion > 0 {
		return nil, fmt.Errorf("racelogic: clock gating applies to the DNA array only; it cannot be combined with WithMatrix(%q)", cfg.matrix)
	}
	prepared, enc, err := preparedMatrix(cfg.matrix, cfg.oneHot)
	if err != nil {
		return nil, err
	}
	return func(n, m int) (*race.Array, error) { return cfg.proteinArray(n, m, prepared, enc) }, nil
}
