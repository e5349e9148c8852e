// Package racelogic is a software reproduction of "Race Logic: A Hardware
// Acceleration for Dynamic Programming Algorithms" (Madhavan, Sherwood,
// Strukov — ISCA 2014).
//
// Race Logic encodes a number n as the time, n clock cycles after the
// start of a computation, at which a rising edge appears on a wire.  Under
// that encoding min is an OR gate, max is an AND gate, and adding a
// constant is a chain of flip-flops — which makes shortest/longest-path
// problems on DAGs, and therefore dynamic-programming recurrences such as
// DNA sequence alignment, executable as a physical race through a circuit.
//
// This package is the public facade.  It compiles gate-level Race Logic
// netlists (simulated cycle-accurately, with per-net toggle counting),
// prices them under 0.5µm CMOS standard-cell library models, and exposes:
//
//   - DNAEngine — the paper's Fig. 4 synchronous array for DNA global
//     alignment, with optional Section 4.3 clock gating and Section 6
//     threshold early termination (the two compose);
//   - ProteinEngine — the Section 5 generalized array for arbitrary
//     score matrices (BLOSUM62, PAM250);
//   - Database — the persistent search subsystem: load a collection
//     once, keep compiled engines pooled per shape, optionally build a
//     k-mer seed index (WithSeedIndex), and serve concurrent Search
//     calls.  Databases are mutable (Insert/Remove with copy-on-write
//     snapshot isolation and stable entry IDs) and crash-safe
//     (Persist/Open: checksummed per-shard snapshots plus write-ahead
//     journals in one directory); cmd/raceserve wraps it all in a
//     long-running HTTP JSON API;
//   - Search — one-shot database search: a thin build-then-search
//     wrapper over Database for single queries;
//   - EditDistance — the reference software DP;
//   - Graph / ShortestPath / LongestPath — the general Section 3
//     DAG-to-race construction.
//
// The experiment harness regenerating every figure of the paper lives in
// cmd/racebench; see README.md for the full package and paper-to-code
// maps.
package racelogic

import (
	"fmt"
	"time"

	"racelogic/internal/align"
	"racelogic/internal/race"
	"racelogic/internal/score"
	"racelogic/internal/tech"
	"racelogic/internal/temporal"
)

// Never is the score reported for an edge that never arrives: an
// unreachable node, or a race cut off by a similarity threshold.
const Never int64 = int64(temporal.Never)

// Metrics prices one computation under the engine's standard-cell
// library, using the methodology of the paper's Section 4.1: area from
// the synthesized cell inventory, energy from simulated toggle activity
// (Eq. 3), latency from the cycle count.
type Metrics struct {
	// Cycles is the number of clock cycles the race ran.
	Cycles int
	// LatencyNS is the wall-clock latency at the library's clock rate.
	LatencyNS float64
	// EnergyJ is the dynamic energy of the computation in joules.
	EnergyJ float64
	// AreaUM2 is the placed cell area of the engine in µm².
	AreaUM2 float64
	// PowerDensityWCM2 is average power over area, the Fig. 9b metric.
	PowerDensityWCM2 float64
}

// Alignment is the result of racing two strings through an engine.
type Alignment struct {
	// Found is false when a threshold race was abandoned because the
	// score exceeded the similarity threshold (Section 6).
	Found bool
	// Score is the alignment score: the arrival time of the output edge.
	// Valid only when Found.
	Score int64
	// AlignedP and AlignedQ render one optimal alignment in the paper's
	// Fig. 1a two-row format ('_' marks gaps), recovered by tracing the
	// timing matrix backward.  Empty when the race was aborted: the
	// per-cell arrival times are the traceback markers, so an aborted
	// race has no complete path to trace.
	AlignedP, AlignedQ string
	// TimingMatrix[i][j] is the cycle at which edit-graph node (i,j)
	// fired (the paper's Fig. 4c), or Never for nodes that had not fired
	// when the race ended.
	TimingMatrix [][]int64
	// Metrics prices the run.
	Metrics Metrics
}

type config struct {
	library    *tech.Library
	backend    Backend // simulation engine; BackendCycle = reference
	laneWidth  int     // BackendLanes pack width; 0 = default 64
	gateRegion int     // 0 = ungated
	threshold  int64   // <0 = none
	oneHot     bool
	topK       int    // search only; ≤0 = all matches
	workers    int    // search only; ≤0 = NumCPU
	matrix     string // search only; "" = DNA array
	seedK      int    // search only; 0 = no k-mer pre-filter
	fullScan   bool   // search only; bypass the seed index per query
	shards     int    // database partitions; ≤0 = GOMAXPROCS
	compaction CompactionPolicy
	// durability knobs, honored by Persist and Open only.
	walSync      bool          // fsync every journal append (group-committed)
	snapInterval time.Duration // background snapshot period; 0 = off
	snapEvery    int           // mutations between snapshots; 0 = off
	walCap       int64         // journal bytes per shard that trigger a checkpoint; 0 = off
	// applied records the names of the options used, in order, so the
	// constructors can reject options that would silently do nothing in
	// their context (e.g. WithTopK on a single-pair engine).
	applied []string
}

// Option configures an engine, a Database, or a Search call.  Not every
// option is meaningful everywhere: the single-pair engine constructors
// reject search-only options, and Database.Search rejects options that
// are fixed when the database is built.
type Option func(*config) error

// firstApplied returns the first of names that was actually applied to
// the config, or "" when none were.
func (c *config) firstApplied(names ...string) string {
	for _, a := range c.applied {
		for _, n := range names {
			if a == n {
				return a
			}
		}
	}
	return ""
}

// searchOnlyOptions are meaningless on a single-pair engine; engine
// constructors reject them instead of silently ignoring them.
var searchOnlyOptions = []string{
	"WithTopK", "WithWorkers", "WithMatrix", "WithSeedIndex", "WithFullScan", "WithShards",
	"WithCompactionPolicy", "WithSync", "WithSnapshotInterval", "WithSnapshotEvery",
	"WithWALSegmentBytes",
}

// databaseFixedOptions shape the compiled engines, the seed index, or
// the partition layout and therefore cannot change per Database.Search
// call.
var databaseFixedOptions = []string{
	"WithLibrary", "WithMatrix", "WithClockGating", "WithOneHotEncoding", "WithSeedIndex",
	"WithShards", "WithBackend", "WithLaneWidth", "WithCompactionPolicy", "WithSync",
	"WithSnapshotInterval", "WithSnapshotEvery", "WithWALSegmentBytes",
}

// durabilityOptions configure the write-ahead log and background
// snapshotter; they are accepted by Persist and Open (and
// WithCompactionPolicy additionally by NewDatabase).  Open additionally
// accepts WithShards, to reshard a directory in place.
var durabilityOptions = []string{
	"WithSync", "WithSnapshotInterval", "WithSnapshotEvery", "WithCompactionPolicy",
	"WithWALSegmentBytes",
}

// Backend selects the gate-level simulation engine the races run on.
// Both engines produce byte-identical scores, timing matrices, and
// energy reports — the internal/oracle differential suite holds them to
// that — so the choice trades nothing but wall-clock speed.
type Backend = race.Backend

const (
	// BackendCycle is the cycle-accurate reference simulator (default):
	// every gate settles and every net is scanned once per clock cycle.
	BackendCycle = race.BackendCycle
	// BackendEvent is a spelling of BackendLanes.  WithBackend and
	// ParseBackend select BackendLanes for it, so a Database or engine
	// built with it reports BackendLanes; its String stays "event".
	BackendEvent = race.BackendEvent
	// BackendLanes is the bit-parallel engine: every net's state is a
	// slab of uint64 words whose bit l of word w is that net's value in
	// lane w·64+l, so one netlist pass races up to 64 (default) through
	// 512 (WithLaneWidth) same-shape database entries at once.  Full
	// scans batch candidates into lane packs automatically — and
	// SearchBatch additionally packs candidates of different in-flight
	// queries into the same pass — and a single pair races as a pack of
	// one, with identical results.
	BackendLanes = race.BackendLanes
)

// ParseBackend maps a CLI spelling ("cycle", "lanes", or its alias
// "event") to a Backend.
func ParseBackend(s string) (Backend, error) { return race.ParseBackend(s) }

// WithBackend selects the simulation engine (default BackendCycle;
// BackendEvent selects BackendLanes).  It is accepted by the engine
// constructors, NewDatabase, and Open.  On a Database it shapes the
// pooled engines and is therefore fixed at construction — Search
// rejects it — but it is a pure runtime choice, never part of a
// snapshot's options fingerprint: a database persisted under one
// backend may reopen under another and still report byte-identical
// results.
func WithBackend(b Backend) Option {
	return func(c *config) error {
		if err := b.Validate(); err != nil {
			return err
		}
		c.backend = b.Resolve()
		c.applied = append(c.applied, "WithBackend")
		return nil
	}
}

// WithLaneWidth sets how many candidates BackendLanes races per netlist
// pass: 64 (default), 128, 256, or 512.  Wider packs amortize the
// per-pass settle cost over more candidates when enough same-shape
// candidates are in flight — large full scans, or SearchBatch coalescing
// several queries — at the price of proportionally more state per pooled
// engine.  The cycle reference ignores it.  Like WithBackend it is a pure
// runtime choice: fixed at construction on a Database (Search rejects
// it) but never part of a snapshot's options fingerprint, so any
// database may reopen at any width with byte-identical results.
func WithLaneWidth(n int) Option {
	return func(c *config) error {
		switch n {
		case 64, 128, 256, 512:
		default:
			return fmt.Errorf("racelogic: lane width %d is not one of 64, 128, 256, 512", n)
		}
		c.laneWidth = n
		c.applied = append(c.applied, "WithLaneWidth")
		return nil
	}
}

// WithLibrary selects the standard-cell library model: "AMIS" (default)
// or "OSU".
func WithLibrary(name string) Option {
	return func(c *config) error {
		l, err := tech.ByName(name)
		if err != nil {
			return err
		}
		c.library = l
		c.applied = append(c.applied, "WithLibrary")
		return nil
	}
}

// WithClockGating enables the Section 4.3 data-dependent clock gating
// with m×m multi-cell regions.  Supported by DNAEngine.
func WithClockGating(regionSize int) Option {
	return func(c *config) error {
		if regionSize < 1 {
			return fmt.Errorf("racelogic: clock-gating region size %d must be ≥ 1", regionSize)
		}
		c.gateRegion = regionSize
		c.applied = append(c.applied, "WithClockGating")
		return nil
	}
}

// WithThreshold sets the Section 6 similarity threshold: races whose
// score would exceed limit are abandoned after limit+1 cycles with
// Found=false.  A negative limit disables the pre-filter — the way a
// Database.Search call overrides a threshold set as a NewDatabase
// default.
func WithThreshold(limit int64) Option {
	return func(c *config) error {
		if limit < 0 {
			limit = -1
		}
		c.threshold = limit
		c.applied = append(c.applied, "WithThreshold")
		return nil
	}
}

// WithTopK truncates a search report to its k best matches; k ≤ 0 keeps
// every match — the way a Database.Search call overrides a top-K set as
// a NewDatabase default.  It is a search option: the single-pair engine
// constructors reject it.
func WithTopK(k int) Option {
	return func(c *config) error {
		if k < 0 {
			k = 0
		}
		c.topK = k
		c.applied = append(c.applied, "WithTopK")
		return nil
	}
}

// WithWorkers sets the search worker-pool width; n ≤ 0 restores the
// default (the number of CPUs).  It is a search option: the single-pair
// engine constructors reject it.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			n = 0
		}
		c.workers = n
		c.applied = append(c.applied, "WithWorkers")
		return nil
	}
}

// WithMatrix makes a search race the Section 5 generalized array under
// the named protein matrix ("BLOSUM62" or "PAM250") instead of the Fig. 4
// DNA array.  Engines take their matrix as a constructor argument
// instead, so the engine constructors reject this option.
func WithMatrix(name string) Option {
	return func(c *config) error {
		if name == "" {
			return fmt.Errorf("racelogic: empty matrix name")
		}
		c.matrix = name
		c.applied = append(c.applied, "WithMatrix")
		return nil
	}
}

// WithOneHotEncoding makes a ProteinEngine realize delays as one-hot DFF
// chains instead of binary saturating counters — the Section 5 area
// ablation.
func WithOneHotEncoding() Option {
	return func(c *config) error {
		c.oneHot = true
		c.applied = append(c.applied, "WithOneHotEncoding")
		return nil
	}
}

// WithSeedIndex builds a k-mer seed index over the database — the
// BLAST-style seed-and-extend pre-filter: a search races only the entries
// sharing at least one length-k substring with the query, and reports the
// rest as Skipped without spending a single cycle on them.  The filter
// is a heuristic: an entry sharing no k-mer with the query is skipped
// even though a full scan would still assign it a (poor) score, so
// smaller k keeps more marginal matches and larger k skips more
// aggressively — the right trade in front of a similarity threshold.
// Use WithFullScan per query when completeness matters more than speed.
// Entries (or queries) shorter than k are never filtered.  It is a database option:
// the single-pair engine constructors reject it, and on a Database it
// must be given to NewDatabase, not Search.
func WithSeedIndex(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return fmt.Errorf("racelogic: seed length %d must be ≥ 1", k)
		}
		c.seedK = k
		c.applied = append(c.applied, "WithSeedIndex")
		return nil
	}
}

// WithFullScan makes one Database.Search bypass the database's seed index
// and race every entry — the exhaustive scan a seeded search trades away.
// It has no effect on a database built without WithSeedIndex.  It is a
// per-search option: NewDatabase and the engine constructors reject it.
func WithFullScan() Option {
	return func(c *config) error {
		c.fullScan = true
		c.applied = append(c.applied, "WithFullScan")
		return nil
	}
}

// WithShards partitions a Database into n independent shards by a hash
// of each entry's stable ID.  Every shard owns its own copy-on-write
// snapshot, seed index, tombstone accounting, and (when durable)
// write-ahead-log segment, so mutations landing on different shards
// proceed under different locks.  Searches scatter across the shards over
// one shared worker pool and gather under a deterministic global
// ranking, so reports are byte-identical (modulo EnginesBuilt) for
// every shard count.  n ≤ 0 or omitting the option selects
// runtime.GOMAXPROCS(0).  It is a database-construction option:
// engines, Search, and Persist reject it; Open accepts it to reshard a
// durable directory in place.
func WithShards(n int) Option {
	return func(c *config) error {
		if n > MaxShards {
			return fmt.Errorf("racelogic: shard count %d exceeds the maximum %d", n, MaxShards)
		}
		if n < 0 {
			n = 0
		}
		c.shards = n
		c.applied = append(c.applied, "WithShards")
		return nil
	}
}

// MaxShards bounds WithShards: beyond a few hundred partitions the
// per-shard bookkeeping outweighs any lock-spreading benefit.
const MaxShards = 256

// WithWALSegmentBytes sets the journal bytes per shard that force a
// checkpoint (default DefaultWALSegmentBytes).  Each shard journals to
// one file; each time an append carries it across another multiple of
// n bytes, the background snapshotter is nudged to checkpoint, even with
// the count and interval snapshot triggers disabled.  A checkpoint
// truncates a shard's journal only when no mutation lands on the shard
// while it writes, so the cap bounds wal_bytes at quiescence, not under
// steady writes.  n = 0 disables the trigger.  It is a durability
// option: pass it to Persist or Open.
func WithWALSegmentBytes(n int64) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("racelogic: journal byte cap %d must be ≥ 0", n)
		}
		c.walCap = n
		c.applied = append(c.applied, "WithWALSegmentBytes")
		return nil
	}
}

// WithCompactionPolicy replaces the default tombstone-reclamation policy
// (DefaultCompactionPolicy: compact once tombstones outnumber live
// entries).  It may be set at NewDatabase, Persist, or Open; the zero
// policy disables automatic compaction entirely, leaving Compact as a
// manual call.
func WithCompactionPolicy(p CompactionPolicy) Option {
	return func(c *config) error {
		if err := p.validate(); err != nil {
			return err
		}
		c.compaction = p
		c.applied = append(c.applied, "WithCompactionPolicy")
		return nil
	}
}

// WithSync makes every journaled mutation fsync the write-ahead log
// before it is acknowledged — durable even against power loss, at the
// cost of one disk flush per Insert/Remove/Compact.  Without it the OS
// page cache is trusted, which still loses nothing to a killed or
// crashed process.  It is a durability option: pass it to Persist or
// Open.
func WithSync(on bool) Option {
	return func(c *config) error {
		c.walSync = on
		c.applied = append(c.applied, "WithSync")
		return nil
	}
}

// WithSnapshotInterval sets how often the background snapshotter folds
// the journal into a fresh snapshot (default DefaultSnapshotInterval);
// 0 disables time-triggered snapshots.  It is a durability option: pass
// it to Persist or Open.
func WithSnapshotInterval(interval time.Duration) Option {
	return func(c *config) error {
		if interval < 0 {
			return fmt.Errorf("racelogic: snapshot interval %v must be ≥ 0", interval)
		}
		c.snapInterval = interval
		c.applied = append(c.applied, "WithSnapshotInterval")
		return nil
	}
}

// WithSnapshotEvery makes the background snapshotter run once n
// mutations have accumulated since the last snapshot (default
// DefaultSnapshotEvery); 0 disables count-triggered snapshots.  It is a
// durability option: pass it to Persist or Open.
func WithSnapshotEvery(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("racelogic: snapshot mutation count %d must be ≥ 0", n)
		}
		c.snapEvery = n
		c.applied = append(c.applied, "WithSnapshotEvery")
		return nil
	}
}

func buildConfig(opts []Option) (*config, error) {
	c := &config{
		library:      tech.AMIS(),
		threshold:    -1,
		compaction:   DefaultCompactionPolicy,
		snapInterval: DefaultSnapshotInterval,
		snapEvery:    DefaultSnapshotEvery,
		walCap:       DefaultWALSegmentBytes,
	}
	for _, o := range opts {
		if err := o(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func toMetrics(l *tech.Library, area float64, res *race.AlignResult) Metrics {
	energy := l.Energy(res.Activity).TotalJ()
	return Metrics{
		Cycles:           res.Cycles,
		LatencyNS:        l.LatencyNS(res.Cycles),
		EnergyJ:          energy,
		AreaUM2:          area,
		PowerDensityWCM2: l.PowerOf(energy, res.Activity.Cycles) / (area / 1e8),
	}
}

func toAlignment(l *tech.Library, area float64, res *race.AlignResult, p, q string, mtx *score.Matrix) (*Alignment, error) {
	a := &Alignment{
		Found:        res.Score != temporal.Never,
		Metrics:      toMetrics(l, area, res),
		TimingMatrix: make([][]int64, len(res.Arrivals)),
	}
	if a.Found {
		a.Score = int64(res.Score)
		tb, err := res.Traceback(p, q, mtx)
		if err != nil {
			return nil, err
		}
		a.AlignedP, a.AlignedQ = tb.AlignedP, tb.AlignedQ
	} else {
		a.Score = Never
	}
	for i := range res.Arrivals {
		a.TimingMatrix[i] = make([]int64, len(res.Arrivals[i]))
		for j, t := range res.Arrivals[i] {
			if t == temporal.Never {
				a.TimingMatrix[i][j] = Never
			} else {
				a.TimingMatrix[i][j] = int64(t)
			}
		}
	}
	return a, nil
}

// EditDistance returns the Levenshtein edit distance between p and q,
// computed by the reference software DP.  It is the golden model the
// hardware engines are tested against.
func EditDistance(p, q string) int { return align.Levenshtein(p, q) }

// DNAAlphabet lists the symbols accepted by DNAEngine.
const DNAAlphabet = score.DNAAlphabet

// ProteinAlphabet lists the symbols accepted by ProteinEngine.
const ProteinAlphabet = score.ProteinAlphabet
