// Package pipeline is the high-throughput database-search engine built
// on top of the Race Logic arrays: one query scored against many database
// sequences, the Section 4/6 workload the paper motivates its array with
// ("for every new sequence obtained, a search for similar sequences is
// performed across known databases").
//
// Hardware arrays are fixed-size, so the pipeline shards the database by
// entry length: every distinct (query length, entry length) shape becomes
// one bucket, and one physical array per bucket scores all of that
// bucket's entries back to back — the array is built (and its netlist
// compiled) once, then reset between races, instead of rebuilt per pair.
//
// The pipeline is persistent: compiled engines stay pooled per shape in
// a Pools value across queries, so the many-queries-one-database
// workload pays construction cost only on first contact with each
// (query length, entry length) shape.  The partitioned database keeps
// one Pools for all of its shards, so a shape warmed by any shard serves
// every shard.  An engine is a *race.Array, whichever fabric built it
// (plain, clock-gated, or generalized), so every engine races the same
// way.  Engines are not concurrency-safe, so the pools hand one engine
// to each in-flight chunk and take it back afterwards, which makes a
// search safe for concurrent callers.
//
// The database itself is an immutable Snapshot.  NewSnapshot shards a
// collection once, and Insert, Remove and Compact derive the next
// snapshot copy-on-write — shard maps are copied by header, slices are
// shared and only ever appended past every older snapshot's length — so
// an in-flight search keeps racing the exact version it loaded while
// its owner publishes newer ones beside it.  The derivations neither
// lock nor publish: the caller orders them (see Snapshot).
// Remove tombstones slots instead of renumbering them; Compact rebuilds
// densely once tombstones are worth reclaiming.  Engine pools are keyed
// by shape alone, so every snapshot version shares the same warm pools.
//
// MultiSearchBatch is the one scatter-race-fold: the (query, entry)
// pairs of every query and every partition shard are grouped by engine
// shape, split into chunks, and fanned out over a channel-fed worker
// pool so independent arrays race concurrently.  A chunk races in lane
// packs of its engine's LaneWidth, which span shard and query
// boundaries: up to 512 pairs per pack under the lanes backend, and
// packs of one on the cycle reference.  The Section 6 similarity
// threshold rejects dissimilar entries after only threshold+1 cycles,
// and each query's outcomes fold under a global-ID ordering into a
// deterministic top-K report with per-result hardware metrics, so a
// partitioned database returns reports byte-identical (modulo
// EnginesBuilt) to an unpartitioned one.  A single query is a batch of
// one.
//
// An outcome is a pure function of (query, entry, threshold) on one
// fabric and library, so a caller that kept a query's earlier outcomes
// (ShardScan.Known, as returned in Report.Outcomes) gets them written
// straight into the fold: only the entries they do not cover are
// chunked and raced, and the report is byte-identical either way.
package pipeline

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"racelogic/internal/obs"
	"racelogic/internal/race"
	"racelogic/internal/tech"
	"racelogic/internal/temporal"
)

// Factory builds a fresh engine — a race array, whichever its fabric —
// for a query of length n against entries of length m.  It is called
// only when a pool has no idle engine of that shape, never once per
// pair.  Engines are stateful, so each in-flight chunk gets exclusive
// use of one.
type Factory func(n, m int) (*race.Array, error)

// Request parameterizes one search batch.
type Request struct {
	// Threshold is the Section 6 similarity threshold; negative disables
	// pre-filtering.
	Threshold int64
	// Workers is the worker-pool width; ≤ 0 selects runtime.NumCPU().
	Workers int
	// TopK truncates the ranked results; ≤ 0 keeps every match.
	TopK int
	// Trace, when non-nil, receives the search's plan/race/merge spans
	// and per-shard race dimensions; a multi-query batch sums each
	// shard's dimensions over its queries.  Untraced searches pay one
	// nil check.
	Trace *obs.Trace
}

// Result is one database entry that survived the race (and, when a
// threshold is set, the pre-filter), priced under the search library.
type Result struct {
	// Index is the entry's slot within its own shard's snapshot.
	Index int
	// ID is the entry's rank key, the caller-assigned global ID
	// ShardScan.IDs gives its slot.  Ties in Score break by ascending ID.
	ID uint64
	// Sequence is the entry itself.
	Sequence string
	// Score is the arrival time of the output edge; lower is more
	// similar for every race-ready matrix.
	Score int64
	// Cycles, LatencyNS, EnergyJ, AreaUM2 and PowerDensityWCM2 price
	// this entry's individual race on its bucket's array.
	Cycles           int
	LatencyNS        float64
	EnergyJ          float64
	AreaUM2          float64
	PowerDensityWCM2 float64
}

// Report aggregates one whole database search.
type Report struct {
	// Results holds the matches ranked by (Score, ID) ascending,
	// truncated to TopK.  The ordering is deterministic regardless of
	// worker count, scheduling, or shard partitioning.
	Results []Result
	// Scanned is the number of database entries raced.
	Scanned int
	// Matched counts every entry that finished below the threshold,
	// including matches beyond the TopK truncation.
	Matched int
	// Rejected counts entries abandoned by the threshold pre-filter.
	Rejected int
	// Buckets is the number of distinct entry lengths raced.
	Buckets int
	// EnginesBuilt is the number of arrays constructed to serve this
	// search.  Engine pooling keeps it far below Scanned, and it
	// typically drops to zero once the pools are warm for the query's
	// shape (a search whose peak same-shape concurrency exceeds the
	// pooled supply can still add one).
	EnginesBuilt int
	// TotalCycles sums the cycles of every race, accepted or rejected;
	// with a threshold this is the number the Section 6 early exit
	// shrinks.
	TotalCycles int
	// TotalEnergyJ sums the dynamic energy of every race, folded in
	// ascending ID order so the floating-point total is bit-identical
	// regardless of worker count or shard partitioning.
	TotalEnergyJ float64
	// Memoized counts the scanned entries whose outcome came from
	// ShardScan.Known instead of a race.
	Memoized int
	// Outcomes holds every scanned entry's outcome in ascending ID
	// order, ready to pass back as ShardScan.Known; empty when the
	// query scanned nothing.
	Outcomes []Outcome
}

// Outcome is one scored (query, entry) pair: what a race decided and
// what it cost.  It is a pure function of the query, the entry and the
// threshold on a fixed fabric and library, and holds no pointers, so a
// caller may keep many of them cheaply.  The per-result latency is not
// stored: it is the library's price of Cycles.
type Outcome struct {
	// ID is the entry's rank key (ShardScan.IDs).
	ID uint64
	// Score is the arrival time of the output edge, or temporal.Never
	// when the threshold rejected the entry.
	Score  int64
	Cycles int
	// EnergyJ prices the race; AreaUM2 and PowerDensityWCM2 are zero for
	// a rejected entry.
	EnergyJ          float64
	AreaUM2          float64
	PowerDensityWCM2 float64
}

// Rejected reports whether the threshold abandoned the race.
func (o *Outcome) Rejected() bool { return o.Score == int64(temporal.Never) }

// poolKey identifies an engine shape: hardware arrays are fixed-size, so
// every (query length, entry length) pair needs its own physical array.
type poolKey struct{ n, m int }

// enginePool is the free list of idle compiled engines of one shape.
// Checked-out engines are exclusively owned by one chunk until released,
// which is what makes a search safe for concurrent callers even though
// the engines themselves are not.
type enginePool struct {
	mu   sync.Mutex
	free []*race.Array
	// area is the shape's placed cell area, priced once per pool: every
	// engine of a shape compiles the same netlist.
	area    float64
	areaSet bool
}

// DefaultMaxIdleEngines caps the compiled engines parked across all of a
// Pools' shape pools.  Shapes are keyed by caller-controlled query
// length, so without a cap a long-running service accumulating one pool
// per distinct query length would grow memory monotonically; engines
// released beyond the cap are simply dropped for the GC.
const DefaultMaxIdleEngines = 128

// Pools owns the compiled-engine free lists, keyed by (query length,
// entry length) shape.  A Pools is safe for concurrent use and may serve
// any number of snapshots — the sharded database races every partition
// on a single Pools, so EnginesBuilt counts arrays for the whole
// database no matter how it is partitioned.
type Pools struct {
	factory Factory
	lib     *tech.Library

	mu      sync.Mutex // guards pools
	pools   map[poolKey]*enginePool
	built   atomic.Int64 // engines constructed over the Pools' lifetime
	idle    atomic.Int64 // engines currently parked across all pools
	maxIdle atomic.Int64 // park limit; excess released engines are dropped

	checkoutObs atomic.Pointer[CheckoutObserver]
	laneObs     atomic.Pointer[LaneObserver]
}

// CheckoutObserver sees every engine checkout: how long the worker
// waited (including any compile) and whether a fresh engine was built.
type CheckoutObserver func(wait time.Duration, built bool)

// SetCheckoutObserver installs fn on every future checkout; nil removes
// it.  The database layer uses this to feed its wait histogram.
func (p *Pools) SetCheckoutObserver(fn CheckoutObserver) {
	if fn == nil {
		p.checkoutObs.Store(nil)
		return
	}
	p.checkoutObs.Store(&fn)
}

// LaneObserver sees every lane-pack race: how many candidates filled
// the pack against the engine's lane width.  Partial packs (the tail of
// a chunk, or a bucket smaller than the width) report filled < width.
type LaneObserver func(filled, width int)

// SetLaneObserver installs fn on every future lane-pack race; nil
// removes it.  The database layer uses this to feed its lane-fill-ratio
// histogram.
func (p *Pools) SetLaneObserver(fn LaneObserver) {
	if fn == nil {
		p.laneObs.Store(nil)
		return
	}
	p.laneObs.Store(&fn)
}

// NewPools builds an engine-pool set.  Factory is required; a nil
// library selects tech.AMIS().
func NewPools(factory Factory, lib *tech.Library) (*Pools, error) {
	if factory == nil {
		return nil, fmt.Errorf("pipeline: engine factory is required")
	}
	if lib == nil {
		lib = tech.AMIS()
	}
	p := &Pools{factory: factory, lib: lib, pools: make(map[poolKey]*enginePool)}
	p.maxIdle.Store(DefaultMaxIdleEngines)
	return p, nil
}

// EnginesBuilt returns the number of engines constructed over the
// Pools' lifetime, across all searches and shapes.
func (p *Pools) EnginesBuilt() int64 { return p.built.Load() }

// SetMaxIdleEngines overrides the park limit (default
// DefaultMaxIdleEngines); n ≤ 0 disables pooling entirely.
func (p *Pools) SetMaxIdleEngines(n int) { p.maxIdle.Store(int64(n)) }

// PooledEngines returns the number of idle compiled engines currently
// parked in the shape pools.
func (p *Pools) PooledEngines() int {
	p.mu.Lock()
	pools := make([]*enginePool, 0, len(p.pools))
	for _, ep := range p.pools {
		//lint:ignore racelint/detmapiter the integer sum below is order-independent
		pools = append(pools, ep)
	}
	p.mu.Unlock()
	total := 0
	for _, ep := range pools {
		ep.mu.Lock()
		total += len(ep.free)
		ep.mu.Unlock()
	}
	return total
}

// pool returns the free list for one engine shape, creating it on first
// contact.
func (p *Pools) pool(key poolKey) *enginePool {
	p.mu.Lock()
	defer p.mu.Unlock()
	ep, ok := p.pools[key]
	if !ok {
		ep = &enginePool{}
		p.pools[key] = ep
	}
	return ep
}

// acquire checks an engine of the given shape out of its pool, building
// one only when the pool is empty.  It reports the shape's placed area
// and whether a build happened.
func (p *Pools) acquire(key poolKey) (eng *race.Array, area float64, built bool, err error) {
	ep := p.pool(key)
	ep.mu.Lock()
	if n := len(ep.free); n > 0 {
		eng = ep.free[n-1]
		ep.free[n-1] = nil
		ep.free = ep.free[:n-1]
		area = ep.area
		ep.mu.Unlock()
		p.idle.Add(-1)
		return eng, area, false, nil
	}
	ep.mu.Unlock()
	// Build outside the pool lock so concurrent chunks of one shape can
	// compile in parallel instead of serializing on the free list.
	eng, err = p.factory(key.n, key.m)
	if err != nil {
		return nil, 0, false, err
	}
	p.built.Add(1)
	area = p.lib.AreaUM2(eng.Netlist())
	ep.mu.Lock()
	if !ep.areaSet {
		ep.area, ep.areaSet = area, true
	}
	ep.mu.Unlock()
	return eng, area, true, nil
}

// acquireObserved wraps acquire with the wall-clock the worker spent
// waiting for (or compiling) an engine, feeding the pool observer and
// the query trace when either is present.
func (p *Pools) acquireObserved(key poolKey, shard int, tr *obs.Trace) (*race.Array, float64, bool, error) {
	fn := p.checkoutObs.Load()
	if fn == nil && tr == nil {
		return p.acquire(key)
	}
	begin := time.Now()
	eng, area, built, err := p.acquire(key)
	if err == nil {
		wait := time.Since(begin)
		if fn != nil {
			(*fn)(wait, built)
		}
		tr.AddEngineCheckout(shard, wait, built)
	}
	return eng, area, built, err
}

// release parks an engine back into its shape pool for the next chunk,
// or drops it when the pool-wide idle cap is reached (the slight
// overshoot a concurrent release can cause is harmless).
func (p *Pools) release(key poolKey, eng *race.Array) {
	if p.idle.Load() >= p.maxIdle.Load() {
		return
	}
	p.idle.Add(1)
	ep := p.pool(key)
	ep.mu.Lock()
	ep.free = append(ep.free, eng)
	ep.mu.Unlock()
}

// Snapshot is one immutable version of the length-sharded database.  A
// search races the snapshot it was given to completion, so every report
// is internally consistent no matter how many newer versions are derived
// and published mid-flight.  Snapshots address entries by slot:
// a slot is assigned at insert and keeps its entry until a Remove
// tombstones it and a later Compact reclaims it (renumbering the
// survivors).
//
// NewSnapshot starts a lineage, and Insert, Remove and Compact each
// derive the next snapshot, stamped with the version the caller passes.
// A derived snapshot shares backing arrays with the one it derives from,
// and Insert appends past their lengths, so a lineage's history must
// stay linear: two derivations from one snapshot would write the same
// array cells.  Derive only from a lineage's newest snapshot, under the
// lock that orders its derivations.  Any older snapshot stays valid to
// search.
//
//racelint:cow
type Snapshot struct {
	version int64
	entries []string // slot -> entry; tombstoned slots keep stale strings
	live    []bool   // slot -> still part of the database
	liveN   int
	lengths []int         // distinct live entry lengths, first-appearance order
	buckets map[int][]int // entry length -> ascending live slot indices
}

// Version is the sequence this snapshot's constructor or derivation
// stamped it with.
func (s *Snapshot) Version() int64 { return s.version }

// Len returns the number of live entries.
func (s *Snapshot) Len() int { return s.liveN }

// Slots returns the slot-space size: live entries plus tombstones.
func (s *Snapshot) Slots() int { return len(s.entries) }

// Dead returns the number of tombstoned slots awaiting compaction.
func (s *Snapshot) Dead() int { return len(s.entries) - s.liveN }

// Live reports whether slot i holds a live entry.
func (s *Snapshot) Live(i int) bool { return i >= 0 && i < len(s.live) && s.live[i] }

// Entry returns the entry at slot i, live or tombstoned: a tombstoned
// slot keeps its entry until Compact reclaims it.
func (s *Snapshot) Entry(i int) string { return s.entries[i] }

// Lengths returns the distinct live entry lengths, in first-appearance
// order.  The caller owns the returned slice.
func (s *Snapshot) Lengths() []int { return append([]int(nil), s.lengths...) }

// Entries returns the slot array: every slot's entry in slot order,
// tombstoned slots included (Live tells them apart).  It is the
// snapshot's own backing array, so callers must not modify it.
func (s *Snapshot) Entries() []string { return s.entries }

// NewSnapshot validates and shards entries once, for many searches, into
// the first snapshot of a lineage, stamped version.  Empty entries are
// an error: the arrays need at least a 1×1 edit graph.
//
//racelint:cowsafe
func NewSnapshot(entries []string, version int64) (*Snapshot, error) {
	s := &Snapshot{
		version: version,
		entries: entries,
		live:    make([]bool, len(entries)),
		liveN:   len(entries),
		buckets: make(map[int][]int),
	}
	for i, entry := range entries {
		if len(entry) == 0 {
			return nil, fmt.Errorf("pipeline: database entry %d is empty", i)
		}
		s.live[i] = true
		if _, seen := s.buckets[len(entry)]; !seen {
			s.lengths = append(s.lengths, len(entry))
		}
		s.buckets[len(entry)] = append(s.buckets[len(entry)], i)
	}
	return s, nil
}

// Insert derives the snapshot stamped version that appends entries as
// new slots, the first at s.Slots().  Nothing is mutated in place: the
// bucket map is copied by header, and slices are only appended past
// every older snapshot's length, so searches of s and of its ancestors
// keep an intact view while the lineage stays linear (see Snapshot).
// Empty entries are rejected, and nothing is derived.
//
//racelint:cowsafe
func (s *Snapshot) Insert(entries []string, version int64) (*Snapshot, error) {
	for i, entry := range entries {
		if len(entry) == 0 {
			return nil, fmt.Errorf("pipeline: inserted entry %d is empty", i)
		}
	}
	start := len(s.entries)
	ns := &Snapshot{
		version: version,
		entries: append(s.entries, entries...),
		live:    s.live,
		liveN:   s.liveN + len(entries),
		lengths: s.lengths,
		buckets: make(map[int][]int, len(s.buckets)+1),
	}
	for m, idx := range s.buckets {
		ns.buckets[m] = idx
	}
	for j, entry := range entries {
		ns.live = append(ns.live, true)
		m := len(entry)
		if _, seen := ns.buckets[m]; !seen {
			ns.lengths = append(ns.lengths, m)
		}
		ns.buckets[m] = append(ns.buckets[m], start+j)
	}
	return ns, nil
}

// NotLive returns the error Remove reports for a slot that is out of
// range, already dead, or repeated.
func NotLive(slot int) error {
	return fmt.Errorf("pipeline: slot %d is not a live entry", slot)
}

// Remove derives the snapshot stamped version that tombstones the given
// live slots.  The affected length buckets are rewritten without the
// removed slots (fresh backing arrays), so searches never race a removed
// entry; the slots themselves are reclaimed only by Compact.  A slot
// that is out of range, already dead, or repeated is an error, and
// nothing is derived — Remove is all-or-nothing.
func (s *Snapshot) Remove(slots []int, version int64) (*Snapshot, error) {
	live := make([]bool, len(s.live))
	copy(live, s.live)
	affected := make(map[int]bool)
	for _, i := range slots {
		if i < 0 || i >= len(s.entries) || !live[i] {
			return nil, NotLive(i)
		}
		live[i] = false
		affected[len(s.entries[i])] = true
	}
	buckets := make(map[int][]int, len(s.buckets))
	for m, idx := range s.buckets {
		buckets[m] = idx
	}
	emptied := false
	for m := range affected {
		old := buckets[m]
		kept := make([]int, 0, len(old))
		for _, i := range old {
			if live[i] {
				kept = append(kept, i)
			}
		}
		if len(kept) == 0 {
			delete(buckets, m)
			emptied = true
		} else {
			buckets[m] = kept
		}
	}
	lengths := s.lengths
	if emptied {
		lengths = make([]int, 0, len(buckets))
		for _, m := range s.lengths {
			if _, ok := buckets[m]; ok {
				lengths = append(lengths, m)
			}
		}
	}
	return &Snapshot{
		version: version,
		entries: s.entries,
		live:    live,
		liveN:   s.liveN - len(slots),
		lengths: lengths,
		buckets: buckets,
	}, nil
}

// Compact derives the snapshot stamped version that rebuilds s densely,
// dropping tombstoned slots and renumbering the survivors in slot order.
// It returns the old-slot→new-slot remap (-1 for dropped slots) and the
// derived snapshot; when there is nothing to reclaim it returns a nil
// remap and s itself.  Callers holding slot-derived state (a seed index,
// an ID table) must rebuild it through the remap.
//
//racelint:cowsafe
func (s *Snapshot) Compact(version int64) (remap []int, ns *Snapshot) {
	if s.liveN == len(s.entries) {
		return nil, s
	}
	remap = make([]int, len(s.entries))
	ns = &Snapshot{
		version: version,
		entries: make([]string, 0, s.liveN),
		live:    make([]bool, s.liveN),
		liveN:   s.liveN,
		buckets: make(map[int][]int),
	}
	for i, entry := range s.entries {
		if !s.live[i] {
			remap[i] = -1
			continue
		}
		slot := len(ns.entries)
		remap[i] = slot
		ns.entries = append(ns.entries, entry)
		ns.live[slot] = true
		if _, seen := ns.buckets[len(entry)]; !seen {
			ns.lengths = append(ns.lengths, len(entry))
		}
		ns.buckets[len(entry)] = append(ns.buckets[len(entry)], slot)
	}
	return remap, ns
}

// entrySlots is the collector state, one outcome per scan position.
// Known outcomes are written at plan time, and every other position is
// owned by exactly one chunk, so workers write disjoint slots and no
// locking is needed; the final fold walks the slots in a deterministic
// order so every aggregate — including the floating-point energy total
// — is bit-identical regardless of worker count, scheduling, or which
// outcomes were known.
type entrySlots []Outcome

// scanPlan is one shard's resolved scan set: either the whole snapshot
// (scan == nil, reusing the buckets sharded at publish time, which hold
// live slots only) or the candidate subset a seed index picked (bucketed
// by scan position, bucket order fixed by first appearance so chunking
// is deterministic).
type scanPlan struct {
	scan     []int // nil = identity: scan position == snapshot slot
	raced    int
	slotSpan int // collector span (snapshot slots under the identity scan)
	buckets  map[int][]int
	lengths  []int
}

// slot maps a scan position to its snapshot slot.
func (p *scanPlan) slot(pos int) int {
	if p.scan != nil {
		return p.scan[pos]
	}
	return pos
}

// resolveScan validates candidates against the snapshot and produces
// the scan plan.
func resolveScan(s *Snapshot, candidates []int) (*scanPlan, error) {
	p := &scanPlan{
		raced:    s.liveN,
		slotSpan: len(s.entries),
		buckets:  s.buckets,
		lengths:  s.lengths,
	}
	if candidates == nil {
		return p, nil
	}
	p.scan = candidates
	p.raced = len(candidates)
	p.slotSpan = len(candidates)
	p.buckets = make(map[int][]int)
	p.lengths = nil
	for si, i := range candidates {
		if !s.Live(i) {
			return nil, fmt.Errorf("pipeline: candidate slot %d out of range [0,%d) or not live", i, len(s.entries))
		}
		m := len(s.entries[i])
		if _, seen := p.buckets[m]; !seen {
			p.lengths = append(p.lengths, m)
		}
		p.buckets[m] = append(p.buckets[m], si)
	}
	return p, nil
}

// ShardScan names one partition's contribution to a search: the
// immutable snapshot to race, the candidate subset, and the slot→ID
// table that positions the shard's entries in the global order.
type ShardScan struct {
	Snap *Snapshot
	// Candidates restricts the scan to these slots (ascending, as a seed
	// index produces them).  Nil scans every live slot; an empty non-nil
	// slice races nothing.  A candidate slot that is out of range or
	// tombstoned fails the query.
	Candidates []int
	// IDs maps the snapshot's slots to their global rank keys.  IDs must
	// be unique across every shard of one query's scan, and must cover
	// the snapshot's slot span.
	IDs []uint64
	// Known holds outcomes of this query already scored under the
	// request's threshold, ascending by ID; it may name entries of other
	// shards or entries no longer scanned.  A scanned entry whose ID it
	// holds is not raced.
	Known []Outcome
}

// known returns the outcome Known holds for id, if any.
func (sc *ShardScan) known(id uint64) (Outcome, bool) {
	k := sc.Known
	i := sort.Search(len(k), func(i int) bool { return k[i].ID >= id })
	if i < len(k) && k[i].ID == id {
		return k[i], true
	}
	return Outcome{}, false
}

// slotRef locates one scanned entry during the fold: its shard, its
// scan position there, its snapshot slot, and its global rank key.
type slotRef struct {
	shard, si, slot int
	id              uint64
}

// outcome prices one finished race of the entry with rank key id.
func (p *Pools) outcome(id uint64, res *race.AlignResult, area float64) Outcome {
	energy := p.lib.Energy(res.Activity).TotalJ()
	o := Outcome{ID: id, Score: int64(res.Score), Cycles: res.Cycles, EnergyJ: energy}
	if !o.Rejected() {
		o.AreaUM2 = area
		o.PowerDensityWCM2 = p.lib.PowerOf(energy, res.Activity.Cycles) / (area / 1e8)
	}
	return o
}

// QueryError attributes a batch failure to the query it struck, so a
// multi-query search reports exactly the (query, entry) pair a
// sequential scan would have stopped at.
type QueryError struct {
	// Query indexes the queries slice MultiSearchBatch was given.
	Query int
	// Err is the underlying error, verbatim as a batch of that query
	// alone reports it.
	Err error
}

func (e *QueryError) Error() string { return fmt.Sprintf("query %d: %v", e.Query, e.Err) }

// Unwrap exposes the single-query error for errors.Is/As.
func (e *QueryError) Unwrap() error { return e.Err }

// batchPair is one (query, entry) pair of a batch: the query index, the
// shard holding the entry, and the entry's scan position there.
type batchPair struct {
	query int
	shard int
	si    int
}

// pairChunk is one unit of batch work: a run of same-shape (query,
// entry) pairs — every query of length n, every entry of length m —
// scored on a single checked-out engine.  The run is cut into lane packs
// that may span query and shard boundaries, which is how a batch, or a
// query over a partitioned database, fills wider packs than any one
// query's shard could.
type pairChunk struct {
	n, m  int
	pairs []batchPair
}

// MultiSearchBatch scores query qi against its own shard scans
// (shardSets[qi] — same partition layout for every query, but each
// query may carry its own seed-index candidate subsets) with one shared
// worker pool, on engines checked out of pools, and returns one report
// per query, index-aligned with queries.  It is safe for concurrent
// callers: all per-search state is local, and each engine is checked
// out for exclusive use.  An empty query is an error; an empty scan
// yields an empty report.  Entries whose outcome the scan already knows
// (ShardScan.Known) are written straight into the fold; only the rest
// are raced, and a batch with nothing left to race starts no workers.
// Same-shape (query, entry) pairs are coalesced across queries and
// shards: each worker checks out one engine per chunk and, under the
// lanes backend, fills each lane pack with pairs of several in-flight
// queries via AlignLanesMulti — so a batch of small scans reaches the
// pack width (and the per-pass amortization) that each query alone
// could not.  Each query's fold walks its scanned entries in ascending
// global-ID order, so every report — including the floating-point
// energy total and the (Score, ID) ranking — is byte-identical to a
// batch of that query alone however the database is partitioned and
// whichever outcomes were known, except EnginesBuilt, which counts the
// whole batch's builds (engines are shared across queries, so a
// per-query attribution would be scheduling-dependent), and Memoized.
// A failure anywhere fails the whole batch with a *QueryError naming
// the lowest (query, rank-key) pair, exactly as sequential calls would
// first hit it.  Request.Trace receives the batch's spans; a chunk's
// checkout and race time go to the shard of its first pair.
func MultiSearchBatch(pools *Pools, shardSets [][]ShardScan, queries []string, req Request) ([]*Report, error) {
	if len(shardSets) != len(queries) {
		return nil, fmt.Errorf("pipeline: %d shard sets for %d queries", len(shardSets), len(queries))
	}
	for qi, q := range queries {
		if len(q) == 0 {
			return nil, &QueryError{Query: qi, Err: fmt.Errorf("pipeline: empty query")}
		}
	}
	if len(queries) == 0 {
		return []*Report{}, nil
	}
	workers := req.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	tr := req.Trace

	// Plan every query's scan set up front.
	endSpan := tr.StartSpan("plan")
	plans := make([][]*scanPlan, len(queries))
	reports := make([]*Report, len(queries))
	totalPairs, nShards := 0, 0
	for qi := range queries {
		plans[qi] = make([]*scanPlan, len(shardSets[qi]))
		nShards = max(nShards, len(shardSets[qi]))
		raced := 0
		lengthSet := make(map[int]bool)
		for si, sc := range shardSets[qi] {
			plan, err := resolveScan(sc.Snap, sc.Candidates)
			if err != nil {
				return nil, &QueryError{Query: qi, Err: err}
			}
			plans[qi][si] = plan
			raced += plan.raced
			for _, m := range plan.lengths {
				lengthSet[m] = true
			}
		}
		reports[qi] = &Report{Scanned: raced, Buckets: len(lengthSet)}
		totalPairs += raced
	}
	if totalPairs == 0 {
		endSpan()
		for _, r := range reports {
			r.Results = []Result{}
		}
		return reports, nil
	}

	// Collector state: one slot set per (query, shard).  Known outcomes
	// land in their slots here; every other pair is owned by exactly one
	// chunk, so workers write disjoint slots.
	var sums []shardSums
	if tr != nil {
		sums = make([]shardSums, nShards)
	}
	slots := make([][]entrySlots, len(queries))
	for qi := range slots {
		slots[qi] = make([]entrySlots, len(plans[qi]))
		for si, plan := range plans[qi] {
			slots[qi][si] = make(entrySlots, plan.slotSpan)
		}
	}

	// Build the per-shape streams of pairs left to race in deterministic
	// order — query ascending, then shard, then the shard's bucket order
	// — and cut them into chunks against the whole batch's target size,
	// so a dominant shape still spreads across the pool.  Consecutive
	// pairs of one stream land in the same packs regardless of which
	// query or shard they belong to.
	streams := make(map[poolKey][]batchPair)
	var shapeOrder []poolKey
	racePairs := 0
	for qi, q := range queries {
		n := len(q)
		for si, plan := range plans[qi] {
			sc := &shardSets[qi][si]
			for _, m := range plan.lengths {
				key := poolKey{n: n, m: m}
				pairs, ok := streams[key]
				if !ok {
					shapeOrder = append(shapeOrder, key)
				}
				for _, pos := range plan.buckets[m] {
					if o, ok := sc.known(sc.IDs[plan.slot(pos)]); ok {
						slots[qi][si][pos] = o
						reports[qi].Memoized++
						if sums != nil {
							sums[si].memoized++
						}
						continue
					}
					pairs = append(pairs, batchPair{query: qi, shard: si, si: pos})
					racePairs++
				}
				streams[key] = pairs
			}
		}
	}
	target := (racePairs + workers - 1) / workers
	var chunks []pairChunk
	for _, key := range shapeOrder {
		pairs := streams[key]
		for len(pairs) > target {
			chunks = append(chunks, pairChunk{n: key.n, m: key.m, pairs: pairs[:target]})
			pairs = pairs[target:]
		}
		if len(pairs) > 0 {
			chunks = append(chunks, pairChunk{n: key.n, m: key.m, pairs: pairs})
		}
	}
	endSpan()

	// Each chunk owns its slot of both slices, as it owns its pairs'.
	chunkBuilt := make([]bool, len(chunks))
	chunkErrs := make([]*pairError, len(chunks))
	endSpan = tr.StartSpan("race")
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(chunks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range jobs {
				chunkBuilt[ci], chunkErrs[ci] = pools.runPairChunk(shardSets, plans, queries, chunks[ci], req.Threshold, slots, tr)
			}
		}()
	}
	for ci := range chunks {
		jobs <- ci
	}
	close(jobs)
	wg.Wait()
	endSpan()

	// Errors are reported by lowest (query, rank key) — the first pair a
	// sequential query-by-query scan would have failed on.
	var first *pairError
	for _, e := range chunkErrs {
		if e != nil && (first == nil || e.query < first.query || (e.query == first.query && e.id < first.id)) {
			first = e
		}
	}
	if first != nil {
		return nil, &QueryError{Query: first.query, Err: first.err}
	}

	// Fold each query over its own ascending-global-ID ref walk; a traced
	// batch also sums each shard's dimensions in that same fold order.
	endSpan = tr.StartSpan("merge")
	if sums != nil {
		for _, c := range chunks {
			sums[c.pairs[0].shard].chunks++
		}
	}
	enginesBuilt := 0
	for _, built := range chunkBuilt {
		if built {
			enginesBuilt++
		}
	}
	lib := pools.lib
	refs := make([]slotRef, 0, totalPairs)
	keep := totalPairs
	if req.TopK > 0 {
		keep = min(req.TopK, totalPairs)
	}
	best := make([]rankRef, 0, keep)
	for qi, report := range reports {
		report.EnginesBuilt = enginesBuilt
		refs = refs[:0]
		for si, sc := range shardSets[qi] {
			plan := plans[qi][si]
			if sums != nil {
				sums[si].scanned += plan.raced
			}
			if plan.scan != nil {
				for pos, slot := range plan.scan {
					refs = append(refs, slotRef{shard: si, si: pos, slot: slot, id: sc.IDs[slot]})
				}
				continue
			}
			for slot := 0; slot < plan.slotSpan; slot++ {
				if sc.Snap.Live(slot) {
					refs = append(refs, slotRef{shard: si, si: slot, slot: slot, id: sc.IDs[slot]})
				}
			}
		}
		slices.SortFunc(refs, func(a, b slotRef) int { return cmp.Compare(a.id, b.id) })
		report.Outcomes = make([]Outcome, 0, len(refs))
		best = best[:0]
		for i, ref := range refs {
			o := slots[qi][ref.shard][ref.si]
			report.TotalCycles += o.Cycles
			report.TotalEnergyJ += o.EnergyJ
			if sums != nil {
				sums[ref.shard].cycles += o.Cycles
				sums[ref.shard].energyJ += o.EnergyJ
			}
			report.Outcomes = append(report.Outcomes, o)
			if o.Rejected() {
				report.Rejected++
				continue
			}
			report.Matched++
			best = keepBest(best, rankRef{score: o.Score, id: ref.id, ref: int32(i)}, req.TopK)
		}
		slices.SortFunc(best, cmpRank)
		report.Results = make([]Result, len(best))
		for k, b := range best {
			ref := refs[b.ref]
			o := &report.Outcomes[b.ref]
			report.Results[k] = Result{
				Index:            ref.slot,
				ID:               ref.id,
				Sequence:         shardSets[qi][ref.shard].Snap.entries[ref.slot],
				Score:            o.Score,
				Cycles:           o.Cycles,
				LatencyNS:        lib.LatencyNS(o.Cycles),
				EnergyJ:          o.EnergyJ,
				AreaUM2:          o.AreaUM2,
				PowerDensityWCM2: o.PowerDensityWCM2,
			}
		}
	}
	endSpan()
	for si, sum := range sums {
		tr.RecordShardScan(si, sum.scanned, sum.chunks, sum.cycles, sum.energyJ)
		tr.AddShardMemoized(si, sum.memoized)
	}
	return reports, nil
}

// rankRef is one accepted entry's rank key, (score, id), and the index
// of its ref in the fold's ID-ordered walk.
type rankRef struct {
	score int64
	id    uint64
	ref   int32
}

func cmpRank(a, b rankRef) int {
	if c := cmp.Compare(a.score, b.score); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// keepBest adds r to best, which holds the k lowest rank keys seen so
// far: as a max-heap on (score, id) once k > 0 of them are held, the
// worst kept at best[0], so an entry that cannot rank is dropped with
// one compare.  k ≤ 0 keeps every key, and best is then only sorted.
func keepBest(best []rankRef, r rankRef, k int) []rankRef {
	if k <= 0 || len(best) < k {
		best = append(best, r)
		if k > 0 {
			for i := len(best) - 1; i > 0; {
				up := (i - 1) / 2
				if cmpRank(best[up], best[i]) >= 0 {
					break
				}
				best[up], best[i] = best[i], best[up]
				i = up
			}
		}
		return best
	}
	if cmpRank(r, best[0]) >= 0 {
		return best
	}
	best[0] = r
	for i := 0; ; {
		hi := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(best) && cmpRank(best[c], best[hi]) > 0 {
				hi = c
			}
		}
		if hi == i {
			return best
		}
		best[hi], best[i] = best[i], best[hi]
		i = hi
	}
}

// shardSums is one shard's deterministic trace dimensions, summed over
// a batch's queries.
type shardSums struct {
	scanned, memoized, chunks, cycles int
	energyJ                           float64
}

// pairError is a chunk's failure, attributed to the query index and
// global rank key of the pair it struck.
type pairError struct {
	err   error
	query int
	id    uint64
}

// runPairChunk checks one engine out of the chunk's shape pool and
// races every (query, entry) pair of the chunk on it in lane packs,
// charging the checkout and race time to the shard of the chunk's first
// pair.  It reports whether the checkout built the engine, and stops at
// the first failing pack.
func (p *Pools) runPairChunk(shardSets [][]ShardScan, plans [][]*scanPlan, queries []string, c pairChunk,
	threshold int64, slots [][]entrySlots, tr *obs.Trace) (bool, *pairError) {

	// resolve maps a pair to its snapshot slot (the entry index).
	resolve := func(pr batchPair) int { return plans[pr.query][pr.shard].slot(pr.si) }
	key := poolKey{n: c.n, m: c.m}
	first := c.pairs[0]
	eng, area, built, err := p.acquireObserved(key, first.shard, tr)
	if err != nil {
		return false, &pairError{err, first.query, shardSets[first.query][first.shard].IDs[resolve(first)]}
	}
	defer p.release(key, eng)
	if tr != nil {
		raceBegin := time.Now()
		defer func() { tr.AddRace(first.shard, time.Since(raceBegin)) }()
	}

	// The chunk races in mixed-query lane packs of up to LaneWidth pairs:
	// packs of one on the cycle reference.  Outcomes, errors, and the
	// (query, entry) pair an error is attributed to are byte-identical
	// however wide the packs are; only the number of netlist passes
	// changes.
	width := eng.LaneWidth()
	obsFn := p.laneObs.Load()
	ps := make([]string, 0, width)
	qs := make([]string, 0, width)
	for start := 0; start < len(c.pairs); start += width {
		pack := c.pairs[start:min(start+width, len(c.pairs))]
		ps, qs = ps[:0], qs[:0]
		for _, pr := range pack {
			ps = append(ps, queries[pr.query])
			qs = append(qs, shardSets[pr.query][pr.shard].Snap.entries[resolve(pr)])
		}
		results, err := eng.AlignLanesMulti(ps, qs, temporal.Time(threshold))
		if err != nil {
			// A lane-attributed failure maps back to the (query, entry)
			// pair the sequential scan would have stopped at, with the same
			// underlying error.
			lane := 0
			var le *race.LaneError
			if errors.As(err, &le) {
				lane = le.Lane
				err = le.Err
			}
			pr := pack[lane]
			return built, &pairError{err, pr.query, shardSets[pr.query][pr.shard].IDs[resolve(pr)]}
		}
		if obsFn != nil && width > 1 {
			(*obsFn)(len(pack), width)
		}
		for k, pr := range pack {
			id := shardSets[pr.query][pr.shard].IDs[resolve(pr)]
			slots[pr.query][pr.shard][pr.si] = p.outcome(id, results[k], area)
		}
	}
	return built, nil
}
