package racelogic

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"racelogic/internal/index"
	"racelogic/internal/obs"
	"racelogic/internal/pipeline"
	"racelogic/internal/score"
	"racelogic/internal/store"
)

// ErrUnknownID is wrapped by Database.Remove when an ID does not name a
// live entry — the HTTP layer maps it to 404 Not Found.
var ErrUnknownID = errors.New("no entry with that id")

// Database is the persistent form of the paper's Section 1 workload:
// load a sequence collection once, then serve many similarity queries
// against it.
//
// A Database is partitioned into N independent shards (WithShards,
// default GOMAXPROCS) by a hash of each entry's stable ID.  Every shard
// owns its own copy-on-write pipeline snapshot, k-mer seed index, ID
// tables, tombstone accounting, and — when durable — write-ahead log,
// behind its own write lock.  Mutations touching different shards
// therefore proceed in parallel, and the per-insert seed-index update
// copies only the postings buckets the new k-mers land in.
//
// A Search scatters across the shards: per-shard candidate scans fan
// out over one shared worker pool (engines are pooled per shape in one
// Pools all shards share), and the shard outcomes gather under a
// deterministic global ranking, so reports are byte-identical — modulo
// EnginesBuilt — no matter the shard count.  Searches read one
// atomically published view of every shard's snapshot, so a search
// overlapping a mutation (even a multi-shard one) sees either all of it
// or none of it.
//
// Entries carry stable uint64 IDs that survive compaction and
// save/reload; SearchResult.Index is the entry's position in the global
// ID order (exactly the slot numbering an unpartitioned database would
// assign).  Engines are not concurrency-safe, but a Database is: each
// in-flight race checks a simulator out of its shape pool for exclusive
// use, so Search may be called from any number of goroutines.  The
// one-shot Search function is a thin build-then-search wrapper over
// Database.
type Database struct {
	cfg   *config
	pools *pipeline.Pools

	// shards is fixed at construction; each shard's mu serializes the
	// mutations that touch it.  Multi-shard mutations lock their shards
	// in ascending order and publish one new view atomically, so
	// searches get a consistent cut for free.
	shards []*shard

	// view is the consistent snapshot set searches read.  Writers
	// replace it whole (CAS, retried only against writers of disjoint
	// shards) while holding the locks of every shard they changed.
	//
	//racelint:published
	view atomic.Pointer[dbview]

	// ticket numbers logical mutations; in any sequential history it
	// equals the published view version.  nextID allocates stable IDs.
	ticket atomic.Int64
	nextID atomic.Uint64

	closed atomic.Bool

	searches     atomic.Int64
	compactions  atomic.Int64
	snapSaves    atomic.Int64
	snapFailures atomic.Int64
	snapVersion  atomic.Int64 // view version the newest durable snapshot set covers
	snapCaptured atomic.Int64 // view version the newest checkpoint captured, written or in flight
	lastSnap     atomic.Int64 // unix nanos of the newest durable snapshot set
	walReplayed  atomic.Int64 // journal records replayed over snapshots at open

	// metrics is the database's instrument set (see obs.go) and idxStats
	// the seed-lookup counter sink shared by every shard's index lineage.
	// Both are set once in assembleShards, before the database is shared.
	metrics  *dbMetrics
	idxStats *index.Stats

	// memo holds each recent query's race outcomes by entry ID, so a
	// repeated query races only the candidates its last search did not
	// score (see outcomeMemo).
	memo *outcomeMemo

	// Durability.  All zero on a memory-only database; set once by
	// Persist or Open under lmu, then read by the mutation path and the
	// snapshotter goroutine.
	lmu          sync.Mutex // guards the lifecycle fields below
	durable      bool
	dir          string
	gen          int // layout generation the shard files are named under
	snapInterval time.Duration
	snapEvery    int
	snapSignal   chan struct{} // nudges the snapshotter (count and byte triggers)
	stopSnap     chan struct{}
	loopDone     chan struct{}
	walSync      atomic.Bool  // fsync (group-committed) before acknowledging
	walCap       atomic.Int64 // journal bytes per shard that trigger a checkpoint; 0 = off
	saveMu       sync.Mutex   // serializes durable snapshot file writes

	// compaction is the automatic tombstone-reclamation policy, checked
	// against the global dead/live counts after every Remove (and, when
	// durable, on the policy's Interval); the compaction itself runs
	// shard by shard.
	cmu        sync.Mutex
	compaction CompactionPolicy
}

// shard is one partition's writer side: the ID table and the journal.
// Its searchable state is the shardstate the view publishes, the only
// copy: under mu, which serializes every mutation that touches the
// shard, a mutation derives the next state from the published one and
// publishes it before it unlocks.  Searches never take mu.
type shard struct {
	id       int
	mu       sync.Mutex
	byID     map[uint64]int // ID → local slot; writers only, under mu
	jrnl     *store.WAL     // nil on a memory-only database; set under mu
	idxStats *index.Stats   // re-attached to every index a compaction rebuilds
	recovery *ShardRecovery // how Open restored the shard; nil unless it did

	lastSnap atomic.Int64 // unix nanos of this shard's newest durable snapshot
}

// shardstate is one immutable version of everything a search reads from
// one shard.  The fields advance together: the index covers exactly the
// snapshot's slot space, ids names every slot (tombstoned ones keep
// their stale ID until compaction), and sorted holds the same resident
// IDs in ascending order — the order-statistics table global ranks are
// computed from.  The snapshot's version is the shard's mutation
// sequence.
//
//racelint:cow
type shardstate struct {
	snap   *pipeline.Snapshot
	idx    *index.Index
	ids    []uint64 // local slot → stable ID
	sorted []uint64 // resident IDs (live + tombstoned), ascending
}

// nextSeq returns the sequence the shard's next mutation journals and is
// stamped with.
func (st *shardstate) nextSeq() int64 { return st.snap.Version() + 1 }

// dbview is the atomically published set of shard states plus the
// global version.  A multi-shard mutation swaps every state it changed
// in one CAS, which is what makes cross-shard mutations atomic to
// searches.
//
//racelint:cow
type dbview struct {
	version int64
	states  []*shardstate
}

// live returns the global live entry count.
func (v *dbview) live() int {
	n := 0
	for _, st := range v.states {
		n += st.snap.Len()
	}
	return n
}

// dead returns the global tombstone count.
func (v *dbview) dead() int {
	n := 0
	for _, st := range v.states {
		n += st.snap.Dead()
	}
	return n
}

// buckets returns the number of distinct live entry lengths across
// every shard.
func (v *dbview) buckets() int {
	set := make(map[int]bool)
	for _, st := range v.states {
		for _, m := range st.snap.Lengths() {
			set[m] = true
		}
	}
	return len(set)
}

// rank returns the number of resident IDs (live and tombstoned) below
// id across every shard — the entry's position in the global slot order
// an unpartitioned database would assign.
func (v *dbview) rank(id uint64) int {
	r := 0
	for _, st := range v.states {
		r += sort.Search(len(st.sorted), func(i int) bool { return st.sorted[i] >= id })
	}
	return r
}

// shardOf routes a stable ID to its shard: a splitmix64-style finalizer
// so adjacent IDs spread evenly, fixed forever because recovery must
// route every journaled ID to the shard that logged it.
func shardOf(id uint64, n int) int {
	if n == 1 {
		return 0
	}
	x := id
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// resolveShards maps the config's shard option to a concrete count.
// The GOMAXPROCS default is clamped to the same MaxShards bound the
// explicit option enforces.
func (c *config) resolveShards() int {
	if c.shards > 0 {
		return c.shards
	}
	n := runtime.GOMAXPROCS(0)
	if n > MaxShards {
		n = MaxShards
	}
	if n < 1 {
		n = 1
	}
	return n
}

// NewDatabase validates and partitions entries once, for many searches.
// It accepts every engine-shaping option (WithLibrary, WithMatrix,
// WithClockGating, WithOneHotEncoding), WithSeedIndex for the k-mer
// pre-filter, WithShards for the partition count, and WithThreshold /
// WithTopK / WithWorkers as per-search defaults that individual Search
// calls may override.  The entries are assigned stable IDs
// 0..len(entries)-1 in order.
func NewDatabase(entries []string, opts ...Option) (*Database, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if name := cfg.firstApplied("WithFullScan"); name != "" {
		return nil, fmt.Errorf("racelogic: %s is a per-search option; pass it to Database.Search instead", name)
	}
	if name := cfg.firstApplied("WithSync", "WithSnapshotInterval", "WithSnapshotEvery", "WithWALSegmentBytes"); name != "" {
		return nil, fmt.Errorf("racelogic: %s is a durability option; pass it to Persist or Open instead", name)
	}
	ids := make([]uint64, len(entries))
	for i := range ids {
		ids[i] = uint64(i)
	}
	return assembleDatabase(cfg, entries, ids, nil, uint64(len(entries)), 0)
}

// assembleDatabase wires a Database from a flat (entries, ids) list —
// the shared tail of NewDatabase and reshard.  dead flags the
// tombstoned slots a reshard carries over (nil: every entry is live).
// Entries are partitioned by shardOf.
func assembleDatabase(cfg *config, entries []string, ids []uint64, dead []bool, nextID uint64, version int64) (*Database, error) {
	if len(ids) != len(entries) {
		return nil, fmt.Errorf("racelogic: %d IDs for %d entries", len(ids), len(entries))
	}
	n := cfg.resolveShards()
	parts := make([]shardPart, n)
	for i, entry := range entries {
		s := shardOf(ids[i], n)
		if dead != nil && dead[i] {
			parts[s].dead = append(parts[s].dead, len(parts[s].entries))
		}
		parts[s].entries = append(parts[s].entries, entry)
		parts[s].ids = append(parts[s].ids, ids[i])
	}
	return assembleShards(cfg, parts, nextID, version)
}

// shardPart is one shard's slice of the database at assembly time:
// every slot's entry and ID, the tombstoned slots among them, and the
// shard's mutation sequence.  Open passes the shard's recovery report,
// which assembly completes with the index build time.
type shardPart struct {
	entries  []string
	ids      []uint64
	dead     []int // tombstoned slots, ascending
	seq      int64
	recovery *ShardRecovery
}

// assembleShards builds the Database from per-shard parts — the shared
// tail of every constructor, including the per-shard recovery path.
// Every slot's entry is validated, tombstones are restored through the
// same snapshot Remove a live database runs, and each shard's seed
// index is built from its slot entries, shards in parallel.
//
//racelint:publisher
func assembleShards(cfg *config, parts []shardPart, nextID uint64, version int64) (*Database, error) {
	factory, err := searchFactory(cfg)
	if err != nil {
		return nil, err
	}
	pools, err := pipeline.NewPools(factory, cfg.library)
	if err != nil {
		return nil, err
	}
	d := &Database{
		cfg:        cfg,
		pools:      pools,
		shards:     make([]*shard, len(parts)),
		compaction: cfg.compaction,
		idxStats:   &index.Stats{},
		memo:       newOutcomeMemo(memoBudget),
	}
	states := make([]*shardstate, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for s := range parts {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			d.shards[s], states[s], errs[s] = d.assembleShard(s, parts[s])
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	d.nextID.Store(nextID)
	d.ticket.Store(version)
	d.view.Store(&dbview{version: version, states: states})
	d.initObs()
	return d, nil
}

// assembleShard builds one shard and its first state, stamped with the
// part's sequence, from its part: byID names only the live IDs, sorted
// every resident one.
func (d *Database) assembleShard(s int, part shardPart) (*shard, *shardstate, error) {
	if i, err := d.cfg.checkEntries(part.entries); err != nil {
		return nil, nil, fmt.Errorf("racelogic: database entry ID %d %w", part.ids[i], err)
	}
	snap, err := pipeline.NewSnapshot(part.entries, part.seq)
	if err != nil {
		return nil, nil, err
	}
	sh := &shard{id: s, byID: make(map[uint64]int, len(part.ids)), idxStats: d.idxStats, recovery: part.recovery}
	for slot, id := range part.ids {
		sh.byID[id] = slot
	}
	if len(part.dead) > 0 {
		if snap, err = snap.Remove(part.dead, part.seq); err != nil {
			return nil, nil, err
		}
		for _, slot := range part.dead {
			delete(sh.byID, part.ids[slot])
		}
	}
	var idx *index.Index
	if d.cfg.seedK > 0 {
		begin := time.Now()
		if idx, err = index.New(part.entries, d.cfg.seedK); err != nil {
			return nil, nil, err
		}
		idx.SetStats(d.idxStats)
		if part.recovery != nil {
			part.recovery.IndexSeconds = time.Since(begin).Seconds()
		}
	}
	sorted := slices.Clone(part.ids)
	slices.Sort(sorted)
	return sh, &shardstate{snap: snap, idx: idx, ids: part.ids, sorted: sorted}, nil
}

// alphabet returns the symbol set the configured engine accepts.
func (c *config) alphabet() string {
	if c.matrix != "" {
		return score.ProteinAlphabet
	}
	return score.DNAAlphabet
}

// checkEntries returns the position of the first entry no database may
// hold — an empty one, or one with a symbol outside the engine
// alphabet — and why, or -1 and nil.  Every way an entry enters a
// database runs it (construction, Open's snapshot slots and replayed
// inserts, Insert): a long-running database must reject a bad entry
// there, not fail intermittently at query time whenever a candidate
// set happens to include it.
func (c *config) checkEntries(entries []string) (int, error) {
	alphabet := c.alphabet()
	var valid [256]bool
	for i := 0; i < len(alphabet); i++ {
		valid[alphabet[i]] = true
	}
	for i, entry := range entries {
		if len(entry) == 0 {
			return i, errors.New("is empty")
		}
		for j := 0; j < len(entry); j++ {
			if !valid[entry[j]] {
				return i, fmt.Errorf("contains symbol %q outside the engine alphabet (%s)", entry[j], alphabet)
			}
		}
	}
	return -1, nil
}

// allShards returns every shard index ascending — the lock-every-shard
// order.
func (d *Database) allShards() []int {
	all := make([]int, len(d.shards))
	for i := range all {
		all[i] = i
	}
	return all
}

// lockShards acquires the listed shard locks in ascending order (the
// deadlock-free total order) and returns an unlock function.
func (d *Database) lockShards(touched []int) func() {
	for _, s := range touched {
		d.shards[s].mu.Lock()
	}
	return func() {
		for _, s := range touched {
			d.shards[s].mu.Unlock()
		}
	}
}

// publish installs the new states of the touched shards as one new view
// with a fresh unique version.  The caller holds every touched shard's
// lock, so the CAS retries only against concurrent writers of disjoint
// shards and the per-shard states can never regress.
//
//racelint:publisher
func (d *Database) publish(touched []int, states map[int]*shardstate, ticket int64) *dbview {
	for {
		cur := d.view.Load()
		ns := make([]*shardstate, len(cur.states))
		copy(ns, cur.states)
		for _, s := range touched {
			ns[s] = states[s]
		}
		ver := cur.version + 1
		if ticket > ver {
			ver = ticket
		}
		nv := &dbview{version: ver, states: ns}
		if d.view.CompareAndSwap(cur, nv) {
			return nv
		}
	}
}

// appendSorted extends a shard's ascending resident-ID table with a
// freshly inserted ID block.  The common case — an ascending block
// whose IDs exceed every resident one — is a copy-on-write append past
// every older state's length; any other block (possible when
// concurrent multi-shard inserts race, and in a replayed journal tail
// holding their records) falls back to a sorted copy.
func appendSorted(sorted, ids []uint64) []uint64 {
	if (len(sorted) == 0 || ids[0] > sorted[len(sorted)-1]) && slices.IsSorted(ids) {
		return append(sorted, ids...)
	}
	out := make([]uint64, 0, len(sorted)+len(ids))
	out = append(out, sorted...)
	out = append(out, ids...)
	slices.Sort(out)
	return out
}

// applyInsert applies a validated insert with pre-assigned IDs to one
// shard and returns its replacement state.  Caller holds the shard's
// lock; cur is the shard's current state.
func (sh *shard) applyInsert(cur *shardstate, ids []uint64, entries []string) (*shardstate, error) {
	start := cur.snap.Slots()
	st, err := appendSlots(cur, ids, entries, cur.nextSeq())
	if err != nil {
		return nil, err
	}
	for j, id := range ids {
		sh.byID[id] = start + j
	}
	return st, nil
}

// appendSlots derives the state that appends entries with their IDs as
// new slots of a shard, the first at cur.snap.Slots() — one snapshot
// Insert stamped version and one seed-index Grow, however many entries.
// It leaves byID to the caller.
func appendSlots(cur *shardstate, ids []uint64, entries []string, version int64) (*shardstate, error) {
	snap, err := cur.snap.Insert(entries, version)
	if err != nil {
		return nil, err
	}
	idx := cur.idx
	if idx != nil {
		idx = idx.Grow(entries)
	}
	return &shardstate{snap: snap, idx: idx, ids: append(cur.ids, ids...), sorted: appendSorted(cur.sorted, ids)}, nil
}

// applyRemove tombstones the given IDs (all pre-validated as live in
// this shard) and returns the replacement state.  Caller holds the
// shard's lock.
func (sh *shard) applyRemove(cur *shardstate, ids []uint64) (*shardstate, error) {
	slots := make([]int, len(ids))
	for i, id := range ids {
		slot, ok := sh.byID[id]
		if !ok {
			return nil, fmt.Errorf("racelogic: remove %d: %w", id, ErrUnknownID)
		}
		slots[i] = slot
	}
	snap, err := cur.snap.Remove(slots, cur.nextSeq())
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		delete(sh.byID, id)
	}
	return &shardstate{snap: snap, idx: cur.idx, ids: cur.ids, sorted: cur.sorted}, nil
}

// applyCompact rebuilds the shard densely and returns the replacement
// state, or cur unchanged when there is nothing to reclaim.  Caller
// holds the shard's lock.
func (sh *shard) applyCompact(cur *shardstate) (*shardstate, error) {
	remap, snap := cur.snap.Compact(cur.nextSeq())
	if remap == nil {
		return cur, nil
	}
	ids := make([]uint64, snap.Slots())
	for old, slot := range remap {
		if slot >= 0 {
			ids[slot] = cur.ids[old]
			sh.byID[cur.ids[old]] = slot
		}
	}
	idx := cur.idx
	if idx != nil {
		var err error
		if idx, err = index.New(snap.Entries(), idx.K()); err != nil {
			return nil, err
		}
		// A from-scratch rebuild loses the counter sink Grow would have
		// propagated; re-attach it before the state publishes.
		idx.SetStats(sh.idxStats)
	}
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	return &shardstate{snap: snap, idx: idx, ids: ids, sorted: sorted}, nil
}

// state returns the shard's current published state.  Stable while the
// shard's lock is held (other writers cannot touch this shard).
func (d *Database) state(s int) *shardstate { return d.view.Load().states[s] }

// journalShards appends one record per touched shard, at the sequence
// the shard's next mutation takes, rolling all of them back on the first
// failure so a failed mutation leaves neither memory nor disk changed.
// Caller holds every touched shard's lock.  It returns the journals it
// appended to, for ack, and full: whether an append carried a shard's
// journal across another multiple of the byte cap (WithWALSegmentBytes),
// the trigger signalSnapshotter checkpoints on.
//
//racelint:journal
func (d *Database) journalShards(touched []int, appendRec func(sh *shard, seq int64) error) ([]*store.WAL, bool, error) {
	var appended []*store.WAL
	full := false
	walCap := d.walCap.Load()
	for _, s := range touched {
		sh := d.shards[s]
		if sh.jrnl == nil {
			return nil, false, nil // memory-only: no shard journals anything
		}
		before := sh.jrnl.Size()
		if err := appendRec(sh, d.state(s).nextSeq()); err != nil {
			for _, w := range appended {
				_ = w.DropLast()
			}
			return nil, false, err
		}
		appended = append(appended, sh.jrnl)
		if walCap > 0 && sh.jrnl.Size()/walCap > before/walCap {
			full = true
		}
	}
	return appended, full, nil
}

// ack waits for the journaled records of one mutation to reach stable
// storage when the database runs with WithSync.  It is called after the
// shard locks are released, which is what lets the per-shard flushes of
// concurrent mutations coalesce into group commits.
//
// An ack failure means the mutation's outcome is indeterminate, exactly
// like a crash between append and return: the mutation is applied in
// memory and its record may or may not survive a restart, so the caller
// gets ErrJournal and must treat the state as unknown rather than
// retry blindly.  The WAL latches the failure — no later mutation can
// be acknowledged on top of the suspect tail, and appends fail fast
// (before applying anything) until a checkpoint folds the journal into
// a durable snapshot and proves the device writable again.
func (d *Database) ack(appended []*store.WAL) error {
	if !d.walSync.Load() || len(appended) == 0 {
		return nil
	}
	if len(appended) == 1 {
		return appended[0].GroupSync()
	}
	errs := make([]error, len(appended))
	var wg sync.WaitGroup
	for i, w := range appended {
		wg.Add(1)
		go func(i int, w *store.WAL) {
			defer wg.Done()
			errs[i] = w.GroupSync()
		}(i, w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Insert adds entries to the live database and returns their newly
// assigned stable IDs, in order.  The entries are routed to their
// shards by ID hash; each shard extends its length buckets and k-mer
// seed index incrementally (copy-on-write, no rebuild), and the new
// shard states are published as one atomic view — searches in flight
// keep their pre-insert view, searches started after Insert returns see
// every new entry, and no search ever sees half of a multi-shard batch.
// Entries are validated against the engine alphabet first; on any
// invalid entry nothing is inserted.  Inserting zero entries is a no-op
// that does not bump the version.
//
// On a durable database (Persist/Open) the insert is journaled to each
// touched shard's write-ahead log before it is applied; with WithSync
// the flushes of concurrent mutations are group-committed.
func (d *Database) Insert(entries ...string) ([]uint64, error) {
	if i, err := d.cfg.checkEntries(entries); err != nil {
		return nil, fmt.Errorf("racelogic: inserted entry %d %w", i, err)
	}
	if len(entries) == 0 {
		return []uint64{}, nil
	}
	if d.closed.Load() {
		return nil, ErrClosed
	}
	base := d.nextID.Add(uint64(len(entries))) - uint64(len(entries))
	newIDs := make([]uint64, len(entries))
	n := len(d.shards)
	partIDs := make(map[int][]uint64, 1)
	partEntries := make(map[int][]string, 1)
	for j := range entries {
		id := base + uint64(j)
		newIDs[j] = id
		s := shardOf(id, n)
		partIDs[s] = append(partIDs[s], id)
		partEntries[s] = append(partEntries[s], entries[j])
	}
	touched := sortedKeys(partIDs)

	unlock := d.lockShards(touched)
	if d.closed.Load() {
		unlock()
		return nil, ErrClosed
	}
	t := d.ticket.Add(1)
	appended, full, err := d.journalShards(touched, func(sh *shard, seq int64) error {
		return sh.jrnl.AppendInsert(seq, t, partIDs[sh.id], partEntries[sh.id])
	})
	if err != nil {
		unlock()
		return nil, fmt.Errorf("%w: insert: %w", ErrJournal, err)
	}
	states, err := d.applyParallel(touched, func(sh *shard, cur *shardstate) (*shardstate, error) {
		return sh.applyInsert(cur, partIDs[sh.id], partEntries[sh.id])
	})
	if err != nil {
		unlock()
		return nil, err
	}
	d.publish(touched, states, t)
	unlock()

	if err := d.ack(appended); err != nil {
		return nil, fmt.Errorf("%w: insert: %w", ErrJournal, err)
	}
	d.signalSnapshotter(full)
	return newIDs, nil
}

// applyParallel runs one shard-state transition on every touched shard,
// concurrently when the mutation spans shards — the per-shard index and
// bucket copies are the mutation's real cost, and they are independent.
// Caller holds every touched shard's lock.
func (d *Database) applyParallel(touched []int, apply func(sh *shard, cur *shardstate) (*shardstate, error)) (map[int]*shardstate, error) {
	states := make(map[int]*shardstate, len(touched))
	if len(touched) == 1 {
		s := touched[0]
		st, err := apply(d.shards[s], d.state(s))
		if err != nil {
			return nil, err
		}
		states[s] = st
		return states, nil
	}
	var mu sync.Mutex
	errs := make([]error, len(touched))
	var wg sync.WaitGroup
	for i, s := range touched {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			st, err := apply(d.shards[s], d.state(s))
			if err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			states[s] = st
			mu.Unlock()
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return states, nil
}

// sortedKeys returns the map's keys ascending — the shard lock order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Remove deletes the entries with the given stable IDs.  It is
// all-or-nothing: an unknown or repeated ID returns an error (wrapping
// ErrUnknownID for unknown ones) with nothing removed.  Removal
// tombstones the entries' slots in their shards — each shard's seed
// index keeps its postings and searches filter them — until the
// CompactionPolicy triggers against the global tombstone counts, at
// which point every shard holding tombstones compacts.  In-flight
// searches keep their pre-remove view either way.
//
// On a durable database the remove (and any policy-triggered
// compaction) is journaled to the touched shards' write-ahead logs
// before it is applied.
func (d *Database) Remove(ids ...uint64) error {
	if len(ids) == 0 {
		return nil
	}
	if d.closed.Load() {
		return ErrClosed
	}
	n := len(d.shards)
	partIDs := make(map[int][]uint64, 1)
	seen := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			return fmt.Errorf("racelogic: remove: id %d repeated in one call", id)
		}
		seen[id] = true
		s := shardOf(id, n)
		partIDs[s] = append(partIDs[s], id)
	}
	touched := sortedKeys(partIDs)

	unlock := d.lockShards(touched)
	if d.closed.Load() {
		unlock()
		return ErrClosed
	}
	for _, s := range touched {
		for _, id := range partIDs[s] {
			if _, ok := d.shards[s].byID[id]; !ok {
				unlock()
				return fmt.Errorf("racelogic: remove %d: %w", id, ErrUnknownID)
			}
		}
	}
	t := d.ticket.Add(1)
	appended, full, err := d.journalShards(touched, func(sh *shard, seq int64) error {
		return sh.jrnl.AppendRemove(seq, t, partIDs[sh.id])
	})
	if err != nil {
		unlock()
		return fmt.Errorf("%w: remove: %w", ErrJournal, err)
	}
	states, err := d.applyParallel(touched, func(sh *shard, cur *shardstate) (*shardstate, error) {
		return sh.applyRemove(cur, partIDs[sh.id])
	})
	if err != nil {
		unlock()
		return err
	}
	nv := d.publish(touched, states, t)
	unlock()

	if err := d.ack(appended); err != nil {
		return fmt.Errorf("%w: remove: %w", ErrJournal, err)
	}

	// Compact when the policy says the global tombstone count is worth
	// reclaiming: the wasted slots cost collector memory per search and
	// stale postings per seed lookup, and each shard's dense rebuild is
	// O(shard live) — cheap exactly when the live set has shrunk.  A
	// concurrent Close may fence the compaction off; the tombstones then
	// simply persist (and replay), so the remove itself still succeeded.
	if d.policy().due(nv.dead(), nv.live()) {
		if _, err := d.compactAll(false); err != nil && !errors.Is(err, ErrClosed) {
			return err
		}
	}
	d.signalSnapshotter(full)
	return nil
}

// policy returns the current automatic compaction policy.
func (d *Database) policy() CompactionPolicy {
	d.cmu.Lock()
	defer d.cmu.Unlock()
	return d.compaction
}

func (d *Database) setPolicy(p CompactionPolicy) {
	d.cmu.Lock()
	d.compaction = p
	d.cmu.Unlock()
}

// CompactStats reports one compaction.  Entry IDs are the stable handle
// across compactions; Remap exists only for clients that cached
// slot-based state (a SearchResult.Index, a pipeline candidate list)
// and need to rebind it.
type CompactStats struct {
	// Version is the database mutation counter after the compaction (or
	// the unchanged current version when nothing was reclaimed).
	Version int64
	// Live is the number of live entries; Reclaimed the tombstoned
	// slots dropped by this compaction (0 = nothing to do).
	Live, Reclaimed int
	// Remap maps every pre-compaction slot to its post-compaction slot,
	// -1 for the dropped tombstones.  Slots are global ID-order
	// positions, exactly as SearchResult.Index reports them.  Nil when
	// nothing was reclaimed.
	Remap []int
}

// Compact forces a dense rebuild of every shard holding tombstones,
// regardless of the automatic CompactionPolicy, and reports what moved.
// With no tombstones it is a no-op that does not bump the version.  On
// a durable database each shard's compaction is journaled.  Searches in
// flight keep their pre-compact view; entry IDs are unaffected — they
// are the stable handle.
func (d *Database) Compact() (*CompactStats, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	return d.compactAll(true)
}

// compactAll is the one logical compaction: it locks every shard,
// journals and applies a dense rebuild on each shard with tombstones,
// and publishes the result as a single version bump.  needRemap builds
// the global slot remap (skipped on the automatic path, where nobody
// consumes it).
func (d *Database) compactAll(needRemap bool) (*CompactStats, error) {
	all := d.allShards()
	unlock := d.lockShards(all)
	if d.closed.Load() {
		unlock()
		return nil, ErrClosed
	}
	v := d.view.Load()
	if v.dead() == 0 {
		unlock()
		return &CompactStats{Version: v.version, Live: v.live()}, nil
	}
	var touched []int
	for s, st := range v.states {
		if st.snap.Dead() > 0 {
			touched = append(touched, s)
		}
	}
	t := d.ticket.Add(1)
	appended, full, err := d.journalShards(touched, func(sh *shard, seq int64) error {
		return sh.jrnl.AppendCompact(seq, t)
	})
	if err != nil {
		unlock()
		return nil, fmt.Errorf("%w: compaction: %w", ErrJournal, err)
	}
	var remap []int
	if needRemap {
		remap = globalRemap(v)
	}
	states, err := d.applyParallel(touched, func(sh *shard, cur *shardstate) (*shardstate, error) {
		return sh.applyCompact(cur)
	})
	if err != nil {
		unlock()
		return nil, err
	}
	nv := d.publish(touched, states, t)
	d.compactions.Add(1)
	unlock()

	if err := d.ack(appended); err != nil {
		return nil, fmt.Errorf("%w: compaction: %w", ErrJournal, err)
	}
	d.signalSnapshotter(full)
	return &CompactStats{
		Version:   nv.version,
		Live:      nv.live(),
		Reclaimed: v.dead(),
		Remap:     remap,
	}, nil
}

// globalRemap computes the pre→post compaction slot remap in global
// ID-order coordinates: every resident ID (live and tombstoned) gets a
// pre-compaction position; the survivors keep their relative order and
// renumber densely.
func globalRemap(v *dbview) []int {
	type resident struct {
		id   uint64
		live bool
	}
	var all []resident
	for _, st := range v.states {
		for slot, id := range st.ids {
			all = append(all, resident{id: id, live: st.snap.Live(slot)})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].id < all[b].id })
	remap := make([]int, len(all))
	next := 0
	for i, r := range all {
		if r.live {
			remap[i] = next
			next++
		} else {
			remap[i] = -1
		}
	}
	return remap
}

// Shards returns the partition count fixed at construction.
func (d *Database) Shards() int { return len(d.shards) }

// Len returns the number of live database entries.
func (d *Database) Len() int { return d.view.Load().live() }

// Buckets returns the number of distinct live entry lengths across
// every shard.
func (d *Database) Buckets() int { return d.view.Load().buckets() }

// Version returns the mutation counter: 0 for a fresh database,
// incremented by every Insert, Remove, and compaction, and preserved
// across Persist/Open.
func (d *Database) Version() int64 { return d.view.Load().version }

// Tombstones returns the number of removed entries whose slots have not
// been compacted away yet, across every shard.
func (d *Database) Tombstones() int { return d.view.Load().dead() }

// IDs returns the stable IDs of every live entry, ascending — the
// global slot order.
func (d *Database) IDs() []uint64 {
	v := d.view.Load()
	out := make([]uint64, 0, v.live())
	for _, st := range v.states {
		for slot := 0; slot < st.snap.Slots(); slot++ {
			if st.snap.Live(slot) {
				out = append(out, st.ids[slot])
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// SeedK returns the k-mer seed length, or 0 when the database was built
// without WithSeedIndex.
func (d *Database) SeedK() int { return d.cfg.seedK }

// Backend returns the simulation engine the database's races run on,
// fixed at construction by WithBackend (default BackendCycle).
func (d *Database) Backend() Backend { return d.cfg.backend }

// EnginesBuilt returns the number of arrays compiled over the database's
// lifetime, across all searches, shapes, and shards — the quantity
// engine pooling amortizes (all shards share one pool set).
func (d *Database) EnginesBuilt() int64 { return d.pools.EnginesBuilt() }

// PooledEngines returns the number of idle compiled arrays currently
// parked in the shared shape pools, ready for the next search.
func (d *Database) PooledEngines() int { return d.pools.PooledEngines() }

// Searches returns the number of Search calls served.
func (d *Database) Searches() int64 { return d.searches.Load() }

// Search scores query against the database and returns the ranked
// report.  It is safe for concurrent callers, including concurrently
// with Insert and Remove: the whole search runs against the one view
// current when it started — every shard snapshot from the same
// published cut, so even a multi-shard mutation is all-or-nothing to
// it — and the report's Version records which one.  Per-search options
// — WithThreshold, WithTopK, WithWorkers, WithFullScan — override the
// database defaults; options that shape the compiled engines, the seed
// index, or the partition layout (WithLibrary, WithMatrix,
// WithClockGating, WithOneHotEncoding, WithSeedIndex, WithShards) are
// fixed at construction and rejected here.
func (d *Database) Search(query string, opts ...Option) (*SearchReport, error) {
	return d.SearchContext(context.Background(), query, opts...)
}

// SearchContext is Search with a context.  A trace attached via
// obs.WithTrace is carried through the scatter-gather pipeline and
// filled with per-shard span timings and hardware-native dimensions;
// an untraced context costs one nil check per layer.
func (d *Database) SearchContext(ctx context.Context, query string, opts ...Option) (*SearchReport, error) {
	cfg := *d.cfg
	cfg.applied = nil
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if name := cfg.firstApplied(databaseFixedOptions...); name != "" {
		return nil, fmt.Errorf("racelogic: %s is fixed when the database is built; pass it to NewDatabase instead", name)
	}
	return d.search(ctx, query, &cfg)
}

// seedFiltered reports whether the seed index can narrow a scan for
// query under cfg.  A query shorter than k carries no seeds, so the
// index cannot filter: skip the lookups entirely rather than
// materialize identity candidate slices.  The condition is uniform
// across shards (one k).
func seedFiltered(query string, cfg *config) bool {
	return cfg.seedK > 0 && !cfg.fullScan && len(query) >= cfg.seedK
}

// shardScans builds one query's per-shard candidate scans against v:
// the seed-index lookup, tombstone filtering, the nil "scan everything"
// fallback, and the query's memoized outcomes.  tr may be the nil
// trace; a batch adds every query's skips to it.
func (d *Database) shardScans(v *dbview, query string, cfg *config, tr *obs.Trace) []pipeline.ShardScan {
	filtered := seedFiltered(query, cfg)
	known := d.memo.get(newMemoKey(query, cfg.threshold))
	scans := make([]pipeline.ShardScan, len(d.shards))
	for s, st := range v.states {
		sc := pipeline.ShardScan{Snap: st.snap, IDs: st.ids, Known: known}
		if filtered && st.idx != nil {
			cands := st.idx.Candidates(query)
			// Postings may still name tombstoned slots (removal leaves
			// the index untouched until compaction); drop them here.
			n := 0
			for _, slot := range cands {
				if st.snap.Live(slot) {
					cands[n] = slot
					n++
				}
			}
			cands = cands[:n]
			tr.AddShardSkipped(s, st.snap.Len()-len(cands))
			if len(cands) == st.snap.Len() {
				// Full shard coverage: fall back to the nil "scan
				// everything" convention so the pipeline reuses the
				// buckets sharded at publish time.
				cands = nil
			}
			sc.Candidates = cands
		}
		scans[s] = sc
	}
	return scans
}

// reportFrom converts one pipeline report into the public SearchReport
// against the view the search ran over: Skipped is derived from the
// live count when the seed index filtered, and Index from the global
// stable-ID ranking.
func (d *Database) reportFrom(v *dbview, query string, cfg *config, rep *pipeline.Report) *SearchReport {
	skipped := 0
	if seedFiltered(query, cfg) {
		skipped = v.live() - rep.Scanned
	}
	out := &SearchReport{
		Query:        query,
		Version:      v.version,
		Results:      make([]SearchResult, len(rep.Results)),
		Scanned:      rep.Scanned,
		Skipped:      skipped,
		Matched:      rep.Matched,
		Rejected:     rep.Rejected,
		Buckets:      rep.Buckets,
		EnginesBuilt: rep.EnginesBuilt,
		TotalCycles:  rep.TotalCycles,
		TotalEnergyJ: rep.TotalEnergyJ,
	}
	for i, r := range rep.Results {
		out.Results[i] = SearchResult{
			Index:    v.rank(r.ID),
			ID:       r.ID,
			Sequence: r.Sequence,
			Score:    r.Score,
			Metrics: Metrics{
				Cycles:           r.Cycles,
				LatencyNS:        r.LatencyNS,
				EnergyJ:          r.EnergyJ,
				AreaUM2:          r.AreaUM2,
				PowerDensityWCM2: r.PowerDensityWCM2,
			},
		}
	}
	return out
}

// search runs one query under a fully resolved config: a batch of one
// through searchQueries, returning the query's own error unwrapped.
func (d *Database) search(ctx context.Context, query string, cfg *config) (*SearchReport, error) {
	begin := time.Now()
	out, err := d.searchQueries(ctx, []string{query}, cfg)
	var qe *pipeline.QueryError
	if errors.As(err, &qe) {
		return nil, qe.Err
	}
	if err != nil {
		return nil, err
	}
	d.metrics.observeSearch(time.Since(begin), out[0])
	return out[0], nil
}

// searchQueries is the one search body behind search and searchBatch.
// It loads the view once, so every report is one consistent cut
// carrying the same Version even under concurrent mutation; builds each
// distinct query's per-shard seed-index candidate scans, with its
// memoized outcomes, under the seed span; and races them all through
// one scatter-race-fold, gathering each query's shard outcomes under
// the global (Score, ID) ranking.  A query the batch repeats races once
// (the batch shares one option set), and every copy gets its own
// report.  Each query's scored outcomes then replace its memo entry; a
// failed search stores nothing.  A trace attached to ctx records the
// whole call, counting each distinct query's work once.
func (d *Database) searchQueries(ctx context.Context, queries []string, cfg *config) ([]*SearchReport, error) {
	tr := obs.TraceFrom(ctx)
	v := d.view.Load()
	// distinct holds each query once, in first-appearance order; of[qi]
	// is query qi's position in it.
	var distinct []string
	of := make([]int, len(queries))
	pos := make(map[string]int, len(queries))
	for qi, query := range queries {
		u, ok := pos[query]
		if !ok {
			u = len(distinct)
			pos[query] = u
			distinct = append(distinct, query)
		}
		of[qi] = u
	}
	endSeed := tr.StartSpan("seed")
	scanSets := make([][]pipeline.ShardScan, len(distinct))
	for u, query := range distinct {
		scanSets[u] = d.shardScans(v, query, cfg, tr)
	}
	endSeed()
	reps, err := pipeline.MultiSearchBatch(d.pools, scanSets, distinct, pipeline.Request{
		Threshold: cfg.threshold,
		Workers:   cfg.workers,
		TopK:      cfg.topK,
		Trace:     tr,
	})
	var qe *pipeline.QueryError
	if errors.As(err, &qe) {
		// Distinct queries keep first-appearance order, so the lowest
		// failing one's first copy is the lowest failing query.
		return nil, &pipeline.QueryError{Query: slices.Index(of, qe.Query), Err: qe.Err}
	}
	if err != nil {
		return nil, err
	}
	d.searches.Add(int64(len(queries)))
	memoized := 0
	for u, rep := range reps {
		d.memo.put(newMemoKey(distinct[u], cfg.threshold), rep.Outcomes)
		memoized += rep.Memoized
	}
	d.metrics.memoized.Add(float64(memoized))
	out := make([]*SearchReport, len(queries))
	for qi, query := range queries {
		out[qi] = d.reportFrom(v, query, cfg, reps[of[qi]])
	}
	return out, nil
}

// SearchBatch scores every query in one pipeline pass and returns one
// report per query, in input order.  Each report is byte-identical to
// what Search would return for its query against the same view —
// results, scores, scan counts, cycles, energy — except EnginesBuilt,
// which (like a re-sharded snapshot's) reflects the batch's shared
// engine pool rather than a per-query count.
//
// The point of batching is lane fill: under BackendLanes, candidate
// pairs from different queries that share an edit-graph shape are
// packed into the same wide lane slab, so a batch of short queries can
// fill 64–512 lanes per race where sequential calls would leave most
// lanes idle.  Engine checkouts, scan planning, and worker fan-out are
// likewise paid once per batch.
//
// SearchBatch accepts the same per-search options as Search, resolved
// once for the whole batch.  An empty batch returns an empty slice.
// If any query fails, the whole batch fails with a *BatchError naming
// the lowest-numbered failing query.
func (d *Database) SearchBatch(queries []string, opts ...Option) ([]*SearchReport, error) {
	return d.SearchBatchContext(context.Background(), queries, opts...)
}

// SearchBatchContext is SearchBatch with a context.  A trace attached
// via obs.WithTrace records the whole batch: one seed/plan/race/merge
// span sequence, and per-shard dimensions summed over the distinct
// queries.  A query the batch repeats is raced once, so the trace and
// the Metrics entry counters (scanned, memoized, skipped, rejected)
// count its work once, while each copy still gets its own report.
func (d *Database) SearchBatchContext(ctx context.Context, queries []string, opts ...Option) ([]*SearchReport, error) {
	cfg := *d.cfg
	cfg.applied = nil
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if name := cfg.firstApplied(databaseFixedOptions...); name != "" {
		return nil, fmt.Errorf("racelogic: %s is fixed when the database is built; pass it to NewDatabase instead", name)
	}
	return d.searchBatch(ctx, queries, &cfg)
}

// searchBatch runs the whole batch through searchQueries, naming a
// failing query with a *BatchError.
func (d *Database) searchBatch(ctx context.Context, queries []string, cfg *config) ([]*SearchReport, error) {
	for qi, query := range queries {
		if len(query) == 0 {
			return nil, &BatchError{Query: qi, Err: fmt.Errorf("racelogic: empty query")}
		}
	}
	begin := time.Now()
	out, err := d.searchQueries(ctx, queries, cfg)
	var qe *pipeline.QueryError
	if errors.As(err, &qe) {
		return nil, &BatchError{Query: qe.Query, Err: qe.Err}
	}
	if err != nil {
		return nil, err
	}
	d.metrics.observeSearchBatch(time.Since(begin), out)
	return out, nil
}
