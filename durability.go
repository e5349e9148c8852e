package racelogic

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"racelogic/internal/store"
)

// ErrClosed is returned by mutations (and Checkpoint) on a closed
// database.  The HTTP layer maps it to 503: the condition is the
// server's, not the client's.
var ErrClosed = errors.New("racelogic: database is closed")

// ErrJournal wraps mutation failures caused by the write-ahead log
// itself — a full or failing disk, never a bad request.  The HTTP
// layer maps it to 500.
var ErrJournal = errors.New("racelogic: journal write failed")

// ErrNoDatabase is wrapped by Open when the directory holds no
// database — the "bootstrap it with Persist" signal, as opposed to a
// present-but-corrupt state, which must fail loudly instead.
var ErrNoDatabase = errors.New("no database in directory")

// A durable database directory holds one manifest plus, per shard, one
// snapshot file and one write-ahead-log file:
//
//	db.manifest           the layout commit point (shard count + generation)
//	shard-0000.g0.snap …  one snapshot per shard
//	shard-0000.g0.wal …   one journal per shard
//
// Every file name carries the layout generation.  A layout rewrite — a
// reshard — writes the next generation's files first and commits them
// by rewriting the manifest, so a crash at any point leaves exactly one
// complete, authoritative layout; files of other generations are
// ignored and cleaned up by the next successful open.
const ManifestName = "db.manifest"

// shardSnapName and shardJournalBase name one shard's files within one
// layout generation.
func shardSnapName(s, gen int) string    { return fmt.Sprintf("shard-%04d.g%d.snap", s, gen) }
func shardJournalBase(s, gen int) string { return fmt.Sprintf("shard-%04d.g%d", s, gen) }

// DefaultSnapshotInterval is how often the background snapshotter folds
// the journals into fresh snapshots when WithSnapshotInterval is unset.
const DefaultSnapshotInterval = time.Minute

// DefaultSnapshotEvery is the mutation count that triggers a background
// snapshot when WithSnapshotEvery is unset.
const DefaultSnapshotEvery = 1024

// DefaultWALSegmentBytes is the per-shard journal byte cap when
// WithWALSegmentBytes is unset: each time an append carries a shard's
// journal across another multiple of it, the snapshotter checkpoints,
// even with the count and interval triggers disabled.
const DefaultWALSegmentBytes = int64(64 << 20)

// CompactionPolicy decides when tombstoned slots are worth reclaiming
// with a dense rebuild.  It is the only automatic trigger: checkpoints
// capture tombstones into the snapshots rather than compacting them.
// The counts are global — the policy fires on the database's total
// dead/live ratio — and the rebuild then runs independently inside each
// shard holding tombstones.  Compaction triggers when ANY enabled
// condition holds; a zero field disables that condition, and the zero
// policy disables automatic compaction entirely (Compact stays
// available as a manual call).  See WithCompactionPolicy.
type CompactionPolicy struct {
	// MaxDead compacts once at least this many tombstones accumulate.
	MaxDead int
	// MaxDeadRatio compacts once dead > ratio·live — the classic
	// space-amplification bound.  DefaultCompactionPolicy uses 1.0,
	// the pre-policy hard-coded dead>live trigger.
	MaxDeadRatio float64
	// Interval compacts on a timer regardless of counts.  It requires
	// the background snapshotter, so it applies to durable databases
	// (Persist/Open) only.
	Interval time.Duration
}

// DefaultCompactionPolicy compacts once tombstones outnumber live
// entries — the policy every database starts with.
var DefaultCompactionPolicy = CompactionPolicy{MaxDeadRatio: 1.0}

func (p CompactionPolicy) validate() error {
	if p.MaxDead < 0 {
		return fmt.Errorf("racelogic: compaction MaxDead %d must be ≥ 0", p.MaxDead)
	}
	if p.MaxDeadRatio < 0 {
		return fmt.Errorf("racelogic: compaction MaxDeadRatio %g must be ≥ 0", p.MaxDeadRatio)
	}
	if p.Interval < 0 {
		return fmt.Errorf("racelogic: compaction Interval %v must be ≥ 0", p.Interval)
	}
	return nil
}

// due reports whether a count-based condition has triggered.
func (p CompactionPolicy) due(dead, live int) bool {
	if dead == 0 {
		return false
	}
	if p.MaxDead > 0 && dead >= p.MaxDead {
		return true
	}
	return p.MaxDeadRatio > 0 && float64(dead) > p.MaxDeadRatio*float64(live)
}

// durabilityConfig layers durability options over base and rejects
// anything else: callers of Persist and Open configure the journals and
// snapshotter here, never the engines (a snapshot fixes those).  Open
// (reopen=true) additionally accepts WithShards — the reshard-in-place
// request — plus WithBackend and WithLaneWidth, the runtime
// simulation-engine choices that are deliberately outside the snapshot
// fingerprint.
func durabilityConfig(base *config, opts []Option, reopen bool) (*config, error) {
	cfg := *base
	cfg.applied = nil
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	allowed := durabilityOptions
	if reopen {
		allowed = append(append([]string(nil), durabilityOptions...), "WithShards", "WithBackend", "WithLaneWidth")
	}
	for _, name := range cfg.applied {
		ok := false
		for _, dur := range allowed {
			if name == dur {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("racelogic: %s cannot be set here; only durability options (%s) apply",
				name, strings.Join(allowed, ", "))
		}
	}
	return &cfg, nil
}

// layoutPresent reports whether dir already holds a database: a
// committed manifest.
func layoutPresent(dir string) (bool, error) {
	_, err := os.Stat(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return false, nil
	}
	return err == nil, err
}

// Persist attaches crash-safe durability to a database built in memory:
// it writes one snapshot per shard, the layout manifest, and an empty
// write-ahead log per shard into dir (created if needed), then starts
// the background snapshotter.  The snapshots capture every slot,
// tombstones included, so Persist changes neither Version nor any
// Index position.  From then on every Insert, Remove, and
// Compact is journaled to its shards' logs before it is applied, so a
// crash — not just a clean shutdown — loses no acknowledged mutation:
// Open(dir) replays each shard's journal tail over its newest snapshot.
//
// Only durability options are accepted: WithSync, WithSnapshotInterval,
// WithSnapshotEvery, WithCompactionPolicy, WithWALSegmentBytes.  dir
// must not already hold a database (use Open for that).  Call Close to
// detach cleanly.
func (d *Database) Persist(dir string, opts ...Option) error {
	cfg, err := durabilityConfig(d.cfg, opts, false)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if present, err := layoutPresent(dir); err != nil {
		return err
	} else if present {
		return fmt.Errorf("racelogic: %s already holds a database; use Open instead of Persist", dir)
	}
	if err := refuseLeftoverSegments(dir, 0); err != nil {
		return err
	}

	// Hold every shard lock across the initial snapshot writes and the
	// journal creation: no mutation may land between the captured view
	// and the journals that record what follows it.  Every Persist
	// attaches under these locks, so the durable check below is final.
	unlock := d.lockShards(d.allShards())
	defer unlock()
	d.lmu.Lock()
	closed, durable, cur := d.closed.Load(), d.durable, d.dir
	d.lmu.Unlock()
	if closed {
		return ErrClosed
	}
	if durable {
		return fmt.Errorf("racelogic: database is already durable (%s)", cur)
	}
	d.gen = 0
	v := d.view.Load()
	if err := d.writeShardSnapshots(dir, v); err != nil {
		return err
	} else if err := store.WriteManifestFile(filepath.Join(dir, ManifestName), store.Manifest{Shards: len(d.shards), Gen: d.gen}); err != nil {
		return err
	} else if _, err := d.openShardJournals(dir, true); err != nil {
		return err
	}
	d.lmu.Lock()
	d.attachDurability(dir, cfg, v.version, time.Now())
	d.lmu.Unlock()
	return nil
}

// writeShardSnapshots serializes every shard of one view to its
// snapshot file, slot for slot, tombstones included.  The states are
// immutable, so no lock is needed while the files are written.
func (d *Database) writeShardSnapshots(dir string, v *dbview) error {
	now := time.Now().UnixNano()
	for s, st := range v.states {
		dead := make([]bool, st.snap.Slots())
		for slot := range dead {
			dead[slot] = !st.snap.Live(slot)
		}
		payload := &store.Snapshot{
			Options:       d.storeOptions(),
			Shard:         s,
			ShardCount:    len(d.shards),
			Version:       st.snap.Version(),
			GlobalVersion: v.version,
			NextID:        d.nextID.Load(),
			IDs:           st.ids,
			Entries:       st.snap.Entries(),
			Dead:          dead,
		}
		if err := store.WriteFile(filepath.Join(dir, shardSnapName(s, d.gen)), payload); err != nil {
			return err
		}
		d.shards[s].lastSnap.Store(now)
	}
	return nil
}

// openShardJournals opens (or creates) every shard's journal and
// returns the records each one replayed.  With fresh set, any records
// found are orphans of a previous incomplete bootstrap — they were
// never acknowledged against this database — and are reset away.  On
// an error every journal it opened is closed and detached again.  The
// caller either holds every shard lock (Persist) or owns the database
// exclusively (Open), so the jrnl fields are assigned directly.
func (d *Database) openShardJournals(dir string, fresh bool) ([][]store.Record, error) {
	recs := make([][]store.Record, len(d.shards))
	for s, sh := range d.shards {
		w, srecs, err := store.OpenWAL(filepath.Join(dir, shardJournalBase(s, d.gen)+".wal"))
		if err == nil && fresh && len(srecs) > 0 {
			if err = w.Reset(); err != nil {
				_ = w.Close()
			}
			srecs = nil
		}
		if err != nil {
			// The open error is the one to report; closing is cleanup.
			for _, opened := range d.shards[:s] {
				_ = opened.jrnl.Close()
				opened.jrnl = nil
			}
			return nil, err
		}
		recs[s] = srecs
		w.SetTimings(d.walTimings())
		sh.jrnl = w
	}
	return recs, nil
}

// refuseLeftoverSegments fails when dir holds a sealed journal segment,
// <base>.wal.<seq>, of layout generation gen.  Earlier builds rotated a
// shard's journal into such files; this build replays only <base>.wal,
// so going on would silently drop the acknowledged records a segment
// holds.
func refuseLeftoverSegments(dir string, gen int) error {
	sealed, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-*.g%d.wal.*", gen)))
	if err != nil {
		return err
	}
	if len(sealed) > 0 {
		return fmt.Errorf("racelogic: %s is a sealed journal segment, which this build does not replay; "+
			"open and Close the directory with the build that wrote it to fold the segment into a snapshot", sealed[0])
	}
	return nil
}

// attachDurability wires the snapshotter state and starts the loop.
// snapVersion is the global version the on-disk snapshot set covers —
// the view just written for Persist and a layout rewrite; for Open the
// oldest shard snapshot's, and below the recovered view's whenever a
// journal tail was replayed, because that tail is in memory but in no
// snapshot yet.  savedAt is when those snapshots were
// actually written — now, or the files' mtime for Open — so SnapshotAge
// never hides a stale snapshot behind a restart.  Caller holds d.lmu.
func (d *Database) attachDurability(dir string, cfg *config, snapVersion int64, savedAt time.Time) {
	d.durable = true
	d.dir = dir
	d.setPolicy(cfg.compaction)
	d.snapInterval = cfg.snapInterval
	d.snapEvery = cfg.snapEvery
	d.walSync.Store(cfg.walSync)
	d.walCap.Store(cfg.walCap)
	d.snapVersion.Store(snapVersion)
	d.lastSnap.Store(savedAt.UnixNano())
	d.snapSignal = make(chan struct{}, 1)
	d.stopSnap = make(chan struct{})
	d.loopDone = make(chan struct{})
	go d.snapshotLoop()
}

// Open loads the durable database in dir: each shard's newest snapshot
// restores the bulk of its state (every slot, tombstones included; the
// seed index is rebuilt from the entries), then the shard's
// write-ahead-log tail is replayed — every mutation acknowledged after
// that snapshot, up to the first torn record a crash may have left — so
// a kill -9 between snapshots loses nothing.  The global version and ID counters are
// stitched back from the shard snapshots and the journaled global
// mutation numbers.
//
// The engine options come from the snapshot fingerprints; only
// durability options may be passed (WithSync, WithSnapshotInterval,
// WithSnapshotEvery, WithCompactionPolicy, WithWALSegmentBytes), plus
// WithShards to reshard the directory in place and WithBackend /
// WithLaneWidth to pick the simulation engine and its pack width — all
// runtime choices a snapshot deliberately does not fix, because none of
// them changes a report.
//
// The database resumes journaling and background snapshotting in dir.
// Call Close to shut it down cleanly.
func Open(dir string, opts ...Option) (*Database, error) {
	if present, err := layoutPresent(dir); err != nil {
		return nil, err
	} else if !present {
		return nil, fmt.Errorf("racelogic: %s (no %s): %w; create one with Database.Persist",
			dir, ManifestName, ErrNoDatabase)
	}
	m, err := store.ReadManifestFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	if err := refuseLeftoverSegments(dir, m.Gen); err != nil {
		return nil, err
	}
	snaps := make([]*store.Snapshot, m.Shards)
	for s := 0; s < m.Shards; s++ {
		path := filepath.Join(dir, shardSnapName(s, m.Gen))
		snap, err := store.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if snap.Shard != s || snap.ShardCount != m.Shards {
			return nil, fmt.Errorf("racelogic: %s claims shard %d of %d, manifest says %d of %d",
				path, snap.Shard, snap.ShardCount, s, m.Shards)
		}
		if s > 0 && snap.Options != snaps[0].Options {
			return nil, fmt.Errorf("racelogic: %s options fingerprint differs from shard 0 — mixed layouts in one directory", path)
		}
		snaps[s] = snap
	}
	base, err := configFromStoreOptions(snaps[0].Options)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(dir, shardSnapName(0, m.Gen)), err)
	}
	base.shards = m.Shards
	cfg, err := durabilityConfig(base, opts, true)
	if err != nil {
		return nil, err
	}
	reshardTo := 0
	if cfg.firstApplied("WithShards") != "" && cfg.resolveShards() != m.Shards {
		reshardTo = cfg.resolveShards()
	}
	cfg.shards = m.Shards
	info, err := os.Stat(filepath.Join(dir, shardSnapName(0, m.Gen)))
	if err != nil {
		return nil, err
	}

	parts := make([]shardPart, m.Shards)
	globalVersion := int64(0)
	// covered is the global version every shard snapshot holds: a crash
	// mid-checkpoint can leave some shards a set newer than others.
	covered := snaps[0].GlobalVersion
	nextID := uint64(0)
	for s, snap := range snaps {
		parts[s] = shardPart{entries: snap.Entries, ids: snap.IDs, seq: snap.Version}
		for slot, dead := range snap.Dead {
			if dead {
				parts[s].dead = append(parts[s].dead, slot)
			}
		}
		globalVersion = max(globalVersion, snap.GlobalVersion)
		covered = min(covered, snap.GlobalVersion)
		if snap.NextID > nextID {
			nextID = snap.NextID
		}
	}
	d, err := assembleShards(cfg, parts, nextID, globalVersion)
	if err != nil {
		return nil, err
	}
	d.gen = m.Gen
	recs, err := d.openShardJournals(dir, false)
	if err != nil {
		return nil, err
	}
	if err := d.replayShardJournals(recs, snaps); err != nil {
		d.closeShardJournals()
		return nil, err
	}
	if reshardTo > 0 {
		return reshard(dir, d, cfg, reshardTo, m.Gen+1)
	}
	cleanupStaleLayout(dir, m.Gen)
	for _, sh := range d.shards {
		sh.lastSnap.Store(info.ModTime().UnixNano())
	}
	// A replayed record is in no snapshot, yet need not raise the version
	// past covered: a checkpoint captures the view without the shard
	// locks, so its stamp can run ahead of a ticket that was journaled
	// but not yet published.  Claim one version less than the recovered
	// view, so the next checkpoint writes before it truncates a journal.
	if d.walReplayed.Load() > 0 {
		covered = min(covered, d.view.Load().version-1)
	}
	d.lmu.Lock()
	d.attachDurability(dir, cfg, covered, info.ModTime())
	d.lmu.Unlock()
	return d, nil
}

// replayShardJournals replays each shard's journal tail over its
// restored snapshot.  Records a shard snapshot already covers are
// skipped — a crash between "snapshot renamed" and "journal truncated"
// makes them legitimate leftovers — and the remainder must advance the
// shard's sequence gaplessly; anything else means the directory holds a
// journal from some other history, and loading it would serve wrong
// data.  The global version and ID counters advance to the maximum the
// records carry.
//
//racelint:publisher
func (d *Database) replayShardJournals(recs [][]store.Record, snaps []*store.Snapshot) error {
	globalVersion := d.view.Load().version
	nextID := d.nextID.Load()
	for s, sh := range d.shards {
		var err error
		st := d.view.Load().states[s]
		for _, rec := range recs[s] {
			if rec.Version <= snaps[s].Version {
				continue
			}
			cur := sh.p.Version()
			if rec.Version != cur+1 {
				return fmt.Errorf("racelogic: replaying shard %d journal: gap: record version %d after shard version %d",
					s, rec.Version, cur)
			}
			switch rec.Op {
			case store.OpInsert:
				if i, bad := d.cfg.checkEntries(rec.Entries); bad != nil {
					err = fmt.Errorf("inserted entry ID %d %w", rec.IDs[i], bad)
					break
				}
				st, err = sh.applyInsert(st, rec.IDs, rec.Entries)
				for _, id := range rec.IDs {
					if id >= nextID {
						nextID = id + 1
					}
				}
			case store.OpRemove:
				st, err = sh.applyRemove(st, rec.IDs)
			case store.OpCompact:
				var next *shardstate
				next, err = sh.applyCompact(st)
				if err == nil && next == st {
					err = fmt.Errorf("journaled compaction at shard version %d found nothing to reclaim", rec.Version)
				}
				st = next
			default:
				err = fmt.Errorf("unknown journal op %d", rec.Op)
			}
			if err != nil {
				return fmt.Errorf("racelogic: replaying shard %d journal: %w", s, err)
			}
			d.walReplayed.Add(1)
			if rec.Global > globalVersion {
				globalVersion = rec.Global
			}
		}
		d.publish([]int{s}, map[int]*shardstate{s: st}, 0)
	}
	// The published version counted per-shard publishes; restamp it with
	// the recovered global counter (the logical mutation count).
	v := d.view.Load()
	d.view.Store(&dbview{version: globalVersion, states: v.states})
	d.ticket.Store(globalVersion)
	d.nextID.Store(nextID)
	return nil
}

// closeShardJournals closes every open journal (the error-path cleanup
// during Open).
func (d *Database) closeShardJournals() {
	for _, sh := range d.shards {
		sh.mu.Lock()
		if sh.jrnl != nil {
			_ = sh.jrnl.Close()
			sh.jrnl = nil
		}
		sh.mu.Unlock()
	}
}

// reshard rewrites an opened directory under a new shard count: the
// fully recovered state is flattened back to global ID order,
// re-partitioned, and committed as the next layout generation (the
// recovered journals are already folded into the new snapshots).  The
// tombstones travel with it, so Version, Tombstones and every Index
// position survive the reshard.
func reshard(dir string, old *Database, cfg *config, shards, gen int) (*Database, error) {
	old.closeShardJournals()
	v := old.view.Load()
	entries, ids, dead := flatten(v)
	ncfg := *cfg
	ncfg.shards = shards
	d, err := assembleDatabase(&ncfg, entries, ids, dead, old.nextID.Load(), v.version)
	if err != nil {
		return nil, err
	}
	return commitLayout(dir, d, &ncfg, gen)
}

// flatten returns every resident slot of a view — entry, stable ID and
// tombstone flag — in global ID order.
func flatten(v *dbview) ([]string, []uint64, []bool) {
	type item struct {
		id    uint64
		entry string
		dead  bool
	}
	var all []item
	for _, st := range v.states {
		for slot, id := range st.ids {
			all = append(all, item{id: id, entry: st.snap.Entry(slot), dead: !st.snap.Live(slot)})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].id < all[b].id })
	entries := make([]string, len(all))
	ids := make([]uint64, len(all))
	dead := make([]bool, len(all))
	for i, it := range all {
		entries[i], ids[i], dead[i] = it.entry, it.id, it.dead
	}
	return entries, ids, dead
}

// cleanupStaleLayout removes shard files of every generation except
// keepGen — the leftovers of a committed reshard.  Best
// effort: a file that resists deletion is harmless, because only the
// manifest's generation is ever read.
func cleanupStaleLayout(dir string, keepGen int) {
	keep := fmt.Sprintf(".g%d.", keepGen)
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		return
	}
	for _, p := range paths {
		if !strings.Contains(filepath.Base(p), keep) {
			_ = os.Remove(p)
		}
	}
}

// commitLayout writes d's current state into dir as generation gen of
// the sharded layout — shard snapshots, then the manifest naming the
// generation (the commit point), then best-effort removal of every
// other generation's files.  Until the manifest lands the previous
// layout stays authoritative and complete, because no file of it is
// touched; after it, the new one is, and leftovers are ignored.  The
// returned database is attached and journaling.
func commitLayout(dir string, d *Database, cfg *config, gen int) (*Database, error) {
	d.gen = gen
	v := d.view.Load()
	if err := d.writeShardSnapshots(dir, v); err != nil {
		return nil, err
	}
	if err := store.WriteManifestFile(filepath.Join(dir, ManifestName), store.Manifest{Shards: len(d.shards), Gen: gen}); err != nil {
		return nil, err
	}
	cleanupStaleLayout(dir, gen)
	if _, err := d.openShardJournals(dir, true); err != nil {
		return nil, err
	}
	d.lmu.Lock()
	d.attachDurability(dir, cfg, v.version, time.Now())
	d.lmu.Unlock()
	return d, nil
}

// signalSnapshotter nudges the background snapshotter when enough
// mutations have accumulated since the last durable snapshot set, or
// when full reports that the mutation carried a shard's journal across
// another multiple of the byte cap — the trigger that holds even with
// the count and interval triggers disabled.
func (d *Database) signalSnapshotter(full bool) {
	d.lmu.Lock()
	every := d.snapEvery
	signal := d.snapSignal
	running := d.durable && !d.closed.Load()
	d.lmu.Unlock()
	if !running || signal == nil {
		return
	}
	if !full && (every <= 0 || d.view.Load().version-d.snapVersion.Load() < int64(every)) {
		return
	}
	select {
	case signal <- struct{}{}:
	default:
	}
}

// snapshotLoop is the background snapshotter: on a timer and on the
// mutation-count and journal-byte signals it folds the journals into
// fresh shard snapshots (capture, save, truncate); on the compaction
// policy's Interval it compacts.  The file writes happen off every
// lock — mutations and searches proceed — by capturing one immutable
// view.
func (d *Database) snapshotLoop() {
	defer close(d.loopDone)
	var snapTick, compactTick <-chan time.Time
	if d.snapInterval > 0 {
		t := time.NewTicker(d.snapInterval)
		defer t.Stop()
		snapTick = t.C
	}
	if p := d.policy(); p.Interval > 0 {
		t := time.NewTicker(p.Interval)
		defer t.Stop()
		compactTick = t.C
	}
	for {
		select {
		case <-d.stopSnap:
			return
		case <-compactTick:
			// Close fences compactions off before it stops the loop; a
			// tick that loses that race is not a failure.
			if _, err := d.compactAll(false); err != nil && !errors.Is(err, ErrClosed) {
				d.snapFailures.Add(1)
			}
			continue
		case <-snapTick:
		case <-d.snapSignal:
		}
		// The internal checkpoint: the loop is stopped before the
		// journals close, so skipping the public closed guard is safe and
		// avoids counting a shutdown-race tick as a failure.
		if err := d.checkpoint(); err != nil {
			d.snapFailures.Add(1)
		}
	}
}

// Checkpoint folds the journals into a fresh durable snapshot set now:
// capture the published view, serialize every shard's state to its
// snapshot file slot for slot, tombstones included (atomic
// temp+rename), and truncate the write-ahead logs the set covers.  A
// checkpoint never compacts, so it changes neither Version nor any
// Index position; only the CompactionPolicy and Compact reclaim
// tombstones.  The capture is one atomic load, so mutations block only
// while each shard's journal is truncated, and a journal is truncated
// only when no mutation landed on its shard mid-write (records a
// snapshot covers are skipped at replay anyway, so a skipped truncation
// is never a correctness problem).  On a memory-only database
// Checkpoint is a no-op; on a closed one it returns ErrClosed.
func (d *Database) Checkpoint() error {
	if d.closed.Load() {
		return ErrClosed
	}
	return d.checkpoint()
}

// checkpoint is Checkpoint without the closed guard — Close's final
// save runs through here after closing the database to new mutations.
func (d *Database) checkpoint() error {
	d.saveMu.Lock()
	defer d.saveMu.Unlock()

	d.lmu.Lock()
	durable := d.durable
	dir := d.dir
	d.lmu.Unlock()
	if !durable {
		return nil
	}

	begin := time.Now()
	v := d.view.Load()
	if v.version == d.snapVersion.Load() {
		// Nothing new since the last snapshot set.  Covered records can
		// still be sitting in the journals — a crash that landed between
		// "snapshot renamed" and "journal truncated" leaves them — so
		// fold them away now: wal_records must report what a restart
		// would actually replay.
		return d.truncateCoveredJournals(v)
	}
	if err := d.writeShardSnapshots(dir, v); err != nil {
		return err
	}
	d.snapVersion.Store(v.version)
	d.lastSnap.Store(time.Now().UnixNano())
	d.snapSaves.Add(1)
	err := d.truncateCoveredJournals(v)
	d.metrics.checkpoint.Observe(time.Since(begin).Seconds())
	return err
}

// truncateCoveredJournals resets each shard's journal if no mutation
// has landed on the shard since the given view was captured (its
// records are all covered by the newest snapshot set).
func (d *Database) truncateCoveredJournals(v *dbview) error {
	var firstErr error
	for s, sh := range d.shards {
		sh.mu.Lock()
		if sh.jrnl != nil && sh.p.Version() == v.states[s].snap.Version() && sh.jrnl.Records() > 0 {
			if err := sh.jrnl.Reset(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// Close shuts a durable database down cleanly: it stops the background
// snapshotter, takes a final checkpoint — which, like every checkpoint,
// captures tombstones rather than compacting them — and closes the
// journals.
// Mutations after Close fail; searches keep working against the final
// view.  On a memory-only database Close is a no-op.  Close is
// idempotent.
func (d *Database) Close() error {
	d.lmu.Lock()
	if d.closed.Load() {
		d.lmu.Unlock()
		return nil
	}
	d.closed.Store(true)
	durable := d.durable
	stop, done := d.stopSnap, d.loopDone
	d.lmu.Unlock()

	// Barrier: in-flight mutations checked the closed flag before taking
	// their shard locks; draining every lock guarantees their journal
	// appends land before the journals close.
	d.lockShards(d.allShards())()

	if !durable {
		return nil
	}
	close(stop)
	<-done
	err := d.checkpoint()
	for _, sh := range d.shards {
		sh.mu.Lock()
		if sh.jrnl != nil {
			if cerr := sh.jrnl.Close(); err == nil {
				err = cerr
			}
		}
		sh.mu.Unlock()
	}
	return err
}

// Durable reports whether mutations are journaled to a directory
// (Persist/Open) rather than held only in memory.  A closed database
// is no longer durable: nothing journals anymore.
func (d *Database) Durable() bool {
	d.lmu.Lock()
	defer d.lmu.Unlock()
	return d.durable && !d.closed.Load()
}

// WALRecords returns the number of records in the shard journals,
// summed over every shard: the records a restart reads after loading
// the snapshots.  A checkpoint truncates a shard's journal only when no
// mutation landed on the shard while it wrote, so the count can include
// records the newest snapshots already cover.  0 on a memory-only
// database.
func (d *Database) WALRecords() int64 {
	total := int64(0)
	for _, sh := range d.shards {
		sh.mu.Lock()
		if sh.jrnl != nil {
			total += sh.jrnl.Records()
		}
		sh.mu.Unlock()
	}
	return total
}

// WALBytes returns the byte size of the shard journals, one file per
// shard, summed over every shard; 0 on a memory-only database.
func (d *Database) WALBytes() int64 {
	total := int64(0)
	for _, sh := range d.shards {
		sh.mu.Lock()
		if sh.jrnl != nil {
			total += sh.jrnl.Size()
		}
		sh.mu.Unlock()
	}
	return total
}

// Compactions returns the number of dense rebuilds over the database's
// lifetime in this process — automatic (CompactionPolicy) and manual
// (Compact); checkpoints never compact.
func (d *Database) Compactions() int64 { return d.compactions.Load() }

// Snapshots returns the number of durable snapshot-set saves by the
// background snapshotter, Checkpoint, and Close.
func (d *Database) Snapshots() int64 { return d.snapSaves.Load() }

// SnapshotFailures returns the number of background snapshot or
// compaction attempts that errored (each will be retried on the next
// trigger).
func (d *Database) SnapshotFailures() int64 { return d.snapFailures.Load() }

// SnapshotAge returns the time since the newest durable snapshot set,
// or -1 on a memory-only database.
func (d *Database) SnapshotAge() time.Duration {
	if !d.Durable() {
		return -1
	}
	return time.Since(time.Unix(0, d.lastSnap.Load()))
}

// ShardStat is one shard's gauge set, as surfaced by /stats.
type ShardStat struct {
	// Shard is the partition number.
	Shard int `json:"shard"`
	// Entries and Tombstones count the shard's live and removed-but-
	// uncompacted slots.
	Entries    int `json:"entries"`
	Tombstones int `json:"tombstones"`
	// WALRecords and WALBytes measure the shard's journal, one file.
	// Zero on a memory-only database.
	WALRecords int64 `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// SnapshotAgeSeconds is the age of the shard's newest durable
	// snapshot file, -1 when not durable.
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
}

// ShardStats returns per-shard gauges, one entry per partition.
func (d *Database) ShardStats() []ShardStat {
	return d.shardStatsAt(d.view.Load())
}

// shardStatsAt computes the per-shard gauges against one already-loaded
// view, so Database.Stats can report shard rows consistent with the
// global numbers it took from the same view.
func (d *Database) shardStatsAt(v *dbview) []ShardStat {
	durable := d.Durable()
	out := make([]ShardStat, len(d.shards))
	for s, sh := range d.shards {
		st := v.states[s]
		stat := ShardStat{
			Shard:              s,
			Entries:            st.snap.Len(),
			Tombstones:         st.snap.Dead(),
			SnapshotAgeSeconds: -1,
		}
		sh.mu.Lock()
		if sh.jrnl != nil {
			stat.WALRecords = sh.jrnl.Records()
			stat.WALBytes = sh.jrnl.Size()
		}
		sh.mu.Unlock()
		if durable {
			stat.SnapshotAgeSeconds = time.Since(time.Unix(0, sh.lastSnap.Load())).Seconds()
		}
		out[s] = stat
	}
	return out
}
