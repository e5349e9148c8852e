package racelogic

import (
	"fmt"
	"runtime"
	"time"

	"racelogic/internal/obs"
	"racelogic/internal/store"
)

// dbMetrics is the database's instrument set: the hot-path histograms
// and counters searches and journal appends feed directly, over a
// registry that also reads the existing lifetime atomics at scrape
// time.  Everything carries the backend label where the cycle and
// lanes engines are worth comparing side by side.
type dbMetrics struct {
	reg *obs.Registry

	searchLatency *obs.Histogram
	searchCycles  *obs.Histogram
	searchEnergy  *obs.Histogram
	batchLatency  *obs.Histogram
	batchQueries  *obs.Histogram
	checkoutWait  *obs.Histogram
	laneFill      *obs.Histogram
	walAppend     *obs.Histogram
	walFsync      *obs.Histogram
	checkpoint    *obs.Histogram

	scanned  *obs.Counter
	memoized *obs.Counter
	skipped  *obs.Counter
	rejected *obs.Counter
}

// initObs builds the registry and threads the observers into the hot
// layers: the engine pools' checkout observer, the shard journals'
// append/fsync timings (installed when the journals open), and the
// seed index's lookup counters (one Stats sink shared by every shard's
// index lineage).  Called once from assembleShards, before the
// database is shared.
func (d *Database) initObs() {
	r := obs.NewRegistry()
	backend := obs.Label{Name: "backend", Value: d.cfg.backend.String()}
	m := &dbMetrics{reg: r}

	m.searchLatency = r.Histogram("racelogic_search_latency_seconds",
		"Wall-clock per Database.Search call.",
		obs.ExpBuckets(0.0001, 2, 18), backend)
	m.searchCycles = r.Histogram("racelogic_search_cycles",
		"Race-logic cycles summed over one search's races.",
		obs.ExpBuckets(1, 4, 14), backend)
	m.searchEnergy = r.Histogram("racelogic_search_energy_joules",
		"Dynamic energy summed over one search's races.",
		obs.ExpBuckets(1e-12, 10, 14), backend)
	batchMode := obs.Label{Name: "mode", Value: "batch"}
	m.batchLatency = r.Histogram("racelogic_search_batch_latency_seconds",
		"Wall-clock per Database.SearchBatch call, whole batch.",
		obs.ExpBuckets(0.0001, 2, 18), backend, batchMode)
	m.batchQueries = r.Histogram("racelogic_search_batch_queries",
		"Queries coalesced per Database.SearchBatch call.",
		obs.ExpBuckets(1, 2, 10), backend, batchMode)
	m.checkoutWait = r.Histogram("racelogic_engine_checkout_wait_seconds",
		"Wall-clock a worker spent acquiring (or compiling) an engine.",
		obs.ExpBuckets(1e-7, 4, 14))
	m.laneFill = r.Histogram("racelogic_lane_fill_ratio",
		"Candidates per lane pack over the engine's lane width (lanes backend).",
		[]float64{0.015625, 0.03125, 0.0625, 0.125, 0.25, 0.5, 0.75, 0.875, 1}, backend)
	m.walAppend = r.Histogram("racelogic_wal_append_seconds",
		"Wall-clock per write-ahead-log record append.",
		obs.ExpBuckets(1e-6, 4, 12))
	m.walFsync = r.Histogram("racelogic_wal_fsync_seconds",
		"Wall-clock per group-commit fsync (the leader's).",
		obs.ExpBuckets(1e-5, 4, 12))
	m.checkpoint = r.Histogram("racelogic_checkpoint_seconds",
		"Wall-clock per checkpoint that writes a snapshot set, view capture through journal truncation.",
		obs.ExpBuckets(1e-4, 4, 12))

	m.scanned = r.Counter("racelogic_search_entries_scanned_total",
		"Database entries scored across all searches; a query a batch repeats counts once.", backend)
	m.memoized = r.Counter("racelogic_search_entries_memoized_total",
		"Scored entries whose outcome the outcome memo served instead of a race; a query a batch repeats counts once.", backend)
	m.skipped = r.Counter("racelogic_search_entries_skipped_total",
		"Entries the seed index let searches skip; a query a batch repeats counts once.", backend)
	m.rejected = r.Counter("racelogic_search_entries_rejected_total",
		"Entries abandoned by the similarity-threshold pre-filter; a query a batch repeats counts once.", backend)

	r.CounterFunc("racelogic_searches_total",
		"Search calls served.",
		func() float64 { return float64(d.searches.Load()) }, backend)
	r.CounterFunc("racelogic_compactions_total",
		"Dense rebuilds (automatic and manual).",
		func() float64 { return float64(d.compactions.Load()) })
	r.CounterFunc("racelogic_snapshot_saves_total",
		"Durable snapshot-set saves.",
		func() float64 { return float64(d.snapSaves.Load()) })
	r.CounterFunc("racelogic_snapshot_failures_total",
		"Background snapshot or compaction attempts that errored.",
		func() float64 { return float64(d.snapFailures.Load()) })
	r.CounterFunc("racelogic_engines_built_total",
		"Arrays compiled over the database's lifetime.",
		func() float64 { return float64(d.pools.EnginesBuilt()) })
	r.CounterFunc("racelogic_wal_replayed_records_total",
		"Journal records replayed over snapshots at open.",
		func() float64 { return float64(d.walReplayed.Load()) })
	r.CounterFunc("racelogic_wal_group_syncs_total",
		"Fsyncs issued on the group-commit path, across shards.",
		func() float64 {
			total := int64(0)
			for _, sh := range d.shards {
				sh.mu.Lock()
				if sh.jrnl != nil {
					total += sh.jrnl.Syncs()
				}
				sh.mu.Unlock()
			}
			return float64(total)
		})
	r.CounterFunc("racelogic_seed_lookups_total",
		"Seed-index candidate lookups.",
		func() float64 { return float64(d.idxStats.Lookups.Load()) })
	r.CounterFunc("racelogic_seed_candidates_total",
		"Candidate slots those lookups returned.",
		func() float64 { return float64(d.idxStats.Candidates.Load()) })
	r.CounterFunc("racelogic_seed_full_cover_lookups_total",
		"Lookups that could not rule anything out (query shorter than k).",
		func() float64 { return float64(d.idxStats.FullCover.Load()) })

	r.GaugeFunc("racelogic_entries",
		"Live database entries.",
		func() float64 { return float64(d.view.Load().live()) })
	r.GaugeFunc("racelogic_tombstones",
		"Removed-but-uncompacted slots.",
		func() float64 { return float64(d.view.Load().dead()) })
	r.GaugeFunc("racelogic_version",
		"Mutation counter of the published view.",
		func() float64 { return float64(d.view.Load().version) })
	r.GaugeFunc("racelogic_memo_queries",
		"Queries whose race outcomes the outcome memo holds.",
		func() float64 { q, _ := d.memo.size(); return float64(q) })
	r.GaugeFunc("racelogic_memo_outcomes",
		"Race outcomes the outcome memo holds across its queries.",
		func() float64 { _, o := d.memo.size(); return float64(o) })
	r.GaugeFunc("racelogic_pooled_engines",
		"Idle compiled engines parked in the shape pools.",
		func() float64 { return float64(d.pools.PooledEngines()) })
	r.GaugeFunc("racelogic_wal_records",
		"Records in the shard journals, read by a restart after the snapshots.",
		func() float64 { return float64(d.WALRecords()) })
	r.GaugeFunc("racelogic_wal_bytes",
		"Journal bytes across every shard's journal file.",
		func() float64 { return float64(d.WALBytes()) })
	r.GaugeFunc("racelogic_snapshot_age_seconds",
		"Age of the newest durable snapshot set; -1 when memory-only.",
		func() float64 { return d.SnapshotAge().Seconds() })

	for s := range d.shards {
		s := s
		shardLabel := obs.Label{Name: "shard", Value: fmt.Sprintf("%d", s)}
		r.GaugeFunc("racelogic_shard_entries",
			"Live entries per partition.",
			func() float64 { return float64(d.view.Load().states[s].snap.Len()) }, shardLabel)
		r.GaugeFunc("racelogic_shard_tombstones",
			"Tombstoned slots per partition.",
			func() float64 { return float64(d.view.Load().states[s].snap.Dead()) }, shardLabel)
		r.GaugeFunc("racelogic_shard_wal_records",
			"Journal-tail records per partition.",
			func() float64 {
				sh := d.shards[s]
				sh.mu.Lock()
				defer sh.mu.Unlock()
				if sh.jrnl == nil {
					return 0
				}
				return float64(sh.jrnl.Records())
			}, shardLabel)
	}

	laneWidth := d.cfg.laneWidth
	if laneWidth == 0 {
		laneWidth = 64
	}
	r.Gauge("racelogic_build_info",
		"Constant 1; the labels carry the build identity.",
		obs.Label{Name: "go_version", Value: runtime.Version()},
		backend,
		obs.Label{Name: "lane_width", Value: fmt.Sprintf("%d", laneWidth)},
		obs.Label{Name: "shards", Value: fmt.Sprintf("%d", len(d.shards))},
	).Set(1)

	d.metrics = m
	d.pools.SetCheckoutObserver(func(wait time.Duration, built bool) {
		m.checkoutWait.Observe(wait.Seconds())
	})
	d.pools.SetLaneObserver(func(filled, width int) {
		m.laneFill.Observe(float64(filled) / float64(width))
	})
}

// walTimings is the observer set each shard journal runs under.
func (d *Database) walTimings() store.Timings {
	return store.Timings{
		Append: d.metrics.walAppend.Observe,
		Sync:   d.metrics.walFsync.Observe,
	}
}

// observeSearch feeds one finished search into the histograms and scan
// counters.
func (m *dbMetrics) observeSearch(elapsed time.Duration, rep *SearchReport) {
	m.searchLatency.Observe(elapsed.Seconds())
	m.searchCycles.Observe(float64(rep.TotalCycles))
	m.searchEnergy.Observe(rep.TotalEnergyJ)
	m.scanned.Add(float64(rep.Scanned))
	m.skipped.Add(float64(rep.Skipped))
	m.rejected.Add(float64(rep.Rejected))
}

// observeSearchBatch feeds one finished multi-query batch: whole-batch
// wall clock and size under the batch-labeled series, plus each query's
// cycles and energy into the same per-query histograms sequential
// searches feed, so corpus-wide rates stay comparable across modes.
// The entry counters count each distinct query once, as the memoized
// counter does: a repeated query is raced once, so scanned − memoized
// stays the number of entries raced.
func (m *dbMetrics) observeSearchBatch(elapsed time.Duration, reps []*SearchReport) {
	m.batchLatency.Observe(elapsed.Seconds())
	m.batchQueries.Observe(float64(len(reps)))
	counted := make(map[string]bool, len(reps))
	for _, rep := range reps {
		m.searchCycles.Observe(float64(rep.TotalCycles))
		m.searchEnergy.Observe(rep.TotalEnergyJ)
		if counted[rep.Query] {
			continue
		}
		counted[rep.Query] = true
		m.scanned.Add(float64(rep.Scanned))
		m.skipped.Add(float64(rep.Skipped))
		m.rejected.Add(float64(rep.Rejected))
	}
}

// Metrics returns the database's metric registry, ready to serve under
// obs.Handler alongside any caller-side registries.
func (d *Database) Metrics() *obs.Registry { return d.metrics.reg }

// DatabaseStats is one consistent cut of the database's gauges: every
// field is computed from a single atomically loaded view, so Entries,
// Version, Tombstones, Buckets, and the per-shard rows always describe
// the same instant even under concurrent mutation.
type DatabaseStats struct {
	Entries    int
	Version    int64
	Tombstones int
	Buckets    int
	Shards     []ShardStat
	// MemoQueries and MemoOutcomes size the outcome memo: the queries it
	// holds and their race outcomes (read beside the view, not from it).
	MemoQueries  int
	MemoOutcomes int
}

// Stats captures one consistent view of the database's gauges.  Use it
// instead of calling Len/Version/Tombstones separately when the
// numbers must agree with each other (the /stats endpoint).
func (d *Database) Stats() DatabaseStats {
	v := d.view.Load()
	memoQueries, memoOutcomes := d.memo.size()
	return DatabaseStats{
		Entries:      v.live(),
		Version:      v.version,
		Tombstones:   v.dead(),
		Buckets:      v.buckets(),
		Shards:       d.shardStatsAt(v),
		MemoQueries:  memoQueries,
		MemoOutcomes: memoOutcomes,
	}
}
