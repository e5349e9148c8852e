package racelogic

import (
	"racelogic/internal/store"
	"racelogic/internal/tech"
)

// storeOptions is the construction fingerprint serialized with every
// shard snapshot.  The shard count is deliberately not part of it:
// partitioning never changes a report, so a directory may reopen under
// any count.
func (d *Database) storeOptions() store.Options {
	return store.Options{
		Library:    d.cfg.library.Name,
		Matrix:     d.cfg.matrix,
		GateRegion: d.cfg.gateRegion,
		OneHot:     d.cfg.oneHot,
		SeedK:      d.cfg.seedK,
		Threshold:  d.cfg.threshold,
		TopK:       d.cfg.topK,
		Workers:    d.cfg.workers,
	}
}

// configFromStoreOptions rebuilds the construction configuration from a
// shard snapshot's options fingerprint.
func configFromStoreOptions(o store.Options) (*config, error) {
	lib, err := tech.ByName(o.Library)
	if err != nil {
		return nil, err
	}
	return &config{
		library:      lib,
		matrix:       o.Matrix,
		gateRegion:   o.GateRegion,
		oneHot:       o.OneHot,
		seedK:        o.SeedK,
		threshold:    o.Threshold,
		topK:         o.TopK,
		workers:      o.Workers,
		compaction:   DefaultCompactionPolicy,
		snapInterval: DefaultSnapshotInterval,
		snapEvery:    DefaultSnapshotEvery,
		segBytes:     DefaultWALSegmentBytes,
	}, nil
}
