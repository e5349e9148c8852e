package racelogic

// Shard-scaling benchmarks: BenchmarkSearchShards shows scatter-gather
// search holding its throughput across partition counts (the shared
// worker pool and engine pools keep the work identical), and
// BenchmarkInsertShards shows concurrent insert throughput scaling with
// shards — the per-shard locks and O(shard) postings copies are the
// whole point of the partitioning.  CI runs both as 1x smoke; run
// locally with -bench 'Shards' -benchtime for real numbers.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"racelogic/internal/seqgen"
)

// benchShardCounts sweeps the partition axis; 8-vs-1 is the headline
// concurrent-insert ratio.
var benchShardCounts = []int{1, 2, 4, 8}

// BenchmarkSearchShards races one warm seeded query per iteration at
// each shard count.  The database's memo stores nothing, so every
// repeat races its candidates again.
func BenchmarkSearchShards(b *testing.B) {
	g := seqgen.NewDNA(211)
	entries := g.Database(1500, 12)
	query := g.Random(12)
	for _, n := range benchShardCounts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			db, err := NewDatabase(entries, WithSeedIndex(6), WithShards(n))
			if err != nil {
				b.Fatal(err)
			}
			db.memo = newOutcomeMemo(0)
			if _, err := db.Search(query); err != nil { // warm the pools
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Search(query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInsertShards hammers concurrent single-entry inserts into a
// database with a sizable seed index.  Compare shards=8 against
// shards=1 on a multicore runner: writers on different shards take
// different write locks.
func BenchmarkInsertShards(b *testing.B) {
	g := seqgen.NewDNA(223)
	seed := g.Database(4000, 12)
	// A pre-generated entry pool keeps the RNG out of the hot loop.
	pool := make([]string, 1<<12)
	for i := range pool {
		pool[i] = g.Random(12)
	}
	for _, n := range benchShardCounts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			db, err := NewDatabase(seed, WithSeedIndex(6), WithShards(n))
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					e := pool[next.Add(1)%uint64(len(pool))]
					if _, err := db.Insert(e); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
