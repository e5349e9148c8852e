package racelogic_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"racelogic"
	"racelogic/internal/seqgen"
)

// BenchmarkOpen times Open of a crash image of the mixed-durable shape:
// 20 000 length-24 DNA entries in two shards with a k = 8 seed index,
// persisted, then left running with either no journal tail or a
// 200-record one of two inserts per remove.  Each iteration opens a
// fresh copy of the image; the copy and the Close after it are not
// timed.
func BenchmarkOpen(b *testing.B) {
	for _, tail := range []int{0, 200} {
		b.Run(fmt.Sprintf("tail=%d", tail), func(b *testing.B) {
			g := seqgen.NewDNA(71)
			db, err := racelogic.NewDatabase(g.Database(20000, 24), racelogic.WithShards(2), racelogic.WithSeedIndex(8))
			if err != nil {
				b.Fatal(err)
			}
			image := b.TempDir()
			idle := []racelogic.Option{racelogic.WithSnapshotInterval(0), racelogic.WithSnapshotEvery(0)}
			if err := db.Persist(image, idle...); err != nil {
				b.Fatal(err)
			}
			for r := 0; r < tail; r++ {
				if r%3 == 2 {
					err = db.Remove(uint64(r))
				} else {
					_, err = db.Insert(g.Random(24))
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if n := db.WALRecords(); n != int64(tail) {
				b.Fatalf("image journals %d records, want %d", n, tail)
			}
			files, err := os.ReadDir(image)
			if err != nil {
				b.Fatal(err)
			}
			raw := make(map[string][]byte, len(files))
			for _, f := range files {
				if raw[f.Name()], err = os.ReadFile(filepath.Join(image, f.Name())); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(b.TempDir(), "db")
				if err := os.Mkdir(dir, 0o755); err != nil {
					b.Fatal(err)
				}
				for name, data := range raw {
					if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				back, err := racelogic.Open(dir, idle...)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if back.WALRecords() != int64(tail) {
					b.Fatalf("recovered %d journal records, want %d", back.WALRecords(), tail)
				}
				if err := back.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			if err := db.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
