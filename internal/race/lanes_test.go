package race

import (
	"fmt"
	"testing"

	"racelogic/internal/seqgen"
)

// TestAlignLanesMultiAllocs bounds what one lane pack allocates: the lane
// mask, the symbol slabs, and one backing array plus one pointer slice
// for the results, however many lanes the pack fills.  Accounting and
// energy reports add nothing per lane.
func TestAlignLanesMultiAllocs(t *testing.T) {
	const maxAllocs = 8
	gen := seqgen.NewDNA(3)
	for _, width := range []int{64, 256} {
		for _, fill := range []int{1, width / 2, width} {
			t.Run(fmt.Sprintf("width%d/fill%d", width, fill), func(t *testing.T) {
				a, err := NewArray(24, 24)
				if err != nil {
					t.Fatal(err)
				}
				a.SetBackend(BackendLanes)
				if err := a.SetLaneWidth(width); err != nil {
					t.Fatal(err)
				}
				ps := make([]string, fill)
				qs := make([]string, fill)
				for i := range qs {
					ps[i] = gen.Random(24)
					qs[i] = gen.Random(24)
				}
				var packErr error
				allocs := testing.AllocsPerRun(5, func() {
					if _, err := a.AlignLanesMulti(ps, qs, -1); err != nil {
						packErr = err
					}
				})
				if packErr != nil {
					t.Fatal(packErr)
				}
				if allocs > maxAllocs {
					t.Errorf("AlignLanesMulti allocates %.0f times per %d-lane pack at width %d, want at most %d", allocs, fill, width, maxAllocs)
				}
			})
		}
	}
}

// BenchmarkAlignLanesMulti races 24×24 DNA lane packs of the three shapes
// the loadbench workloads send: a partial 64-lane pack of one query's
// 36 seed candidates (mixed-durable), a full 64-lane pack of four
// queries, and a full 256-lane pack of 16 queries times 16 entries
// (batch-lanes).  Every lane races to the end, as a full scan does.
func BenchmarkAlignLanesMulti(b *testing.B) {
	for _, tc := range []struct{ width, fill, queries int }{
		{64, 36, 1},
		{64, 64, 4},
		{256, 256, 16},
	} {
		b.Run(fmt.Sprintf("24x24/%dof%d", tc.fill, tc.width), func(b *testing.B) {
			a, err := NewArray(24, 24)
			if err != nil {
				b.Fatal(err)
			}
			a.SetBackend(BackendLanes)
			if err := a.SetLaneWidth(tc.width); err != nil {
				b.Fatal(err)
			}
			gen := seqgen.NewDNA(7)
			queries := make([]string, tc.queries)
			for i := range queries {
				queries[i] = gen.Random(24)
			}
			ps := make([]string, tc.fill)
			qs := make([]string, tc.fill)
			for k := range qs {
				ps[k] = queries[k*tc.queries/tc.fill]
				qs[k] = gen.Random(24)
			}
			// The first pack compiles the engine; time only warm packs.
			if _, err := a.AlignLanesMulti(ps, qs, -1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.AlignLanesMulti(ps, qs, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
