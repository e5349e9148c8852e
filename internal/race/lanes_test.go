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
