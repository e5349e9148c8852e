package race

import (
	"fmt"
	"testing"

	"racelogic/internal/circuit/lanes"
	"racelogic/internal/score"
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

// TestLanePackSymbolLoad pins how each fabric's packs load their
// symbols: the plain and clock-gated arrays through the tabulated plan,
// the generalized array pin by pin.  Both loads are exact, so a fabric
// falling back to the pin-by-pin load would pass every equivalence test
// and only run slower.
func TestLanePackSymbolLoad(t *testing.T) {
	prepared, err := score.BLOSUM62().PrepareForRace()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewArray(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := NewGatedArray(4, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	general, err := NewGeneralArray(4, 5, prepared, BinaryCounter)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		a       *Array
		p, q    string
		tabular bool
	}{
		{"plain", plain, "ACGT", "ACGTA", true},
		{"gated", gated.Array, "ACGT", "ACGTA", true},
		{"general", general.Array, "WARD", "WARDS", false},
	} {
		c.a.SetBackend(BackendLanes)
		if _, err := c.a.AlignLanes(c.p, []string{c.q, c.q}, -1); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := c.a.symbols != nil; !c.a.planned || got != c.tabular {
			t.Errorf("%s: planned %v, tabulated load %v, want tabulated %v", c.name, c.a.planned, got, c.tabular)
		}
	}
}

// BenchmarkAlignLanesMulti races lane packs through every fabric: 24×24
// DNA packs of the shapes the loadbench workloads send — a one-lane
// pack, a partial 64-lane pack of one query's 36 seed candidates
// (mixed-durable), a full 64-lane pack of four queries, and a full
// 256-lane pack of 16 queries times 16 entries (batch-lanes) — plus a
// full 64-lane pack of four queries on a 24×24 array clock-gated in 4×4
// regions and on a 12×12 generalized BLOSUM62 array, whose packs load
// symbols pin by pin.  The 24x24-cycle case races the same pair as the
// one-lane pack alone on the cycle reference.  Every lane races to the
// end, as a full scan does.  The lanes cases report
// the kernel's work counters per pack (lanes.WorkCounters) and the
// nanoseconds per net commit.
func BenchmarkAlignLanesMulti(b *testing.B) {
	prepared, err := score.BLOSUM62().PrepareForRace()
	if err != nil {
		b.Fatal(err)
	}
	gated := func(n, m int) (*Array, error) {
		g, err := NewGatedArray(n, m, 4)
		if err != nil {
			return nil, err
		}
		return g.Array, nil
	}
	blosum := func(n, m int) (*Array, error) {
		g, err := NewGeneralArray(n, m, prepared, BinaryCounter)
		if err != nil {
			return nil, err
		}
		return g.Array, nil
	}
	for _, tc := range []struct {
		name                string
		build               func(n, m int) (*Array, error)
		gen                 *seqgen.Generator
		backend             Backend
		n, width, fill, nqs int
	}{
		{"24x24", NewArray, seqgen.NewDNA(7), BackendLanes, 24, 64, 1, 1},
		{"24x24", NewArray, seqgen.NewDNA(7), BackendLanes, 24, 64, 36, 1},
		{"24x24", NewArray, seqgen.NewDNA(7), BackendLanes, 24, 64, 64, 4},
		{"24x24", NewArray, seqgen.NewDNA(7), BackendLanes, 24, 256, 256, 16},
		{"24x24-gated4", gated, seqgen.NewDNA(7), BackendLanes, 24, 64, 64, 4},
		{"12x12-blosum62", blosum, seqgen.NewProtein(7), BackendLanes, 12, 64, 64, 4},
		{"24x24-cycle", NewArray, seqgen.NewDNA(7), BackendCycle, 24, 1, 1, 1},
	} {
		b.Run(fmt.Sprintf("%s/%dof%d", tc.name, tc.fill, tc.width), func(b *testing.B) {
			a, err := tc.build(tc.n, tc.n)
			if err != nil {
				b.Fatal(err)
			}
			a.SetBackend(tc.backend)
			if tc.backend == BackendLanes {
				if err := a.SetLaneWidth(tc.width); err != nil {
					b.Fatal(err)
				}
			}
			queries := make([]string, tc.nqs)
			for i := range queries {
				queries[i] = tc.gen.Random(tc.n)
			}
			ps := make([]string, tc.fill)
			qs := make([]string, tc.fill)
			for k := range qs {
				ps[k] = queries[k*tc.nqs/tc.fill]
				qs[k] = tc.gen.Random(tc.n)
			}
			// The first pack compiles the engine; time only warm packs.
			if _, err := a.AlignLanesMulti(ps, qs, -1); err != nil {
				b.Fatal(err)
			}
			ls, _ := a.sim.(*lanes.Sim)
			var before lanes.WorkCounters
			if ls != nil {
				before = ls.Counters()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.AlignLanesMulti(ps, qs, -1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if ls != nil {
				reportWork(b, before, ls.Counters())
			}
		})
	}
}

// reportWork reports the kernel work of the timed packs, per pack, and
// the wall time per net commit.
func reportWork(b *testing.B, before, after lanes.WorkCounters) {
	per := func(x, y uint64) float64 { return float64(y-x) / float64(b.N) }
	b.ReportMetric(per(before.Edges, after.Edges), "edges/op")
	b.ReportMetric(per(before.SlotsExamined, after.SlotsExamined), "examined/op")
	b.ReportMetric(per(before.SlotsFlipped, after.SlotsFlipped), "flipped/op")
	b.ReportMetric(per(before.Commits, after.Commits), "commits/op")
	b.ReportMetric(per(before.Words, after.Words), "words/op")
	b.ReportMetric(per(before.Evals, after.Evals), "evals/op")
	b.ReportMetric(per(before.Rises, after.Rises), "rises/op")
	if commits := after.Commits - before.Commits; commits > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(commits), "ns/commit")
	}
}
