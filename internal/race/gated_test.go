package race

import (
	"reflect"
	"strings"
	"testing"

	"racelogic/internal/seqgen"
)

func TestGatedArrayIdenticalArrivals(t *testing.T) {
	// Gating must be functionally invisible: every cell's arrival time
	// equals the ungated array's, for best, worst and random cases and
	// several granularities.
	n := 12
	g := seqgen.NewDNA(21)
	cases := [][2]string{}
	{
		p, q := g.BestCase(n)
		cases = append(cases, [2]string{p, q})
		p, q = g.WorstCase(n)
		cases = append(cases, [2]string{p, q})
		p, q = g.RandomPair(n)
		cases = append(cases, [2]string{p, q})
	}
	ref, err := NewArray(n, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 2, 4, 8, 16} {
		ga, err := NewGatedArray(n, n, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			want, err := ref.Align(c[0], c[1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := ga.Align(c[0], c[1])
			if err != nil {
				t.Fatal(err)
			}
			if got.Score != want.Score {
				t.Fatalf("m=%d %q/%q: gated score %v != ungated %v", m, c[0], c[1], got.Score, want.Score)
			}
			for i := range want.Arrivals {
				for j := range want.Arrivals[i] {
					if got.Arrivals[i][j] != want.Arrivals[i][j] {
						t.Fatalf("m=%d cell (%d,%d): gated %v != ungated %v",
							m, i, j, got.Arrivals[i][j], want.Arrivals[i][j])
					}
				}
			}
		}
	}
}

func TestGatedArrayReducesClockActivity(t *testing.T) {
	// The whole point of Section 4.3: the gated fabric clocks each
	// region only during its active window, so FF-clocked-cycles must
	// drop well below the ungated FFs × cycles.
	n := 16
	g := seqgen.NewDNA(22)
	p, q := g.WorstCase(n)
	ref, err := NewArray(n, n)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := ref.Align(p, q)
	if err != nil {
		t.Fatal(err)
	}
	ungated := rw.Activity.FFClockedCycles
	ga, err := NewGatedArray(n, n, 4)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := ga.Align(p, q)
	if err != nil {
		t.Fatal(err)
	}
	gated := rg.Activity.FFClockedCycles
	if gated >= ungated {
		t.Fatalf("gated clock activity %d >= ungated %d", gated, ungated)
	}
	// For m=4 on N=16 each region should be active roughly 2m+O(1) of
	// the 2N cycles: expect at least a 2× reduction.
	if float64(ungated)/float64(gated) < 2 {
		t.Errorf("gating saved only %d→%d FF-cycles; expected ≥ 2×", ungated, gated)
	}
}

func TestGatedGranularityUCurve(t *testing.T) {
	// Eq. 6: very fine regions pay gate overhead, very coarse regions
	// clock idle cells — the measured active window per region must grow
	// with m while the region count shrinks.
	n := 16
	g := seqgen.NewDNA(23)
	p, q := g.WorstCase(n)
	var prevRegions int
	for idx, m := range []int{2, 4, 8} {
		ga, err := NewGatedArray(n, n, m)
		if err != nil {
			t.Fatal(err)
		}
		if idx > 0 && ga.Regions() >= prevRegions {
			t.Errorf("m=%d: regions %d not decreasing", m, ga.Regions())
		}
		prevRegions = ga.Regions()
		res, err := ga.Align(p, q)
		if err != nil {
			t.Fatal(err)
		}
		// Measured per-region active windows stay within the Eq. 6
		// bound 2m−2 plus the turn-on/turn-off overhead.
		for key, w := range ActiveWindow(res.Arrivals, m) {
			span := int(w[1] - w[0])
			if span > 2*m {
				t.Errorf("m=%d region %v active %d cycles, Eq. 6 bounds ≈ 2m−2 = %d",
					m, key, span, 2*m-2)
			}
		}
	}
}

func TestGatedArrayValidation(t *testing.T) {
	if _, err := NewGatedArray(0, 4, 2); err == nil {
		t.Error("zero dimension must error")
	}
	if _, err := NewGatedArray(4, 4, 0); err == nil {
		t.Error("zero region size must error")
	}
	ga, err := NewGatedArray(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ga.Align("ACT", "ACTG"); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := ga.Align("AXTG", "ACTG"); err == nil {
		t.Error("bad symbol must error")
	}
}

// TestGatedArrayBuildsIdentically pins that two builds of one shape
// make the same netlist, gate for gate, so every pooled engine of a
// shape numbers its nets alike.
func TestGatedArrayBuildsIdentically(t *testing.T) {
	a, err := NewGatedArray(7, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGatedArray(7, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < a.Netlist().NumGates(); k++ {
		if ga, gb := a.Netlist().Gate(k), b.Netlist().Gate(k); !reflect.DeepEqual(ga, gb) {
			t.Fatalf("gate %d differs between builds: %+v vs %+v", k, ga, gb)
		}
	}
}

func TestGatedRegionCount(t *testing.T) {
	// A 17×17 node grid (N=16) with m=4 has ⌈17/4⌉² = 25 regions.
	ga, err := NewGatedArray(16, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ga.Regions() != 25 {
		t.Errorf("Regions = %d, want 25", ga.Regions())
	}
	if ga.RegionSize() != 4 {
		t.Errorf("RegionSize = %d", ga.RegionSize())
	}
	if !strings.Contains(ga.String(), "25 regions") {
		t.Errorf("String() = %q", ga.String())
	}
}

func TestGatedWholeArrayAsOneRegion(t *testing.T) {
	// regionSize ≥ grid: a single region — gating degenerates to one
	// enable for everything, still functionally correct.
	n := 6
	ga, err := NewGatedArray(n, n, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ga.Regions() != 1 {
		t.Fatalf("Regions = %d, want 1", ga.Regions())
	}
	g := seqgen.NewDNA(24)
	p, q := g.RandomPair(n)
	ref, _ := NewArray(n, n)
	want, err := ref.Align(p, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ga.Align(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score {
		t.Errorf("score %v != %v", got.Score, want.Score)
	}
}
