package race

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"racelogic/internal/align"
	"racelogic/internal/score"
	"racelogic/internal/seqgen"
	"racelogic/internal/temporal"
)

const (
	figP = "ACTGAGA"
	figQ = "GATTCGA"
)

func TestArrayFig4cGoldenTimingMatrix(t *testing.T) {
	// Figure 4c prints the clock cycle at which each unit cell's OR
	// output fired for the example strings; the simulated array must
	// reproduce it digit for digit.  Rows follow Q, columns follow P.
	want := [][]temporal.Time{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{1, 2, 3, 4, 4, 5, 6, 7},
		{2, 2, 3, 4, 5, 5, 6, 7},
		{3, 3, 4, 4, 5, 6, 7, 8},
		{4, 4, 5, 5, 6, 7, 8, 9},
		{5, 5, 5, 6, 7, 8, 9, 10},
		{6, 6, 6, 7, 7, 8, 9, 10},
		{7, 7, 7, 8, 8, 8, 9, 10},
	}
	a, err := NewArray(len(figP), len(figQ))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Align(figP, figQ)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 10 {
		t.Errorf("score = %v, want 10", res.Score)
	}
	for row := range want {
		for col := range want[row] {
			if got := res.Arrivals[col][row]; got != want[row][col] {
				t.Errorf("cell (col=%d,row=%d) fired at %v, want %v (Fig. 4c)",
					col, row, got, want[row][col])
			}
		}
	}
}

func TestArrayAgreesWithReferenceDPRandom(t *testing.T) {
	// Cross-model agreement: every cell's arrival time must equal the
	// reference DP score at that node, for random strings of random
	// lengths.
	rng := rand.New(rand.NewSource(7))
	g := seqgen.NewDNA(8)
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		m := 1 + rng.Intn(8)
		p := g.Random(n)
		q := g.Random(m)
		a, err := NewArray(n, m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Align(p, q)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := align.Global(p, q, score.DNAShortestInf())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= n; i++ {
			for j := 0; j <= m; j++ {
				if res.Arrivals[i][j] != ref.Table[i][j] {
					t.Fatalf("%q vs %q cell (%d,%d): race %v != DP %v",
						p, q, i, j, res.Arrivals[i][j], ref.Table[i][j])
				}
			}
		}
	}
}

func TestArrayBestCaseLatency(t *testing.T) {
	// Identical strings: the signal rides the diagonal, one cell per
	// cycle — arrival at (N,N) after N cycles (the paper quotes N−1 for
	// its I/O convention; see DESIGN.md on the fixed 2-cycle offset).
	for _, n := range []int{4, 8, 16} {
		g := seqgen.NewDNA(int64(n))
		p, q := g.BestCase(n)
		a, err := NewArray(n, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Align(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score != temporal.Time(n) {
			t.Errorf("N=%d best case score = %v, want %d", n, res.Score, n)
		}
	}
}

func TestArrayWorstCaseLatency(t *testing.T) {
	// Complete mismatch: only indel edges exist; arrival at (N,N) after
	// 2N cycles (paper: 2N−2 under its convention).
	for _, n := range []int{4, 8, 16} {
		g := seqgen.NewDNA(int64(n))
		p, q := g.WorstCase(n)
		a, err := NewArray(n, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Align(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Score != temporal.Time(2*n) {
			t.Errorf("N=%d worst case score = %v, want %d", n, res.Score, 2*n)
		}
	}
}

func TestArrayQuadraticStructure(t *testing.T) {
	// Unit-cell count (and hence area) grows quadratically: FFs = (N+1)².
	a8, _ := NewArray(8, 8)
	a16, _ := NewArray(16, 16)
	if got := a8.Netlist().NumDFFs(); got != 81 {
		t.Errorf("8×8 array has %d FFs, want 81 (one per node)", got)
	}
	if got := a16.Netlist().NumDFFs(); got != 289 {
		t.Errorf("16×16 array has %d FFs, want 289", got)
	}
	if a8.FFsPerCell() != 1 {
		t.Errorf("FFsPerCell = %d, want 1", a8.FFsPerCell())
	}
}

func TestArrayValidation(t *testing.T) {
	if _, err := NewArray(0, 3); err == nil {
		t.Error("zero dimension must error")
	}
	a, err := NewArray(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Align("AC", "ACT"); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := a.Align("AXC", "ACT"); err == nil {
		t.Error("non-DNA symbol must error")
	}
}

func TestArrayThresholdCutsOffDissimilar(t *testing.T) {
	// Section 6: with a similarity threshold, the race is abandoned as
	// soon as the count exceeds it — dissimilar pairs cost only
	// threshold+1 cycles, not 2N.
	n := 12
	g := seqgen.NewDNA(3)
	pw, qw := g.WorstCase(n) // score 2N = 24
	a, err := NewArray(n, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AlignThreshold(pw, qw, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Score.IsNever() {
		t.Errorf("dissimilar pair must be cut off, got score %v", res.Score)
	}
	if res.Cycles > 16 {
		t.Errorf("threshold race ran %d cycles, want ≤ 16", res.Cycles)
	}
	// A similar pair under the same threshold completes normally.
	pb, qb := g.BestCase(n) // score N = 12 < 15
	res2, err := a.AlignThreshold(pb, qb, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Score != temporal.Time(n) {
		t.Errorf("similar pair score = %v, want %d", res2.Score, n)
	}
}

func TestArrayThresholdValidation(t *testing.T) {
	a, _ := NewArray(3, 3)
	if _, err := a.AlignThreshold("ACT", "ACT", -1); err == nil {
		t.Error("negative threshold must error")
	}
}

// TestThresholdBeyondBound pins that a threshold past the race bound,
// up to the largest Time, accepts every score, in a single race and in
// a pack, instead of overflowing the threshold+1 cycle bound.
func TestThresholdBeyondBound(t *testing.T) {
	a, err := NewArray(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Align("ACT", "AGT")
	if err != nil {
		t.Fatal(err)
	}
	for _, thr := range []temporal.Time{100, math.MaxInt64 - 1, math.MaxInt64} {
		got, err := a.AlignThreshold("ACT", "AGT", thr)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("threshold %d: got %+v, %v, want %+v", thr, got, err, want)
		}
		pack, err := a.AlignLanes("ACT", []string{"AGT"}, thr)
		if err != nil || pack[0].Score != want.Score || pack[0].Cycles != want.Cycles {
			t.Errorf("threshold %d: pack of one scored %+v, %v, want score %v in %d cycles", thr, pack, err, want.Score, want.Cycles)
		}
	}
}

func TestArrayEnergyBestBelowWorst(t *testing.T) {
	// The worst case runs 2× the cycles of the best case, so its clock
	// energy (FF-clocked-cycles) must be about 2× as well.
	n := 16
	g := seqgen.NewDNA(5)
	a, err := NewArray(n, n)
	if err != nil {
		t.Fatal(err)
	}
	pb, qb := g.BestCase(n)
	pw, qw := g.WorstCase(n)
	rb, err := a.Align(pb, qb)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := a.Align(pw, qw)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rw.Activity.FFClockedCycles) / float64(rb.Activity.FFClockedCycles)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("worst/best clocked-cycle ratio = %g, want ≈ 2", ratio)
	}
}

func TestArrayReusableAcrossAlignments(t *testing.T) {
	// One netlist, many races: results must not leak state between runs.
	a, err := NewArray(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := a.Align("ACTGA", "ACTGA")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Align("AAAAA", "TTTTT")
	if err != nil {
		t.Fatal(err)
	}
	r3, err := a.Align("ACTGA", "ACTGA")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Score != 5 || r2.Score != 10 || r3.Score != r1.Score {
		t.Errorf("scores %v/%v/%v, want 5/10/5", r1.Score, r2.Score, r3.Score)
	}
}

func TestTimingMatrixString(t *testing.T) {
	a, _ := NewArray(2, 2)
	res, err := a.Align("AC", "AC")
	if err != nil {
		t.Fatal(err)
	}
	s := res.TimingMatrixString()
	if s == "" {
		t.Error("empty rendering")
	}
	if (&AlignResult{}).TimingMatrixString() != "" {
		t.Error("empty result must render empty")
	}
}

func TestDnaCode(t *testing.T) {
	for i := 0; i < 4; i++ {
		if c := dnaCodes[score.DNAAlphabet[i]]; c != int16(i) {
			t.Errorf("dnaCodes[%c] = %d, want %d", score.DNAAlphabet[i], c, i)
		}
	}
	if dnaCodes['X'] >= 0 {
		t.Error("X must have no DNA code")
	}
}

func TestArrayDims(t *testing.T) {
	a, _ := NewArray(4, 6)
	n, m := a.Dims()
	if n != 4 || m != 6 {
		t.Errorf("Dims = %d,%d", n, m)
	}
}
