package tech

import (
	"math"
	"testing"

	"racelogic/internal/circuit"
)

// TestLibrariesComplete asserts every real cell kind is priced: positive
// area and pin capacitances.  The input pseudo-cell has no area and no
// input pins, but its output node switches, so it needs a positive
// CoutPF; the constant nets never switch.
func TestLibrariesComplete(t *testing.T) {
	for _, l := range Libraries() {
		for k, c := range l.Cells {
			switch kind := circuit.Kind(k); kind {
			case circuit.KindConst:
			case circuit.KindInput:
				if c.CoutPF <= 0 {
					t.Errorf("%s: input pseudo-cell has CoutPF %g, want > 0", l.Name, c.CoutPF)
				}
			default:
				if c.Area <= 0 || c.CinPF <= 0 || c.CoutPF <= 0 {
					t.Errorf("%s: cell %v has non-positive parameters %+v", l.Name, kind, c)
				}
			}
		}
		if l.Vdd <= 0 || l.ClockPeriodNS <= 0 || l.CClkPinPF <= 0 || l.CGatePF <= 0 {
			t.Errorf("%s: non-positive electrical constants", l.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"AMIS", "OSU"} {
		l, err := ByName(name)
		if err != nil || l.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, l, err)
		}
	}
	if _, err := ByName("TSMC"); err == nil {
		t.Error("expected error for unknown library")
	}
}

func TestOSUIsLighterThanAMIS(t *testing.T) {
	// The paper's Eq. 5 coefficients put OSU at roughly 2.5× less energy
	// than AMIS; our models must preserve that ordering cell by cell.
	amis, osu := AMIS(), OSU()
	for k, a := range amis.Cells {
		o := osu.Cells[k]
		if o.Area > a.Area || o.CinPF > a.CinPF {
			t.Errorf("OSU %v heavier than AMIS (%+v vs %+v)", circuit.Kind(k), o, a)
		}
	}
	if osu.CClkPinPF >= amis.CClkPinPF {
		t.Error("OSU clock pin must be lighter than AMIS")
	}
}

func buildToy() (*circuit.Netlist, circuit.Net) {
	n := circuit.New()
	a := n.Input("a")
	d := n.DelayChain(a, 4)
	return n, d
}

func TestAreaUM2(t *testing.T) {
	n, _ := buildToy()
	l := AMIS()
	want := 4 * l.Cells[circuit.KindDFF].Area // 4 DFFs, input pins are free
	if got := l.AreaUM2(n); math.Abs(got-want) > 1e-9 {
		t.Errorf("AreaUM2 = %g, want %g", got, want)
	}
}

func TestEnergyPositiveAndSplit(t *testing.T) {
	n, d := buildToy()
	s := n.MustCompile()
	if err := s.SetInputName("a", true); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(d, 100)
	act := s.Activity()
	for _, l := range Libraries() {
		e := l.Energy(act)
		if e.ClockJ <= 0 || e.DataJ <= 0 {
			t.Errorf("%s: energy terms must be positive: %+v", l.Name, e)
		}
		if e.TotalJ() != e.ClockJ+e.DataJ {
			t.Errorf("%s: TotalJ mismatch", l.Name)
		}
		if got := l.ClocklessEstimate(act); got != e.DataJ {
			t.Errorf("%s: clockless estimate must equal the data term", l.Name)
		}
	}
}

func TestEnergyScalesWithCycles(t *testing.T) {
	// An idle circuit still burns clock energy every cycle — the whole
	// point of the Section 4.3 gating study.
	build := func(cycles int) circuit.Activity {
		n := circuit.New()
		a := n.Input("a")
		n.DelayChain(a, 8)
		s := n.MustCompile()
		s.Run(cycles)
		return s.Activity()
	}
	l := AMIS()
	e10 := l.Energy(build(10)).ClockJ
	e20 := l.Energy(build(20)).ClockJ
	if math.Abs(e20/e10-2) > 1e-9 {
		t.Errorf("clock energy must double with cycles: %g vs %g", e10, e20)
	}
}

func TestPowerAndDensity(t *testing.T) {
	n, d := buildToy()
	s := n.MustCompile()
	s.SetInputName("a", true)
	s.RunUntil(d, 100)
	act := s.Activity()
	l := AMIS()
	p := l.Power(act)
	if p <= 0 {
		t.Error("power must be positive")
	}
	pd := l.PowerDensityWCM2(n, act)
	if pd <= 0 {
		t.Error("power density must be positive")
	}
	// Power density = power / area(cm²).
	area := l.AreaUM2(n) / 1e8
	if math.Abs(pd-p/area)/pd > 1e-12 {
		t.Errorf("density inconsistent: %g vs %g", pd, p/area)
	}
	if l.Power(circuit.Activity{}) != 0 {
		t.Error("zero-cycle power must be 0")
	}
	if l.PowerDensityWCM2(circuit.New(), act) != 0 {
		t.Error("zero-area density must be 0")
	}
}

func TestLatencyThroughput(t *testing.T) {
	l := AMIS()
	if got := l.LatencyNS(10); got != 30 {
		t.Errorf("LatencyNS(10) = %g, want 30 at 3ns clock", got)
	}
	tp := l.ThroughputPerAreaCM2(10, 1e6) // 10 cycles, 0.01 cm²
	// 1/(30ns) per second over 0.01 cm².
	want := (1.0 / 30e-9) / 0.01
	if math.Abs(tp-want)/want > 1e-12 {
		t.Errorf("throughput = %g, want %g", tp, want)
	}
	if l.ThroughputPerAreaCM2(0, 1e6) != 0 || l.ThroughputPerAreaCM2(10, 0) != 0 {
		t.Error("degenerate throughput must be 0")
	}
	if f := l.ClockFreqHz(); math.Abs(f-1e9/3.0) > 1 {
		t.Errorf("ClockFreqHz = %g", f)
	}
}

func TestGatedClockEnergyReducesEnergy(t *testing.T) {
	l := AMIS()
	cCell := l.CellClockCapPF(4) // a 4-FF race cell
	for _, n := range []int{16, 64, 256} {
		ungated := l.UngatedClockEnergy(n, cCell)
		mOpt := l.OptimalGranularity(n, cCell)
		gated := l.GatedClockEnergy(n, int(math.Round(mOpt)), cCell)
		if gated >= ungated {
			t.Errorf("N=%d: gated %g >= ungated %g (m*=%g)", n, gated, ungated, mOpt)
		}
	}
}

func TestOptimalGranularityIsArgmin(t *testing.T) {
	// Eq. 7 must be the argmin of Eq. 6: check numerically on a sweep.
	l := AMIS()
	cCell := l.CellClockCapPF(4)
	for _, n := range []int{32, 128, 512} {
		mStar := l.OptimalGranularity(n, cCell)
		best, bestM := math.Inf(1), 0
		for m := 1; m <= n; m++ {
			if e := l.GatedClockEnergy(n, m, cCell); e < best {
				best, bestM = e, m
			}
		}
		if math.Abs(float64(bestM)-mStar) > 1.5 {
			t.Errorf("N=%d: numeric argmin m=%d but Eq. 7 gives %g", n, bestM, mStar)
		}
	}
}

func TestOptimalGranularityGrowsWithN(t *testing.T) {
	// Larger arrays afford coarser regions: m* ∝ N^(1/3).
	l := OSU()
	cCell := l.CellClockCapPF(4)
	m1 := l.OptimalGranularity(100, cCell)
	m2 := l.OptimalGranularity(800, cCell) // 8× N → 2× m*
	if ratio := m2 / m1; math.Abs(ratio-2) > 0.2 {
		t.Errorf("m*(800)/m*(100) = %g, want ≈2 (cube-root law)", ratio)
	}
}

func TestOptimalGranularityClamps(t *testing.T) {
	l := AMIS()
	if got := l.OptimalGranularity(1, l.CellClockCapPF(4)); got != 1 {
		t.Errorf("m* must clamp to 1 for tiny arrays, got %g", got)
	}
	if got := l.OptimalGranularity(4, 0); got != 4 {
		t.Errorf("zero clock cap must clamp m* to N, got %g", got)
	}
	// Huge C_gate pushes m* beyond N: must clamp to N.
	big := &Library{Name: "big", Vdd: 5, ClockPeriodNS: 3, CGatePF: 1e9, CClkPinPF: 0.001,
		Cells: AMIS().Cells}
	if got := big.OptimalGranularity(4, big.CellClockCapPF(1)); got != 4 {
		t.Errorf("m* must clamp to N, got %g", got)
	}
}

func TestGatedClockEnergyClampsM(t *testing.T) {
	l := AMIS()
	c := l.CellClockCapPF(4)
	if l.GatedClockEnergy(16, 0, c) != l.GatedClockEnergy(16, 1, c) {
		t.Error("m < 1 must clamp to 1")
	}
	if l.GatedClockEnergy(16, 99, c) != l.GatedClockEnergy(16, 16, c) {
		t.Error("m > N must clamp to N")
	}
}
