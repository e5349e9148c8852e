package eval

import (
	"fmt"
	"math"

	"racelogic/internal/seqgen"
	"racelogic/internal/systolic"
	"racelogic/internal/tech"
)

// RaceMeasurement is one simulated data point of the Race Logic array at
// string length N: structure (area) plus best- and worst-case dynamics.
type RaceMeasurement struct {
	N                       int
	AreaUM2                 float64
	BestCycles, WorstCycles int
	// Energies in joules: total (Eq. 3) and the clock-free data term
	// (the Section 6 "clockless estimate").
	BestEnergyJ, WorstEnergyJ       float64
	BestClocklessJ, WorstClocklessJ float64
	BestPowerW, WorstPowerW         float64
	BestFFClocked, WorstFFClocked   uint64
}

// MeasureRace builds the N×N Fig. 4 array and races the canonical best
// case (identical strings) and worst case (fully mismatched strings).
func MeasureRace(lib *tech.Library, n int) (*RaceMeasurement, error) {
	arr, err := newArray(n, n)
	if err != nil {
		return nil, err
	}
	g := seqgen.NewDNA(int64(n) * 1009)
	m := &RaceMeasurement{N: n, AreaUM2: lib.AreaUM2(arr.Netlist())}

	pb, qb := g.BestCase(n)
	rb, err := arr.Align(pb, qb)
	if err != nil {
		return nil, err
	}
	eb := lib.Energy(rb.Activity)
	m.BestCycles = rb.Cycles
	m.BestEnergyJ = eb.TotalJ()
	m.BestClocklessJ = eb.DataJ
	m.BestPowerW = lib.PowerOf(eb.TotalJ(), rb.Activity.Cycles)
	m.BestFFClocked = rb.Activity.FFClockedCycles

	pw, qw := g.WorstCase(n)
	rw, err := arr.Align(pw, qw)
	if err != nil {
		return nil, err
	}
	ew := lib.Energy(rw.Activity)
	m.WorstCycles = rw.Cycles
	m.WorstEnergyJ = ew.TotalJ()
	m.WorstClocklessJ = ew.DataJ
	m.WorstPowerW = lib.PowerOf(ew.TotalJ(), rw.Activity.Cycles)
	m.WorstFFClocked = rw.Activity.FFClockedCycles
	return m, nil
}

// GatedMeasurement is one simulated data point of the clock-gated array.
type GatedMeasurement struct {
	N, RegionSize                 int
	AreaUM2                       float64
	BestEnergyJ, WorstEnergyJ     float64
	BestPowerW, WorstPowerW       float64
	BestFFClocked, WorstFFClocked uint64
}

// MeasureGated builds the N×N gated array at granularity m (0 selects the
// Eq. 7 optimum) and races the best and worst cases.
func MeasureGated(lib *tech.Library, n, m int) (*GatedMeasurement, error) {
	if m <= 0 {
		m = int(math.Round(lib.OptimalGranularity(n, lib.CellClockCapPF(1))))
		if m < 1 {
			m = 1
		}
	}
	arr, err := newGatedArray(n, n, m)
	if err != nil {
		return nil, err
	}
	g := seqgen.NewDNA(int64(n)*1013 + int64(m))
	res := &GatedMeasurement{N: n, RegionSize: m, AreaUM2: lib.AreaUM2(arr.Netlist())}

	pb, qb := g.BestCase(n)
	rb, err := arr.Align(pb, qb)
	if err != nil {
		return nil, err
	}
	res.BestEnergyJ = lib.Energy(rb.Activity).TotalJ()
	res.BestPowerW = lib.Power(rb.Activity)
	res.BestFFClocked = rb.Activity.FFClockedCycles

	pw, qw := g.WorstCase(n)
	rw, err := arr.Align(pw, qw)
	if err != nil {
		return nil, err
	}
	res.WorstEnergyJ = lib.Energy(rw.Activity).TotalJ()
	res.WorstPowerW = lib.Power(rw.Activity)
	res.WorstFFClocked = rw.Activity.FFClockedCycles
	return res, nil
}

// SystolicMeasurement is one simulated data point of the Lipton–Lopresti
// baseline at string length N.
type SystolicMeasurement struct {
	N       int
	AreaUM2 float64
	Cycles  int
	EnergyJ float64
	PowerW  float64
}

// MeasureSystolic builds the 2N+1-element array, runs a representative
// random comparison (systolic latency and clock energy are
// data-independent; only the small data term varies), and prices it.
func MeasureSystolic(lib *tech.Library, n int) (*SystolicMeasurement, error) {
	arr, err := systolic.New(n, seqgen.NewDNA(1).Alphabet())
	if err != nil {
		return nil, err
	}
	g := seqgen.NewDNA(int64(n) * 1019)
	p, q := g.RandomPair(n)
	r, err := arr.Compare(p, q)
	if err != nil {
		return nil, err
	}
	nl := systolic.BuildArrayNetlist(n)
	act := systolic.SynthesizeActivity(r, nl)
	return &SystolicMeasurement{
		N:       n,
		AreaUM2: lib.AreaUM2(nl),
		Cycles:  r.Cycles,
		EnergyJ: lib.Energy(act).TotalJ(),
		PowerW:  lib.Power(act),
	}, nil
}

// DefaultNs is the Fig. 5/9 sweep grid (the paper plots N from 0 to 100).
var DefaultNs = []int{5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// SmallNs is a reduced grid for quick runs and benchmarks.
var SmallNs = []int{5, 10, 20, 30}

func checkNs(ns []int) error {
	if len(ns) == 0 {
		return fmt.Errorf("eval: empty N sweep")
	}
	for _, n := range ns {
		if n < 1 {
			return fmt.Errorf("eval: invalid N %d", n)
		}
	}
	return nil
}
