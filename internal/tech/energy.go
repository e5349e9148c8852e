package tech

import (
	"math"

	"racelogic/internal/circuit"
)

// EnergyBreakdown splits one computation's dynamic energy into the two
// terms of the paper's Eq. 3: the clock network (activity factor 1 on
// every un-gated flip-flop) and the data-dependent logic.
type EnergyBreakdown struct {
	// ClockJ is the clock-network energy in joules: every active
	// FF-clock-cycle charges the flip-flop's clock pin.
	ClockJ float64
	// DataJ is the data-dependent switching energy in joules: every net
	// toggle charges/discharges the driving cell's output capacitance
	// plus the input-pin and wire capacitance of its fan-out.
	DataJ float64
}

// TotalJ returns clock + data energy in joules.
func (e EnergyBreakdown) TotalJ() float64 { return e.ClockJ + e.DataJ }

const pfToF = 1e-12

// Energy converts an Activity report into dynamic energy, in joules,
// using E = ½·C·V² per transition.  This is the software Primetime: the
// activity numbers come from cycle-accurate simulation, the capacitances
// from the library, and the formula from Eq. 3 integrated over the
// computation's cycles.
func (l *Library) Energy(a circuit.Activity) EnergyBreakdown {
	halfV2 := 0.5 * l.Vdd * l.Vdd
	var e EnergyBreakdown

	// Clock term: α = 1 for every clocked FF-cycle.  A full clock cycle
	// swings the clock pin up and down: 2 transitions, so the ½ cancels.
	e.ClockJ = float64(a.FFClockedCycles) * l.CClkPinPF * pfToF * 2 * halfV2

	// Data term: each net toggle switches the driver's output node plus
	// each driven pin (gate capacitance) plus per-fanout wire load.
	// Summed in fixed kind order so the floating-point total is
	// bit-identical run to run (map order is randomized).
	for _, kind := range circuit.Kinds() {
		if t := a.NetToggles[kind]; t != 0 {
			e.DataJ += float64(t) * l.Cells[kind].CoutPF * pfToF * halfV2
		}
	}
	for _, kind := range circuit.Kinds() {
		if t := a.LoadToggles[kind]; t != 0 {
			e.DataJ += float64(t) * (l.Cells[kind].CinPF + l.WireCapPerFanoutPF) * pfToF * halfV2
		}
	}
	return e
}

// Power returns the average power of the computation in watts: total
// energy over total wall-clock time at the library's clock rate.
func (l *Library) Power(a circuit.Activity) float64 {
	return l.PowerOf(l.Energy(a).TotalJ(), a.Cycles)
}

// PowerOf is Power for a computation whose energy is already priced:
// joules spent over cycles periods of the library's clock, in watts.
// Callers holding Energy(a).TotalJ() pass it with a.Cycles instead of
// pricing the activity twice; the result is bit-identical to Power(a).
func (l *Library) PowerOf(joules float64, cycles int) float64 {
	if cycles == 0 {
		return 0
	}
	t := float64(cycles) * l.ClockPeriodNS * 1e-9
	return joules / t
}

// PowerDensityWCM2 returns power density in W/cm² for the Fig. 9b series:
// average power over the netlist's placed area.
func (l *Library) PowerDensityWCM2(n *circuit.Netlist, a circuit.Activity) float64 {
	area := l.AreaUM2(n)
	if area == 0 {
		return 0
	}
	const um2PerCM2 = 1e8
	return l.Power(a) / (area / um2PerCM2)
}

// LatencyNS converts a cycle count to nanoseconds at the library's clock.
func (l *Library) LatencyNS(cycles int) float64 {
	return float64(cycles) * l.ClockPeriodNS
}

// ThroughputPerAreaCM2 returns string-comparison throughput per unit
// area, in patterns/sec/cm² (Fig. 9a): one comparison per latency, over
// the area.
func (l *Library) ThroughputPerAreaCM2(latencyCycles int, areaUM2 float64) float64 {
	if latencyCycles == 0 || areaUM2 == 0 {
		return 0
	}
	perSec := 1.0 / (float64(latencyCycles) * l.ClockPeriodNS * 1e-9)
	const um2PerCM2 = 1e8
	return perSec / (areaUM2 / um2PerCM2)
}

// ClocklessEstimate returns the energy a hypothetical asynchronous
// (clock-free) Race Logic implementation would spend on the same
// computation: the data term only.  Section 6 uses this as the lower
// bound the gated design approaches ("the asynchronous Race Logic does
// not have a clock network which is the reason for third order energy
// scaling").
func (l *Library) ClocklessEstimate(a circuit.Activity) float64 {
	return l.Energy(a).DataJ
}

// GatedClockEnergy evaluates the paper's Eq. 6 analytically: the clock
// energy of an N×N Race Logic array divided into m×m multi-cell gated
// regions, in joules, for the worst-case (2N−2 cycle) computation.
//
//	E_clk(m) = C_clkcell·N² · V² · (2m−2+w)  +  C_gate·(N/m)² · V² · (2N−2)
//
// The first term clocks each region only during its active window — a
// wavefront needs 2m−2 cycles to cross an m×m region, plus a small
// turn-on/turn-off overhead w (we use w = 2: the enable and disable
// cycles themselves).  The second term is the gating network itself,
// which must be clocked every cycle of the whole computation.
// cClkCellPF is the clocked capacitance of ONE unit cell (all its FF
// clock pins summed).
func (l *Library) GatedClockEnergy(n, m int, cClkCellPF float64) float64 {
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	v2 := l.Vdd * l.Vdd
	nf, mf := float64(n), float64(m)
	activeWindow := 2*mf - 2 + 2
	regionTerm := cClkCellPF * pfToF * nf * nf * v2 * activeWindow
	regions := (nf / mf) * (nf / mf)
	gateTerm := l.CGatePF * pfToF * regions * v2 * (2*nf - 2)
	return regionTerm + gateTerm
}

// UngatedClockEnergy is the m-free baseline the gated design is compared
// against: every cell clocked on every one of the 2N−2 worst-case cycles.
func (l *Library) UngatedClockEnergy(n int, cClkCellPF float64) float64 {
	v2 := l.Vdd * l.Vdd
	nf := float64(n)
	return cClkCellPF * pfToF * nf * nf * v2 * (2*nf - 2)
}

// OptimalGranularity returns the paper's Eq. 7: the m minimizing Eq. 6.
// Writing Eq. 6 as E(m) = 2·A·m + B/m² + const with A = C_clkcell·N²·V²
// and B = C_gate·(N/m·m)²·(2N−2)·V², setting dE/dm = 2A − 2B/m³ = 0 gives
//
//	m* = ( C_gate·(2N−2) / C_clkcell )^(1/3)
//
// (the +w constant in the active window does not affect the derivative).
// The result is clamped to [1, N].
func (l *Library) OptimalGranularity(n int, cClkCellPF float64) float64 {
	if cClkCellPF <= 0 {
		return float64(n)
	}
	m := math.Cbrt(l.CGatePF * (2*float64(n) - 2) / cClkCellPF)
	if m < 1 {
		return 1
	}
	if m > float64(n) {
		return float64(n)
	}
	return m
}

// CellClockCapPF returns the summed flip-flop clock-pin capacitance of a
// netlist divided by cells, given the cell count — a convenience for
// feeding measured structures into the Eq. 6/7 analytical models.
func (l *Library) CellClockCapPF(ffsPerCell int) float64 {
	return float64(ffsPerCell) * l.CClkPinPF
}
