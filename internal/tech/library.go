package tech

import (
	"fmt"

	"racelogic/internal/circuit"
)

// CellParams describes one primitive cell in a library.
type CellParams struct {
	// Area is the placed cell area in µm².
	Area float64
	// CinPF is the capacitance presented by each input pin, in pF.
	CinPF float64
	// CoutPF is the self-capacitance of the cell's output node, in pF.
	CoutPF float64
}

// Library is one standard-cell technology: per-kind cell parameters plus
// the global electrical constants of the process.
type Library struct {
	// Name identifies the library in reports ("AMIS", "OSU").
	Name string
	// Vdd is the supply voltage in volts.
	Vdd float64
	// ClockPeriodNS is the synthesized clock period in nanoseconds.
	ClockPeriodNS float64
	// Cells holds each primitive kind's parameters, indexed by Kind.
	Cells [circuit.NumKinds]CellParams
	// CClkPinPF is the clock-pin capacitance of one flip-flop in pF —
	// the per-FF contribution to C_clk in Eq. 3, charged on every active
	// clock cycle regardless of data.
	CClkPinPF float64
	// CGatePF is the capacitance of one clock-gating cell (the ICG the
	// Section 4.3 H-tree inserts per multi-cell region), in pF.
	CGatePF float64
	// WireCapPerFanoutPF approximates routing load: every input pin a
	// net drives adds this much wire capacitance, in pF.
	WireCapPerFanoutPF float64
}

// AMIS returns the AMIS 0.5µm standard-cell library model.  The constants
// are representative of a 5V 0.5µm process (DFF ≈ 800µm², simple gates
// 190–430µm², pin capacitances of tens of femtofarads) and are tuned so
// that the fitted Race Logic energy coefficients land near the paper's
// Eq. 5a/5b values (2.65/5.30 pJ cubic terms).
func AMIS() *Library {
	return &Library{
		Name:          "AMIS",
		Vdd:           5.0,
		ClockPeriodNS: 3.0,
		Cells: [circuit.NumKinds]CellParams{
			circuit.KindInput: {Area: 0, CinPF: 0, CoutPF: 0.010},
			circuit.KindConst: {Area: 0, CinPF: 0, CoutPF: 0},
			circuit.KindBuf:   {Area: 190, CinPF: 0.012, CoutPF: 0.015},
			circuit.KindNot:   {Area: 160, CinPF: 0.010, CoutPF: 0.012},
			circuit.KindAnd:   {Area: 290, CinPF: 0.013, CoutPF: 0.016},
			circuit.KindOr:    {Area: 290, CinPF: 0.013, CoutPF: 0.016},
			circuit.KindXor:   {Area: 430, CinPF: 0.018, CoutPF: 0.020},
			circuit.KindXnor:  {Area: 430, CinPF: 0.018, CoutPF: 0.020},
			circuit.KindMux2:  {Area: 380, CinPF: 0.015, CoutPF: 0.018},
			circuit.KindDFF:   {Area: 810, CinPF: 0.016, CoutPF: 0.020},
		},
		CClkPinPF:          0.0265,
		CGatePF:            0.090,
		WireCapPerFanoutPF: 0.008,
	}
}

// OSU returns the OSU (Oklahoma State University) 0.5µm open standard-cell
// library model.  OSU cells are smaller and lighter than the AMIS ones —
// the paper's OSU energy coefficients are roughly 2.5× below the AMIS
// ones (Eq. 5c/5d) — which this model reflects.
func OSU() *Library {
	return &Library{
		Name:          "OSU",
		Vdd:           5.0,
		ClockPeriodNS: 2.5,
		Cells: [circuit.NumKinds]CellParams{
			circuit.KindInput: {Area: 0, CinPF: 0, CoutPF: 0.008},
			circuit.KindConst: {Area: 0, CinPF: 0, CoutPF: 0},
			circuit.KindBuf:   {Area: 140, CinPF: 0.009, CoutPF: 0.011},
			circuit.KindNot:   {Area: 120, CinPF: 0.007, CoutPF: 0.009},
			circuit.KindAnd:   {Area: 220, CinPF: 0.010, CoutPF: 0.012},
			circuit.KindOr:    {Area: 220, CinPF: 0.010, CoutPF: 0.012},
			circuit.KindXor:   {Area: 330, CinPF: 0.014, CoutPF: 0.015},
			circuit.KindXnor:  {Area: 330, CinPF: 0.014, CoutPF: 0.015},
			circuit.KindMux2:  {Area: 300, CinPF: 0.012, CoutPF: 0.014},
			circuit.KindDFF:   {Area: 640, CinPF: 0.013, CoutPF: 0.016},
		},
		CClkPinPF:          0.0105,
		CGatePF:            0.036,
		WireCapPerFanoutPF: 0.006,
	}
}

// Libraries returns both library models in the order the paper plots them.
func Libraries() []*Library { return []*Library{AMIS(), OSU()} }

// ByName returns the library with the given (case-sensitive) name.
func ByName(name string) (*Library, error) {
	for _, l := range Libraries() {
		if l.Name == name {
			return l, nil
		}
	}
	return nil, fmt.Errorf("tech: unknown library %q (have AMIS, OSU)", name)
}

// AreaUM2 returns the total placed cell area of a netlist in µm².
func (l *Library) AreaUM2(n *circuit.Netlist) float64 {
	var a float64
	for kind, c := range n.CountByKind() {
		if c != 0 {
			a += l.Cells[kind].Area * float64(c)
		}
	}
	return a
}

// ClockFreqHz returns the synthesized operating frequency.
func (l *Library) ClockFreqHz() float64 { return 1e9 / l.ClockPeriodNS }
