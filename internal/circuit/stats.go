package circuit

// Activity is the post-simulation report the energy model consumes.  It is
// the software analogue of the Modelsim toggle file the paper feeds to
// Primetime: per-kind toggle tallies to apply per-cell capacitances to,
// and the clocked-cycle total that drives the α=1 clock-network term of
// Eq. 3.  The tallies are arrays indexed by Kind, so an Activity is a
// plain value: building, copying and comparing one allocates nothing.
// Structure (gate and pin counts per kind) is not part of it; read it
// from the netlist with CountByKind and FanIn.
type Activity struct {
	// Cycles is the number of clock cycles simulated.
	Cycles int
	// NetToggles is the total number of 0↔1 transitions summed over all
	// nets, split by the kind of the cell driving the net (the toggling
	// net charges/discharges its own output plus its fan-out loads).
	NetToggles [NumKinds]uint64
	// LoadToggles is the toggle count weighted by fan-out: for each
	// toggling net, the number of input pins it drives, split by the
	// kind of each *driven* pin.  Σ over kinds of
	// LoadToggles[k]·Cin(k) is the switched load capacitance.
	LoadToggles [NumKinds]uint64
	// FFClockedCycles is Σ over cycles of the number of flip-flops whose
	// clock was active that cycle.  Without gating this is
	// NumDFFs·Cycles; clock gating reduces it (Section 4.3).
	FFClockedCycles uint64
	// NumDFFs is the flip-flop count, for convenience.
	NumDFFs int
}

// Activity summarizes the simulation so far.
func (s *Simulator) Activity() Activity {
	a := Activity{
		Cycles:          s.cycle,
		FFClockedCycles: s.ffClockedCycles,
		NumDFFs:         s.n.NumDFFs(),
	}
	// fanOutByKind[net][kind] would be large; instead walk gates once,
	// attributing each gate's input-pin load to the driving net's toggle
	// count.
	for _, g := range s.n.gates {
		for _, in := range g.in {
			a.LoadToggles[g.kind] += s.toggles[in]
		}
	}
	for i, g := range s.n.gates {
		a.NetToggles[g.kind] += s.toggles[i+2]
	}
	return a
}

// TotalNetToggles returns the sum of all net toggles regardless of kind.
func (a Activity) TotalNetToggles() uint64 {
	var t uint64
	for _, v := range a.NetToggles {
		t += v
	}
	return t
}
