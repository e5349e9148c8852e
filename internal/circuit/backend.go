package circuit

import "racelogic/internal/temporal"

// Backend is the simulation contract a compiled netlist runs under.  The
// cycle-accurate Simulator is the reference implementation; the
// bit-parallel engine in circuit/lanes is the fast one, proven
// arrival- and activity-identical by the internal/oracle differential
// suite.  Everything the race arrays and the energy model consume —
// per-net first-arrival times, cumulative toggle counts, the clocked
// flip-flop total — is part of the contract, so two backends that both
// satisfy it produce byte-identical AlignResults and SearchReports.
type Backend interface {
	// Reset returns the backend to the state compilation left it in:
	// flip-flops at power-on values, inputs at 0, cycle 0, toggle and
	// arrival accounting cleared — without re-levelizing the netlist.
	Reset()
	// SetInput drives an external input pin; the change settles
	// immediately in the current cycle and is accounted.
	SetInput(net Net, v bool)
	// SetInputName drives an input pin by name.
	SetInputName(name string, v bool) error
	// Step advances the simulation by one clock cycle: clock edge, then
	// combinational settle, then toggle/arrival accounting.
	Step()
	// Run advances the simulation by k cycles.
	Run(k int)
	// RunUntil steps until net first carries a 1 and returns the arrival
	// time, or temporal.Never if it has not arrived after maxCycles.
	RunUntil(net Net, maxCycles int) temporal.Time
	// Cycle returns the number of Steps taken so far.
	Cycle() int
	// Value returns the current settled value of a net.
	Value(net Net) bool
	// Arrival returns the cycle at which the net first carried a 1, or
	// temporal.Never.
	Arrival(net Net) temporal.Time
	// Toggles returns the cumulative toggle count of a net.
	Toggles(net Net) uint64
	// Activity summarizes the simulation so far for the energy model.
	Activity() Activity
}

// The cycle-accurate Simulator is the reference Backend.
var _ Backend = (*Simulator)(nil)

// Gate describes one instantiated cell — the read-only view an
// alternative backend compiles the netlist from.  The In slice is shared
// with the netlist; callers must not mutate it.
type Gate struct {
	// Kind is the primitive cell kind.
	Kind Kind
	// In lists the input nets (see the per-kind pin conventions on the
	// Netlist builder methods; a DFF has [d] or [d, enable]).
	In []Net
	// Init is the power-on value for DFFs.
	Init bool
	// Name is set for inputs and optionally for probed nets.
	Name string
}

// Gate returns the cell driving net Net(i+2) — gates and nets are stored
// in lockstep, so i ranges over [0, NumGates).
func (n *Netlist) Gate(i int) Gate {
	g := n.gates[i]
	return Gate{Kind: g.kind, In: g.in, Init: g.init, Name: g.name}
}
