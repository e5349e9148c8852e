package race

import (
	"fmt"

	"racelogic/internal/circuit"
	"racelogic/internal/circuit/lanes"
)

// Backend selects the gate-level simulation engine an array races on.
// Both engines implement circuit.Backend and are arrival-, toggle- and
// clock-accounting-identical — the internal/oracle differential suite
// enforces that — so the choice changes wall-clock speed only, never a
// score, a timing matrix, or an energy figure.
type Backend int

const (
	// BackendCycle is the cycle-accurate reference simulator: every
	// combinational gate settles and every net is scanned once per clock
	// cycle.  It is the oracle the lanes engine is tested against.
	BackendCycle Backend = iota
	// BackendEvent is a spelling of BackendLanes: "event" still parses,
	// and the constant keeps its String for names built from it.  It has
	// no engine of its own; every entry point that takes a Backend
	// stores its Resolve, so nothing races on it.
	BackendEvent
	// BackendLanes is the bit-parallel engine in circuit/lanes: every
	// net's state is a slab of 1–8 uint64 words (SetLaneWidth, default
	// one word) whose bit l of word w is the value in lane w·64+l, so
	// one settle wave races up to 64–512 same-shape candidates at once.
	// Every array type batches candidates through
	// AlignLanes/AlignLanesMulti; Align and AlignThreshold race a pack
	// of one and read its lane.
	BackendLanes
)

// String names the backend the way the -backend CLI flags spell it.
func (b Backend) String() string {
	switch b {
	case BackendCycle:
		return "cycle"
	case BackendEvent:
		return "event"
	case BackendLanes:
		return "lanes"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// Validate rejects values outside the defined enum.
func (b Backend) Validate() error {
	switch b {
	case BackendCycle, BackendEvent, BackendLanes:
		return nil
	}
	return fmt.Errorf("race: unknown backend %d (have cycle, event, lanes)", int(b))
}

// Resolve returns the backend that races when b is selected:
// BackendLanes for its spelling BackendEvent, b itself otherwise.
func (b Backend) Resolve() Backend {
	if b == BackendEvent {
		return BackendLanes
	}
	return b
}

// ParseBackend maps a CLI spelling to a Backend; "event" spells
// BackendLanes.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "cycle":
		return BackendCycle, nil
	case "event", "lanes":
		return BackendLanes, nil
	}
	return 0, fmt.Errorf("race: unknown backend %q (have cycle, event, lanes)", s)
}

// compileBackend compiles nl under the selected engine.  words sizes
// the lanes backend's per-net slab (1, 2, 4, or 8 uint64 words → 64 to
// 512 lanes) and is ignored by the cycle reference.
func compileBackend(nl *circuit.Netlist, b Backend, words int) (circuit.Backend, error) {
	if b == BackendLanes {
		return lanes.CompileWords(nl, words)
	}
	return nl.Compile()
}
