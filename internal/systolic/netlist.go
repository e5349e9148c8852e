package systolic

import (
	"racelogic/internal/circuit"
)

// This file provides the structural side of the systolic baseline: a
// gate-level inventory of one processing element and of the whole array,
// built with the same primitive cells as the Race Logic designs so that
// internal/tech prices both architectures from one library.  The netlist
// is used for area accounting and for deriving the combinational-activity
// constants of SynthesizeActivity; the cycle-by-cycle behaviour is
// simulated by Array.Compare at the register level.

// BuildPENetlist instantiates the cells of one Lipton–Lopresti PE:
//
//   - 12 flip-flop bits (two 2-bit symbol registers with valid flags,
//     and the 3-deep × 2-bit mod-4 score history);
//   - a 2-bit symbol comparator (XNOR, XNOR, AND);
//   - two mod-4 relative-difference decoders for the neighbor scores
//     (2-bit subtractor each: XOR/AND/OR network);
//   - the min-select logic and mod-4 incrementer;
//   - output multiplexers for the bidirectional score exchange.
//
// All data inputs are tied off to the constant nets: the netlist is a
// cell inventory, not a simulatable model (Array.Compare is that).
func BuildPENetlist(n *circuit.Netlist) {
	z := circuit.Zero
	// Symbol registers and valid flags: 6 bits.
	xs0, xs1, xv := n.DFF(z), n.DFF(z), n.DFF(z)
	ys0, ys1, yv := n.DFF(z), n.DFF(z), n.DFF(z)
	// Score history: cur, old1, old2 — 2 bits each.
	c0, c1 := n.DFF(z), n.DFF(z)
	o10, o11 := n.DFF(c0), n.DFF(c1)
	o20, o21 := n.DFF(o10), n.DFF(o11)

	// Symbol comparator: match = AND(XNOR, XNOR) gated by both valids.
	match := n.And(n.Xnor(xs0, ys0), n.Xnor(xs1, ys1), xv, yv)

	// Mod-4 relative decoders for the two neighbor scores.  Each is a
	// 2-bit subtract (y − x) built as y + ¬x + 1: per bit an XOR pair
	// plus carry logic.
	rel := func(x0, x1, y0, y1 circuit.Net) (circuit.Net, circuit.Net) {
		nx0, nx1 := n.Not(x0), n.Not(x1)
		s0 := n.Xor(y0, n.Xor(nx0, circuit.One))
		carry0 := n.Or(n.And(y0, nx0), n.And(n.Xor(y0, nx0), circuit.One))
		s1 := n.Xor(n.Xor(y1, nx1), carry0)
		return s0, s1
	}
	l0, l1 := rel(o20, o21, o10, o11) // left neighbor vs diagonal
	r0, r1 := rel(o20, o21, o10, o11) // right neighbor vs diagonal

	// Min-select: compare the decoded relatives and the match cost and
	// pick the smallest — comparators plus 2:1 muxes on the 2-bit codes.
	lLess := n.And(l1, n.Not(r1)) // sign-bit style compare of small codes
	m0 := n.Mux2(lLess, r0, l0)
	m1 := n.Mux2(lLess, r1, l1)
	useDiag := n.Or(match, n.And(n.Not(m0), n.Not(m1)))
	b0 := n.Mux2(useDiag, m0, o20)
	b1 := n.Mux2(useDiag, m1, o21)

	// Mod-4 incrementer on the selected base: half-adder pair.
	inc0 := n.Not(b0)
	inc1 := n.Xor(b1, b0)
	// New current-score value (feeds c0/c1 in the real design; here the
	// registers are tied off, so just reference the nets).
	n.Mux2(useDiag, inc0, b0)
	n.Mux2(useDiag, inc1, b1)

	// Bidirectional exchange muxes: each PE forwards either its own
	// score or the passing stream in each direction.
	fx0 := n.Mux2(xv, c0, o10)
	fx1 := n.Mux2(xv, c1, o11)
	fy0 := n.Mux2(yv, c0, o10)
	fy1 := n.Mux2(yv, c1, o11)

	// Stream-transport registers of the Lipton–Lopresti interleaved
	// encoding: boundary scores travel *with* the characters, so each
	// direction carries a 2-bit score slot plus a stream tag
	// distinguishing "alphabet" from "score" beats ("an encoding scheme
	// that interleaves the alphabet and scores").
	n.DFF(fx0)
	n.DFF(fx1)
	n.DFF(fy0)
	n.DFF(fy1)
	xTag := n.DFF(n.Xor(xv, circuit.One)) // alternating beat tag
	yTag := n.DFF(n.Xor(yv, circuit.One))
	n.And(xTag, yTag) // beat-alignment check feeding the compute enable
}

// BuildArrayNetlist returns the gate inventory of a full 2·maxN+1-element
// array plus the external mod-4 recovery accumulator.
func BuildArrayNetlist(maxN int) *circuit.Netlist {
	n := circuit.New()
	pes := 2*maxN + 1
	for i := 0; i < pes; i++ {
		BuildPENetlist(n)
	}
	// Recovery accumulator: an up/down counter wide enough for 2N, built
	// as a register with an incrementer (reuse the saturating counter
	// structure for the inventory).
	en := n.Buf(circuit.One)
	n.SatCounter(recoveryBits(maxN), en)
	return n
}

// combActivityFactor is the per-cycle toggle probability assumed for the
// systolic datapath's combinational nets.  A systolic array is a pipeline
// by construction: symbols and mod-4 scores stream through every PE on
// every cycle, so its logic switches with a high, data-independent
// activity factor — the textbook α = 0.5 that the paper's
// "representative set of input vectors" methodology measures.  This is
// the defining contrast with Race Logic, whose nets each rise exactly
// once per computation.
const combActivityFactor = 0.5

// SynthesizeActivity converts a Compare result into the circuit.Activity
// shape the tech package prices.  Register-bit toggles are exact (counted
// bit-for-bit by the simulation); combinational nets are charged at the
// pipeline activity factor α = 0.5 per cycle (see combActivityFactor);
// the clock term is exact and structural: the linear array has no gating,
// so every flip-flop is clocked on every cycle.
func SynthesizeActivity(r *Result, n *circuit.Netlist) circuit.Activity {
	counts := n.CountByKind()
	fanin := n.FanIn()
	ffs := counts[circuit.KindDFF]
	a := circuit.Activity{
		Cycles:          r.Cycles,
		FFClockedCycles: uint64(ffs) * uint64(r.Cycles),
		NumDFFs:         ffs,
	}
	a.NetToggles[circuit.KindDFF] = r.RegBitToggles
	perCycle := combActivityFactor * float64(r.Cycles)
	for kind, c := range counts {
		switch circuit.Kind(kind) {
		case circuit.KindDFF, circuit.KindInput, circuit.KindConst:
			continue
		}
		a.NetToggles[kind] = uint64(perCycle * float64(c))
	}
	for kind, pins := range fanin {
		a.LoadToggles[kind] = uint64(perCycle * float64(pins))
	}
	return a
}
