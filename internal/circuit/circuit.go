package circuit

import (
	"errors"
	"fmt"
)

// Net identifies a single wire in a netlist.  Net 0 is the constant-zero
// net and net 1 the constant-one net of every netlist.
type Net int32

// Predefined constant nets present in every netlist.
const (
	Zero Net = 0
	One  Net = 1
)

// Kind enumerates the primitive standard cells.
type Kind uint8

// The primitive cell kinds.  These mirror the cells available in the
// paper's AMIS/OSU 0.5µm standard-cell libraries.
const (
	KindInput Kind = iota // external input pin
	KindConst             // the two constant nets
	KindBuf               // buffer / identity
	KindNot
	KindAnd // n-ary
	KindOr  // n-ary
	KindXor // 2-input
	KindXnor
	KindMux2 // inputs: [sel, a, b] → sel ? b : a
	KindDFF  // inputs: [d] or [d, enable]; output is Q

	// NumKinds is the number of cell kinds; per-kind tallies are arrays
	// of this length indexed by Kind.
	NumKinds
)

var kindNames = [NumKinds]string{
	"input", "const", "buf", "not", "and", "or", "xor", "xnor", "mux2", "dff",
}

// String returns the lowercase cell name ("and", "dff", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsSequential reports whether the kind holds state across clock edges.
func (k Kind) IsSequential() bool { return k == KindDFF }

// gate is one instantiated cell.  Its output net ID equals its index + 2
// (offset past the two constant nets) — every net is driven by exactly one
// gate, so gates and nets are stored in lockstep.
type gate struct {
	kind Kind
	in   []Net
	// name is set for inputs and optionally for probed nets.
	name string
	// init is the power-on value for DFFs (the paper initializes all
	// flip-flops to 0 before a race; tests also exercise init-1 latches).
	init bool
}

// Netlist accumulates gates.  It is not safe for concurrent use; build the
// whole circuit on one goroutine, then Compile.
type Netlist struct {
	gates []gate // gates[i] drives net Net(i+2)
	names map[string]Net
	numIn int
	numFF int
}

// New returns an empty netlist containing only the constant nets.
func New() *Netlist {
	return &Netlist{names: make(map[string]Net)}
}

// NumGates returns the number of instantiated cells, excluding the
// constant nets but including input pins.
func (n *Netlist) NumGates() int { return len(n.gates) }

// NumNets returns the total number of nets including the two constants.
func (n *Netlist) NumNets() int { return len(n.gates) + 2 }

// NumInputs returns the number of external input pins.
func (n *Netlist) NumInputs() int { return n.numIn }

// NumDFFs returns the number of flip-flops.
func (n *Netlist) NumDFFs() int { return n.numFF }

// CountByKind returns the number of gates of each kind, indexed by Kind;
// the tech package turns this into area totals.  It walks every gate.
func (n *Netlist) CountByKind() [NumKinds]int {
	var c [NumKinds]int
	for _, g := range n.gates {
		c[g.kind]++
	}
	return c
}

// FanIn returns the fan-in count of each gate kind summed over the whole
// netlist, indexed by Kind: each input pin loads the net driving it with
// that cell's input capacitance.  It walks every gate.
func (n *Netlist) FanIn() [NumKinds]int {
	var c [NumKinds]int
	for _, g := range n.gates {
		c[g.kind] += len(g.in)
	}
	return c
}

func (n *Netlist) add(g gate) Net {
	n.gates = append(n.gates, g)
	return Net(len(n.gates) + 1) // +2 offset, -1 for newly appended index
}

func (n *Netlist) driver(net Net) (gate, bool) {
	i := int(net) - 2
	if i < 0 || i >= len(n.gates) {
		return gate{}, false
	}
	return n.gates[i], true
}

func (n *Netlist) checkNets(op string, nets ...Net) {
	for _, x := range nets {
		if int(x) < 0 || int(x) >= n.NumNets() {
			panic(fmt.Sprintf("circuit: %s references undefined net %d", op, x))
		}
	}
}

// Input declares an external input pin with a unique name.
func (n *Netlist) Input(name string) Net {
	if name == "" {
		panic("circuit: Input requires a name")
	}
	if _, dup := n.names[name]; dup {
		panic(fmt.Sprintf("circuit: duplicate input name %q", name))
	}
	net := n.add(gate{kind: KindInput, name: name})
	n.names[name] = net
	n.numIn++
	return net
}

// InputNet returns the net of a previously declared input.
func (n *Netlist) InputNet(name string) (Net, error) {
	net, ok := n.names[name]
	if !ok {
		return 0, fmt.Errorf("circuit: no input named %q", name)
	}
	return net, nil
}

// Buf inserts a buffer driving a fresh net equal to a.
func (n *Netlist) Buf(a Net) Net {
	n.checkNets("buf", a)
	return n.add(gate{kind: KindBuf, in: []Net{a}})
}

// Not returns ¬a.
func (n *Netlist) Not(a Net) Net {
	n.checkNets("not", a)
	return n.add(gate{kind: KindNot, in: []Net{a}})
}

// And returns the conjunction of its inputs.  With zero inputs it returns
// the constant One (the identity of AND); with one input it returns that
// net unchanged rather than wasting a cell.
func (n *Netlist) And(ins ...Net) Net {
	n.checkNets("and", ins...)
	switch len(ins) {
	case 0:
		return One
	case 1:
		return ins[0]
	}
	return n.add(gate{kind: KindAnd, in: append([]Net(nil), ins...)})
}

// Or returns the disjunction of its inputs.  With zero inputs it returns
// the constant Zero; with one input it returns that net unchanged.
func (n *Netlist) Or(ins ...Net) Net {
	n.checkNets("or", ins...)
	switch len(ins) {
	case 0:
		return Zero
	case 1:
		return ins[0]
	}
	return n.add(gate{kind: KindOr, in: append([]Net(nil), ins...)})
}

// Xor returns a ⊕ b.
func (n *Netlist) Xor(a, b Net) Net {
	n.checkNets("xor", a, b)
	return n.add(gate{kind: KindXor, in: []Net{a, b}})
}

// Xnor returns ¬(a ⊕ b) — the matching-condition gate of Eq. 2 in the
// paper (M(i,j) = 1 iff the compared symbols are equal).
func (n *Netlist) Xnor(a, b Net) Net {
	n.checkNets("xnor", a, b)
	return n.add(gate{kind: KindXnor, in: []Net{a, b}})
}

// Mux2 returns sel ? b : a.
func (n *Netlist) Mux2(sel, a, b Net) Net {
	n.checkNets("mux2", sel, a, b)
	return n.add(gate{kind: KindMux2, in: []Net{sel, a, b}})
}

// DFF instantiates a D flip-flop with power-on value 0 that samples d on
// every rising clock edge.  The returned net is Q.
func (n *Netlist) DFF(d Net) Net {
	n.checkNets("dff", d)
	n.numFF++
	return n.add(gate{kind: KindDFF, in: []Net{d}})
}

// DFFE instantiates a clock-enabled D flip-flop: Q updates from d only on
// cycles where enable is 1.  This is the cell the Section 4.3 clock-gating
// study gates region-by-region.
func (n *Netlist) DFFE(d, enable Net) Net {
	n.checkNets("dffe", d, enable)
	n.numFF++
	return n.add(gate{kind: KindDFF, in: []Net{d, enable}})
}

// DFFInit instantiates a D flip-flop with an explicit power-on value.
func (n *Netlist) DFFInit(d Net, init bool) Net {
	n.checkNets("dff", d)
	n.numFF++
	return n.add(gate{kind: KindDFF, in: []Net{d}, init: init})
}

// PatchEnable rewires the enable pin of a previously created DFFE.  Gated
// fabrics need this: a region's flip-flops must exist before the region's
// enable logic (which reads their Q nets) can be built.
func (n *Netlist) PatchEnable(q, enable Net) error {
	g, ok := n.driver(q)
	if !ok || g.kind != KindDFF || len(g.in) != 2 {
		return fmt.Errorf("circuit: PatchEnable target %d is not a DFFE", q)
	}
	n.checkNets("patch-enable", enable)
	n.gates[int(q)-2].in[1] = enable
	return nil
}

// ErrCombLoop is returned by Compile when the combinational logic (the
// graph of all non-DFF gates) contains a cycle.  Races through such loops
// are electrical hazards, not Race Logic.
var ErrCombLoop = errors.New("circuit: combinational loop detected")
