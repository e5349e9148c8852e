package lanes_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"racelogic/internal/circuit"
	"racelogic/internal/circuit/lanes"
)

// pair runs the reference cycle-accurate simulator and the lanes engine
// in lockstep over the same netlist, every lane driven alike through
// the scalar circuit.Backend contract, and asserts observable equality
// after every mutation.
type pair struct {
	t   *testing.T
	nl  *circuit.Netlist
	ref *circuit.Simulator
	ln  circuit.Backend
}

func newPair(t *testing.T, nl *circuit.Netlist) *pair {
	t.Helper()
	ref, err := nl.Compile()
	if err != nil {
		t.Fatalf("reference Compile: %v", err)
	}
	ln, err := lanes.Compile(nl)
	if err != nil {
		t.Fatalf("lanes Compile: %v", err)
	}
	p := &pair{t: t, nl: nl, ref: ref, ln: ln}
	p.check("after compile")
	return p
}

func (p *pair) check(when string) {
	p.t.Helper()
	if rc, lc := p.ref.Cycle(), p.ln.Cycle(); rc != lc {
		p.t.Fatalf("%s: cycle mismatch: ref=%d lanes=%d", when, rc, lc)
	}
	for i := 0; i < p.nl.NumNets(); i++ {
		net := circuit.Net(i)
		if rv, lv := p.ref.Value(net), p.ln.Value(net); rv != lv {
			p.t.Fatalf("%s: net %d value mismatch: ref=%v lanes=%v", when, i, rv, lv)
		}
		if ra, la := p.ref.Arrival(net), p.ln.Arrival(net); ra != la {
			p.t.Fatalf("%s: net %d arrival mismatch: ref=%v lanes=%v", when, i, ra, la)
		}
		if rt, lt := p.ref.Toggles(net), p.ln.Toggles(net); rt != lt {
			p.t.Fatalf("%s: net %d toggles mismatch: ref=%d lanes=%d", when, i, rt, lt)
		}
	}
	ra, la := p.ref.Activity(), p.ln.Activity()
	if !reflect.DeepEqual(ra, la) {
		p.t.Fatalf("%s: activity mismatch:\nref:   %+v\nlanes: %+v", when, ra, la)
	}
}

func (p *pair) set(net circuit.Net, v bool) {
	p.t.Helper()
	p.ref.SetInput(net, v)
	p.ln.SetInput(net, v)
	p.check("after SetInput")
}

func (p *pair) step() {
	p.t.Helper()
	p.ref.Step()
	p.ln.Step()
	p.check("after Step")
}

func (p *pair) run(k int) {
	p.t.Helper()
	p.ref.Run(k)
	p.ln.Run(k)
	p.check("after Run")
}

func (p *pair) reset() {
	p.t.Helper()
	p.ref.Reset()
	p.ln.Reset()
	p.check("after Reset")
}

func TestDelayChainLockstep(t *testing.T) {
	nl := circuit.New()
	in := nl.Input("a")
	out := nl.DelayChain(in, 5)
	p := newPair(t, nl)

	p.set(in, true)
	for i := 0; i < 8; i++ {
		p.step()
	}
	if got := p.ln.Arrival(out); got != 5 {
		t.Errorf("delayed arrival = %v, want 5", got)
	}
	// A second race after Reset must be identical.
	p.reset()
	p.set(in, true)
	p.run(8)
	if got := p.ln.Arrival(out); got != 5 {
		t.Errorf("after reset: delayed arrival = %v, want 5", got)
	}
}

func TestRunUntilQuiescentFastForward(t *testing.T) {
	nl := circuit.New()
	in := nl.Input("a")
	out := nl.DelayChain(in, 3)
	p := newPair(t, nl)

	// Quiescent circuit (input still 0): both backends must advance the
	// clock accounting to the horizon and report Never.
	rt := p.ref.RunUntil(out, 20)
	lt := p.ln.RunUntil(out, 20)
	if rt != lt {
		t.Fatalf("RunUntil mismatch: ref=%v lanes=%v", rt, lt)
	}
	p.check("after quiescent RunUntil")

	p.reset()
	p.set(in, true)
	rt = p.ref.RunUntil(out, 20)
	lt = p.ln.RunUntil(out, 20)
	if rt != lt || lt != 3 {
		t.Fatalf("RunUntil = ref %v, lanes %v; want 3", rt, lt)
	}
	p.check("after racing RunUntil")
}

func TestStickyLatchLockstep(t *testing.T) {
	nl := circuit.New()
	in := nl.Input("pulse")
	latched, immediate := nl.StickyLatch(in)
	p := newPair(t, nl)

	p.set(in, true)
	p.step()
	p.set(in, false) // pulse ends; the latch must hold
	for i := 0; i < 4; i++ {
		p.step()
	}
	if !p.ln.Value(latched) || !p.ln.Value(immediate) {
		t.Error("sticky latch did not hold after the pulse")
	}
}

func TestSatCounterLockstep(t *testing.T) {
	nl := circuit.New()
	en := nl.Input("en")
	bus := nl.SatCounter(3, en)
	p := newPair(t, nl)

	p.set(en, true)
	for i := 0; i < 10; i++ { // runs past saturation at 7
		p.step()
	}
	for _, b := range bus {
		if !p.ln.Value(b) {
			t.Fatal("counter did not saturate at all-ones")
		}
	}
	// Disable and keep clocking: counter bits hold, toggles stay equal.
	p.set(en, false)
	p.run(3)
}

func TestGatedDFFELockstep(t *testing.T) {
	nl := circuit.New()
	d := nl.Input("d")
	en := nl.Input("en")
	q := nl.DFFE(d, en)
	p := newPair(t, nl)

	p.set(d, true)
	p.step() // enable low: no sample, but ffClockedCycles differ per engine if wrong
	if p.ln.Value(q) {
		t.Error("gated FF sampled while disabled")
	}
	p.set(en, true)
	p.step()
	if !p.ln.Value(q) {
		t.Error("gated FF did not sample once enabled")
	}
	p.set(en, false)
	p.set(d, false)
	p.run(3)
	if !p.ln.Value(q) {
		t.Error("gated FF lost state while disabled")
	}
}

func TestPatchedEnableAndDFFInit(t *testing.T) {
	nl := circuit.New()
	d := nl.Input("d")
	q := nl.DFFE(d, circuit.One)
	// The enable ends up driven by a sticky latch built after the FF —
	// the construction order gated fabrics rely on.
	trig := nl.Input("trig")
	_, imm := nl.StickyLatch(trig)
	gateOff := nl.Not(imm)
	if err := nl.PatchEnable(q, gateOff); err != nil {
		t.Fatal(err)
	}
	one := nl.DFFInit(circuit.Zero, true) // init-1 FF decays to 0 after one edge
	p := newPair(t, nl)

	if !p.ln.Value(one) {
		t.Error("init-1 FF not 1 at power-on")
	}
	p.set(d, true)
	p.step()
	if !p.ln.Value(q) {
		t.Error("FF did not sample while ungated")
	}
	p.set(trig, true) // latch sets, enable drops this settle
	p.set(d, false)
	p.run(4)
	if !p.ln.Value(q) {
		t.Error("FF changed state after its clock was gated off")
	}
}

func TestMuxTreeLockstep(t *testing.T) {
	nl := circuit.New()
	s0, s1 := nl.Input("s0"), nl.Input("s1")
	a, b, c, d := nl.Input("a"), nl.Input("b"), nl.Input("c"), nl.Input("d")
	out := nl.MuxN([]circuit.Net{s0, s1}, []circuit.Net{a, b, c, d})
	p := newPair(t, nl)

	ins := []circuit.Net{a, b, c, d}
	for sel := 0; sel < 4; sel++ {
		p.set(s0, sel&1 == 1)
		p.set(s1, sel&2 == 2)
		for i, in := range ins {
			p.set(in, true)
			if got := p.ln.Value(out); got != (i == sel) {
				t.Errorf("sel=%d in=%d: out=%v", sel, i, got)
			}
			p.set(in, false)
		}
	}
}

func TestCombLoopRejected(t *testing.T) {
	nl := circuit.New()
	in := nl.Input("a")
	x := nl.Or(in, circuit.Zero) // placeholder second input, patched into a loop
	y := nl.And(x, circuit.One)
	// Rewire the OR to read the AND: a pure combinational cycle.
	g := nl.Gate(int(x) - 2)
	g.In[1] = y
	if _, err := lanes.Compile(nl); !errors.Is(err, circuit.ErrCombLoop) {
		t.Fatalf("lanes Compile error = %v, want ErrCombLoop", err)
	}
	if _, err := nl.Compile(); !errors.Is(err, circuit.ErrCombLoop) {
		t.Fatalf("reference Compile error = %v, want ErrCombLoop", err)
	}
}

// TestRandomSequentialLockstep drives a randomly wired (acyclic by
// construction) netlist with random stimulus — a miniature of the
// internal/oracle property suite that runs in every short test pass.
func TestRandomSequentialLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		nl := circuit.New()
		var pool []circuit.Net
		inputs := make([]circuit.Net, 3)
		for i := range inputs {
			inputs[i] = nl.Input(string(rune('a' + i)))
			pool = append(pool, inputs[i])
		}
		pool = append(pool, circuit.Zero, circuit.One)
		pick := func() circuit.Net { return pool[rng.Intn(len(pool))] }
		for g := 0; g < 40; g++ {
			var n circuit.Net
			switch rng.Intn(8) {
			case 0:
				n = nl.Not(pick())
			case 1:
				n = nl.And(pick(), pick())
			case 2:
				n = nl.Or(pick(), pick(), pick())
			case 3:
				n = nl.Xor(pick(), pick())
			case 4:
				n = nl.Xnor(pick(), pick())
			case 5:
				n = nl.Mux2(pick(), pick(), pick())
			case 6:
				n = nl.DFF(pick())
			default:
				n = nl.DFFE(pick(), pick())
			}
			pool = append(pool, n)
		}
		p := newPair(t, nl)
		for op := 0; op < 30; op++ {
			switch rng.Intn(3) {
			case 0:
				p.set(inputs[rng.Intn(len(inputs))], rng.Intn(2) == 1)
			case 1:
				p.step()
			default:
				p.run(rng.Intn(5))
			}
		}
		p.reset()
		p.set(inputs[0], true)
		p.run(10)
	}
}
