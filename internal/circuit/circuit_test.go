package circuit

import (
	"testing"

	"racelogic/internal/temporal"
)

func TestConstants(t *testing.T) {
	n := New()
	s := n.MustCompile()
	if s.Value(Zero) {
		t.Error("Zero net should be false")
	}
	if !s.Value(One) {
		t.Error("One net should be true")
	}
	s.Step()
	if s.Value(Zero) || !s.Value(One) {
		t.Error("constants must hold across cycles")
	}
}

func TestCombinationalGates(t *testing.T) {
	n := New()
	a := n.Input("a")
	b := n.Input("b")
	and := n.And(a, b)
	or := n.Or(a, b)
	xor := n.Xor(a, b)
	xnor := n.Xnor(a, b)
	not := n.Not(a)
	buf := n.Buf(a)
	mux := n.Mux2(a, b, One) // a ? 1 : b
	s := n.MustCompile()

	cases := []struct {
		av, bv                                   bool
		wAnd, wOr, wXor, wXnor, wNot, wBuf, wMux bool
	}{
		{false, false, false, false, false, true, true, false, false},
		{false, true, false, true, true, false, true, false, true},
		{true, false, false, true, true, false, false, true, true},
		{true, true, true, true, false, true, false, true, true},
	}
	for _, c := range cases {
		s.SetInput(a, c.av)
		s.SetInput(b, c.bv)
		s.Step()
		check := func(name string, net Net, want bool) {
			if got := s.Value(net); got != want {
				t.Errorf("a=%v b=%v: %s = %v, want %v", c.av, c.bv, name, got, want)
			}
		}
		check("and", and, c.wAnd)
		check("or", or, c.wOr)
		check("xor", xor, c.wXor)
		check("xnor", xnor, c.wXnor)
		check("not", not, c.wNot)
		check("buf", buf, c.wBuf)
		check("mux", mux, c.wMux)
	}
}

func TestDegenerateAndOr(t *testing.T) {
	n := New()
	a := n.Input("a")
	if n.And() != One {
		t.Error("0-ary AND must be constant One")
	}
	if n.Or() != Zero {
		t.Error("0-ary OR must be constant Zero")
	}
	if n.And(a) != a || n.Or(a) != a {
		t.Error("1-ary AND/OR must be the identity")
	}
}

func TestNaryGates(t *testing.T) {
	n := New()
	ins := make([]Net, 5)
	for i := range ins {
		ins[i] = n.Input(string(rune('a' + i)))
	}
	and := n.And(ins...)
	or := n.Or(ins...)
	s := n.MustCompile()
	for i := range ins {
		s.SetInput(ins[i], true)
	}
	s.Step()
	if !s.Value(and) || !s.Value(or) {
		t.Error("all-ones: AND and OR should be 1")
	}
	s.SetInput(ins[2], false)
	s.Step()
	if s.Value(and) {
		t.Error("one zero input must kill a 5-ary AND")
	}
	if !s.Value(or) {
		t.Error("OR must survive one zero input")
	}
}

func TestDFFDelaysByOneCycle(t *testing.T) {
	n := New()
	a := n.Input("a")
	q := n.DFF(a)
	s := n.MustCompile()
	if s.Value(q) {
		t.Error("DFF must power on at 0")
	}
	s.SetInput(a, true)
	// The settled combinational value sees a=1 but Q is still old.
	s.Step()
	if !s.Value(q) {
		t.Error("Q should be 1 one cycle after D went 1")
	}
	s.SetInput(a, false)
	s.Step()
	if s.Value(q) {
		t.Error("Q should track D with one cycle of delay")
	}
}

func TestDFFInit(t *testing.T) {
	n := New()
	q := n.DFFInit(Zero, true)
	s := n.MustCompile()
	if !s.Value(q) {
		t.Error("DFFInit(1) must power on at 1")
	}
	s.Step()
	if s.Value(q) {
		t.Error("after one clock Q must have sampled D=0")
	}
}

func TestDFFEHoldsWhenDisabled(t *testing.T) {
	n := New()
	d := n.Input("d")
	en := n.Input("en")
	q := n.DFFE(d, en)
	s := n.MustCompile()
	s.SetInput(d, true)
	s.SetInput(en, false)
	s.Step()
	if s.Value(q) {
		t.Error("disabled DFFE must hold 0")
	}
	s.SetInput(en, true)
	s.Step()
	if !s.Value(q) {
		t.Error("enabled DFFE must sample D")
	}
	s.SetInput(d, false)
	s.SetInput(en, false)
	s.Step()
	if !s.Value(q) {
		t.Error("disabled DFFE must hold its 1")
	}
}

func TestDelayChainArrival(t *testing.T) {
	n := New()
	a := n.Input("a")
	d5 := n.DelayChain(a, 5)
	d0 := n.DelayChain(a, 0)
	s := n.MustCompile()
	s.SetInput(a, true)
	got := s.RunUntil(d5, 100)
	if got != 5 {
		t.Errorf("5-stage delay chain arrival = %v, want 5", got)
	}
	if d0 != a {
		t.Error("0-stage delay chain must be the input net itself")
	}
}

func TestDelayChainNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n := New()
	n.DelayChain(n.Input("a"), -1)
}

func TestCombinationalLoopDetected(t *testing.T) {
	n := New()
	a := n.Input("a")
	// Build or1 = OR(a, placeholder), then patch the placeholder to close
	// a purely combinational loop through an AND.
	or1 := n.Or(a, Zero)
	and1 := n.And(or1, One)
	n.gates[int(or1)-2].in[1] = and1
	if _, err := n.Compile(); err != ErrCombLoop {
		t.Errorf("Compile = %v, want ErrCombLoop", err)
	}
}

func TestLoopThroughDFFIsFine(t *testing.T) {
	n := New()
	trig := n.Input("t")
	latched, _ := n.StickyLatch(trig)
	if _, err := n.Compile(); err != nil {
		t.Errorf("feedback through a DFF must compile: %v", err)
	}
	_ = latched
}

func TestStickyLatch(t *testing.T) {
	n := New()
	trig := n.Input("t")
	latched, imm := n.StickyLatch(trig)
	s := n.MustCompile()
	s.Step()
	if s.Value(latched) || s.Value(imm) {
		t.Error("latch must stay 0 before any trigger")
	}
	s.SetInput(trig, true)
	s.Step()
	if !s.Value(imm) {
		t.Error("immediate view must go high with the trigger")
	}
	s.SetInput(trig, false) // one-cycle pulse
	s.Step()
	if !s.Value(latched) || !s.Value(imm) {
		t.Error("latch must hold after a one-cycle pulse")
	}
	s.Run(10)
	if !s.Value(latched) {
		t.Error("latch must hold indefinitely")
	}
}

func TestSatCounterCountsAndSaturates(t *testing.T) {
	n := New()
	en := n.Input("en")
	bus := n.SatCounter(3, en) // saturates at 7
	s := n.MustCompile()
	read := func() int {
		v := 0
		for i, b := range bus {
			if s.Value(b) {
				v |= 1 << uint(i)
			}
		}
		return v
	}
	if read() != 0 {
		t.Fatalf("counter must power on at 0, got %d", read())
	}
	s.SetInput(en, true)
	for want := 1; want <= 7; want++ {
		s.Step()
		if read() != want {
			t.Fatalf("after %d enabled cycles counter = %d", want, read())
		}
	}
	s.Run(5)
	if read() != 7 {
		t.Errorf("counter must saturate at 7, got %d", read())
	}
	// Disable: must hold.
	s.SetInput(en, false)
	s.Step()
	if read() != 7 {
		t.Errorf("disabled counter must hold, got %d", read())
	}
}

func TestSatCounterHoldsWhileDisabled(t *testing.T) {
	n := New()
	en := n.Input("en")
	bus := n.SatCounter(4, en)
	s := n.MustCompile()
	s.SetInput(en, true)
	s.Run(5)
	s.SetInput(en, false)
	s.Run(7)
	v := 0
	for i, b := range bus {
		if s.Value(b) {
			v |= 1 << uint(i)
		}
	}
	if v != 5 {
		t.Errorf("counter = %d after 5 enabled + 7 disabled cycles, want 5", v)
	}
}

func TestEqualsConst(t *testing.T) {
	n := New()
	en := n.Input("en")
	bus := n.SatCounter(3, en)
	eq5 := n.EqualsConst(bus, 5)
	eq0 := n.EqualsConst(bus, 0)
	s := n.MustCompile()
	if !s.Value(eq0) {
		t.Error("eq0 must be 1 at power-on")
	}
	s.SetInput(en, true)
	got := s.RunUntil(eq5, 100)
	if got != 5 {
		t.Errorf("counter reaches 5 at cycle %v, want 5", got)
	}
}

func TestEqualsConstValidation(t *testing.T) {
	n := New()
	bus := []Net{One, Zero}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range constant")
		}
	}()
	n.EqualsConst(bus, 4)
}

func TestMuxN(t *testing.T) {
	n := New()
	s0 := n.Input("s0")
	s1 := n.Input("s1")
	// inputs[i] = 1 iff i == 2 (s1=1, s0=0)
	out := n.MuxN([]Net{s0, s1}, []Net{Zero, Zero, One, Zero})
	s := n.MustCompile()
	for i := 0; i < 4; i++ {
		s.SetInput(s0, i&1 == 1)
		s.SetInput(s1, i&2 == 2)
		s.Step()
		want := i == 2
		if s.Value(out) != want {
			t.Errorf("sel=%d: out = %v, want %v", i, s.Value(out), want)
		}
	}
}

func TestMuxNValidation(t *testing.T) {
	n := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong input count")
		}
	}()
	n.MuxN([]Net{One}, []Net{Zero, One, Zero})
}

func TestConstBus(t *testing.T) {
	n := New()
	bus := n.ConstBus(4, 0b1010)
	want := []Net{Zero, One, Zero, One}
	for i := range bus {
		if bus[i] != want[i] {
			t.Errorf("ConstBus bit %d = %v, want %v", i, bus[i], want[i])
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 255: 8, 256: 9}
	for v, want := range cases {
		if got := BitsFor(v); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestToggleCounting(t *testing.T) {
	n := New()
	a := n.Input("a")
	inv := n.Not(a)
	s := n.MustCompile()
	for i := 0; i < 10; i++ {
		s.SetInput(a, i%2 == 0)
		s.Step()
	}
	// a toggles on every step (0→1,1→0,...): 10 toggles; inv likewise.
	if got := s.Toggles(a); got != 10 {
		t.Errorf("input toggles = %d, want 10", got)
	}
	if got := s.Toggles(inv); got != 10 {
		t.Errorf("inverter toggles = %d, want 10", got)
	}
}

func TestActivityReport(t *testing.T) {
	n := New()
	a := n.Input("a")
	q := n.DFF(a)
	n.And(q, a)
	s := n.MustCompile()
	s.SetInput(a, true)
	s.Run(4)
	act := s.Activity()
	if act.Cycles != 4 {
		t.Errorf("Cycles = %d, want 4", act.Cycles)
	}
	if act.NumDFFs != 1 {
		t.Errorf("NumDFFs = %d, want 1", act.NumDFFs)
	}
	if act.FFClockedCycles != 4 {
		t.Errorf("FFClockedCycles = %d, want 4 (ungated DFF clocks every cycle)", act.FFClockedCycles)
	}
	if c := n.CountByKind(); c[KindAnd] != 1 || c[KindDFF] != 1 || c[KindInput] != 1 {
		t.Errorf("CountByKind = %v", c)
	}
	if act.TotalNetToggles() == 0 {
		t.Error("expected some toggles")
	}
}

func TestGatedFFClockedCycles(t *testing.T) {
	n := New()
	d := n.Input("d")
	en := n.Input("en")
	n.DFFE(d, en)
	s := n.MustCompile()
	s.SetInput(en, true)
	s.Run(3)
	s.SetInput(en, false)
	s.Run(5)
	act := s.Activity()
	if act.FFClockedCycles != 3 {
		t.Errorf("FFClockedCycles = %d, want 3 (only enabled cycles count)", act.FFClockedCycles)
	}
}

func TestRunUntilNeverArrives(t *testing.T) {
	n := New()
	a := n.Input("a")
	d := n.DelayChain(a, 3)
	s := n.MustCompile()
	// a stays 0: the edge never arrives.
	if got := s.RunUntil(d, 20); got != temporal.Never {
		t.Errorf("RunUntil = %v, want Never", got)
	}
	if s.Cycle() != 20 {
		t.Errorf("Cycle = %d, want 20 (ran to the bound)", s.Cycle())
	}
}

func TestArrivalTimeZero(t *testing.T) {
	n := New()
	a := n.Input("a")
	s := n.MustCompile()
	s.SetInput(a, true)
	// Inputs take effect immediately: the injected "1" arrives at cycle 0.
	if got := s.Arrival(a); got != 0 {
		t.Errorf("Arrival = %v, want 0", got)
	}
	if got := s.Arrival(One); got != 0 {
		t.Errorf("constant One arrival = %v, want 0", got)
	}
}

func TestSetInputOnNonInputPanics(t *testing.T) {
	n := New()
	a := n.Input("a")
	inv := n.Not(a)
	s := n.MustCompile()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.SetInput(inv, true)
}

func TestInputNameLookup(t *testing.T) {
	n := New()
	a := n.Input("alpha")
	got, err := n.InputNet("alpha")
	if err != nil || got != a {
		t.Errorf("InputNet = %v, %v", got, err)
	}
	if _, err := n.InputNet("missing"); err == nil {
		t.Error("expected error for unknown input")
	}
	s := n.MustCompile()
	if err := s.SetInputName("alpha", true); err != nil {
		t.Error(err)
	}
	if err := s.SetInputName("missing", true); err == nil {
		t.Error("expected error")
	}
}

func TestDuplicateInputPanics(t *testing.T) {
	n := New()
	n.Input("x")
	defer func() {
		if recover() == nil {
			t.Error("expected panic for duplicate input name")
		}
	}()
	n.Input("x")
}

func TestNetlistCounters(t *testing.T) {
	n := New()
	a := n.Input("a")
	b := n.Input("b")
	n.DFF(n.And(a, b))
	if n.NumInputs() != 2 {
		t.Errorf("NumInputs = %d", n.NumInputs())
	}
	if n.NumDFFs() != 1 {
		t.Errorf("NumDFFs = %d", n.NumDFFs())
	}
	if n.NumGates() != 4 {
		t.Errorf("NumGates = %d, want 4 (2 inputs + and + dff)", n.NumGates())
	}
	if n.NumNets() != 6 {
		t.Errorf("NumNets = %d, want 6", n.NumNets())
	}
	fi := n.FanIn()
	if fi[KindAnd] != 2 || fi[KindDFF] != 1 {
		t.Errorf("FanIn = %v", fi)
	}
}

func TestKindString(t *testing.T) {
	if KindAnd.String() != "and" || KindDFF.String() != "dff" {
		t.Error("Kind.String wrong")
	}
	if !KindDFF.IsSequential() || KindOr.IsSequential() {
		t.Error("IsSequential wrong")
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind must still render")
	}
}
