package lanes

import (
	"fmt"
	"reflect"
	"testing"

	"racelogic/internal/circuit"
)

// spillOf returns a Sim's overflow table, nil until a count spilled.
func spillOf(s *Sim) []uint64 {
	switch k := s.k.(type) {
	case *kernel[[1]uint64]:
		return k.spill
	case *kernel[[2]uint64]:
		return k.spill
	case *kernel[[4]uint64]:
		return k.spill
	case *kernel[[8]uint64]:
		return k.spill
	}
	panic(fmt.Sprintf("lanes: unexpected kernel %T", s.k))
}

// counterRace builds a netlist whose output fires the cycle a binary
// counter, started by en, reaches the target carried on the t pins
// (LSB first).  Counter bit 0 toggles every cycle while it counts, so
// a lane racing to a target above 2^counterPlanes carries its toggle
// counters past the top plane.
func counterRace(width int) (nl *circuit.Netlist, en circuit.Net, t []circuit.Net, out circuit.Net) {
	nl = circuit.New()
	en = nl.Input("en")
	t = make([]circuit.Net, width)
	for i := range t {
		t[i] = nl.Input(fmt.Sprintf("t%d", i))
	}
	q := nl.SatCounter(width, en)
	match := []circuit.Net{en}
	for i := range q {
		match = append(match, nl.Xnor(q[i], t[i]))
	}
	return nl, en, t, nl.And(match...)
}

// TestLaneAccountingPastCounterHeight races lanes that freeze at
// different cycles, most of them beyond 2^counterPlanes, and checks
// every lane's stop cycle, per-net arrivals and full Activity against a
// solo cycle-accurate race of the same candidate.  The long lanes toggle
// counter bit 0 more often than the bit-sliced counters can hold, so
// their counts are only right if the overflow table is.
func TestLaneAccountingPastCounterHeight(t *testing.T) {
	const bitsN = 17
	const maxCycles = 70000
	nl, en, tpins, out := counterRace(bitsN)
	races := []struct {
		lane   int
		target uint64
	}{
		{0, 68000}, {5, 30000}, {63, 65535}, {64, 65537}, {100, 69999},
		{127, 1<<bitsN - 1}, // never fires within the bound
	}

	ls, err := CompileWords(nl, 2)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]uint64, ls.Words())
	for _, r := range races {
		mask[r.lane>>6] |= 1 << uint(r.lane&63)
	}
	ls.SetActiveLanes(mask)
	ws := make([]uint64, ls.Words())
	for i, pin := range tpins {
		for w := range ws {
			ws[w] = 0
		}
		for _, r := range races {
			if r.target>>uint(i)&1 != 0 {
				ws[r.lane>>6] |= 1 << uint(r.lane&63)
			}
		}
		ls.SetInputWords(pin, ws)
	}
	ls.SetInputWords(en, mask)
	ls.RaceUntil(out, maxCycles)

	spilled := false
	for _, r := range races {
		l := r.lane
		ref, err := nl.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for i, pin := range tpins {
			ref.SetInput(pin, r.target>>uint(i)&1 != 0)
		}
		ref.SetInput(en, true)
		ref.RunUntil(out, maxCycles)

		if got, want := ls.LaneCycle(l), ref.Cycle(); got != want {
			t.Fatalf("lane %d: stopped at cycle %d, reference at %d", l, got, want)
		}
		for n := 0; n < nl.NumNets(); n++ {
			net := circuit.Net(n)
			if got, want := ls.LaneArrival(net, l), ref.Arrival(net); got != want {
				t.Fatalf("lane %d net %d: arrival %v, reference %v", l, n, got, want)
			}
		}
		want := ref.Activity()
		if got := ls.LaneActivity(l); !reflect.DeepEqual(got, want) {
			t.Fatalf("lane %d: activity\n got %+v\nwant %+v", l, got, want)
		}
		if want.NetToggles[circuit.KindDFF] > 1<<counterPlanes {
			spilled = true
		}
	}
	if !spilled || spillOf(ls) == nil {
		t.Fatalf("no lane carried a toggle counter past 2^%d; the race is too short to test the overflow table", counterPlanes)
	}

	// Reset must clear the overflow table along with the planes.
	ls.Reset()
	for _, r := range races {
		if a := ls.LaneActivity(r.lane); a.NetToggles != [circuit.NumKinds]uint64{} || a.LoadToggles != [circuit.NumKinds]uint64{} {
			t.Fatalf("lane %d after Reset: toggles %v / %v, want none", r.lane, a.NetToggles, a.LoadToggles)
		}
	}
}

// TestFirstRiseFoldPastCounterHeight races one lane of a netlist whose
// input fans out to 2^counterPlanes+5 buffers: one toggle class whose
// every net rises exactly once.  Those first rises reach the class
// counter only through the rise-log fold, so the lane's count is right
// only if the fold carries past the top plane into the overflow table.
func TestFirstRiseFoldPastCounterHeight(t *testing.T) {
	const fanout = 1<<counterPlanes + 5
	const lane = 37
	nl := circuit.New()
	in := nl.Input("in")
	var last circuit.Net
	for i := 0; i < fanout; i++ {
		last = nl.Buf(in)
	}

	ls, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	mask := []uint64{1 << lane}
	ls.SetActiveLanes(mask)
	ls.SetInputWords(in, mask)
	ls.RaceUntil(last, 4)

	ref, err := nl.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ref.SetInput(in, true)
	ref.RunUntil(last, 4)

	want := ref.Activity()
	if want.NetToggles[circuit.KindBuf] != fanout {
		t.Fatalf("reference counts %d buffer toggles, want %d", want.NetToggles[circuit.KindBuf], fanout)
	}
	if got := ls.LaneCycle(lane); got != ref.Cycle() {
		t.Fatalf("lane stopped at cycle %d, reference at %d", got, ref.Cycle())
	}
	if got := ls.LaneActivity(lane); !reflect.DeepEqual(got, want) {
		t.Fatalf("activity\n got %+v\nwant %+v", got, want)
	}
	if spillOf(ls) == nil {
		t.Fatalf("no count spilled past 2^%d", counterPlanes)
	}
}
