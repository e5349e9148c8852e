// Package oracle is the differential-testing harness that licenses the
// fast simulation backend: the cycle-accurate simulator is the oracle,
// and every observable — per-net values, first-arrival times, toggle
// counts, cycle counters, and the full Activity report — must be
// identical between it and the bit-parallel lanes engine after every
// operation, on every netlist, under every stimulus.
//
// The harness has two generator halves sharing one decoder:
//
//   - property tests drive the decoder from a seeded math/rand source,
//     sweeping thousands of random netlists and stimulus scripts per
//     test run;
//   - FuzzLockstepEquivalence, FuzzLanesBackendEquivalence and
//     FuzzSymbolLoadEquivalence drive the same decoders from raw fuzzer
//     bytes, so coverage-guided mutation explores netlist and schedule
//     shapes no seed thought of.
//
// CheckEquivalence drives the lanes engine through the scalar
// circuit.Backend contract, every lane in lockstep.  The lanes engine
// gets a second, word-parallel check on top of that lockstep one:
// CheckLaneEquivalence decodes a per-lane stimulus
// schedule, runs it through one lanes simulation carrying several
// divergent candidates at once, and compares every lane against its own
// dedicated cycle-accurate simulation.
//
// The lanes engine's tabulated symbol load has a check of its own:
// CheckSymbolLoadEquivalence builds a random grid of uniform cells,
// loads its symbols into one lanes engine through LoadSymbols and into
// a twin pin by pin, and compares every lane's observables after the
// load and after a race.
//
// Higher layers get their own differential coverage in oracle_test.go:
// the three race arrays (plain, clock-gated, generalized) and whole
// Databases across shard counts are raced on both backends and the
// resulting AlignResults/SearchReports compared field by field.
package oracle

import (
	"fmt"
	"math/rand"

	"racelogic/internal/circuit"
	"racelogic/internal/circuit/lanes"
)

// Source is the decision stream a generator consumes: Next(n) yields a
// value in [0, n).  Wrapping math/rand gives the property tests;
// wrapping a fuzzer's byte slice gives the fuzz target.  The two halves
// generate from the same code, so every shape the fuzzer can reach the
// property tests can reproduce from a seed, and vice versa.
type Source interface {
	Next(n int) int
}

// randSource adapts a seeded math/rand stream.
type randSource struct{ rng *rand.Rand }

// NewRandSource wraps a seeded PRNG as a Source.
func NewRandSource(rng *rand.Rand) Source { return randSource{rng} }

func (s randSource) Next(n int) int { return s.rng.Intn(n) }

// ByteSource consumes fuzzer data one byte per decision, ending the
// stream (always answering 0) when the data runs out — which steers the
// decoder toward "stop" choices and keeps every input terminating.
type ByteSource struct {
	data []byte
	i    int
}

// NewByteSource wraps raw fuzz input as a Source.
func NewByteSource(data []byte) *ByteSource { return &ByteSource{data: data} }

func (s *ByteSource) Next(n int) int {
	if n <= 1 {
		return 0
	}
	if s.i >= len(s.data) {
		return 0
	}
	v := int(s.data[s.i]) % n
	s.i++
	return v
}

// maxGates bounds generated netlists: big enough to exercise deep
// levelization, macro feedback, and gated regions, small enough that a
// fuzz iteration stays fast.
const maxGates = 96

// GenerateNetlist decodes a random acyclic netlist from src.  The
// construction draws from the same builder vocabulary the real arrays
// use — primitive gates, plain and enabled flip-flops, delay chains,
// sticky latches, saturating counters — including the post-hoc D-input
// and enable patching that makes FF feedback legal.  It returns the
// netlist and its input pins (at least one).
func GenerateNetlist(src Source) (*circuit.Netlist, []circuit.Net) {
	nl := circuit.New()
	nIn := 1 + src.Next(4)
	inputs := make([]circuit.Net, nIn)
	pool := []circuit.Net{circuit.Zero, circuit.One}
	for i := range inputs {
		inputs[i] = nl.Input(fmt.Sprintf("in%d", i))
		pool = append(pool, inputs[i])
	}
	pick := func() circuit.Net { return pool[src.Next(len(pool))] }
	steps := src.Next(48)
	for s := 0; s < steps && nl.NumGates() < maxGates; s++ {
		switch src.Next(12) {
		case 0:
			pool = append(pool, nl.Not(pick()))
		case 1:
			pool = append(pool, nl.And(pick(), pick()))
		case 2:
			pool = append(pool, nl.Or(pick(), pick(), pick()))
		case 3:
			pool = append(pool, nl.Xor(pick(), pick()))
		case 4:
			pool = append(pool, nl.Xnor(pick(), pick()))
		case 5:
			pool = append(pool, nl.Mux2(pick(), pick(), pick()))
		case 6:
			pool = append(pool, nl.Buf(pick()))
		case 7:
			pool = append(pool, nl.DFF(pick()))
		case 8:
			pool = append(pool, nl.DFFE(pick(), pick()))
		case 9:
			pool = append(pool, nl.DelayChain(pick(), 1+src.Next(4)))
		case 10:
			latched, immediate := nl.StickyLatch(pick())
			pool = append(pool, latched, immediate)
		default:
			pool = append(pool, nl.SatCounter(1+src.Next(3), pick())...)
		}
	}
	return nl, inputs
}

// Op is one stimulus action of a Script.
type Op struct {
	// Kind selects the action: 0 = SetInput, 1 = Step, 2 = Run, 3 = Reset.
	Kind int
	// Input indexes the netlist's input pins (SetInput only).
	Input int
	// Value is the driven level (SetInput only).
	Value bool
	// K is the cycle count (Run only).
	K int
}

// GenerateScript decodes a stimulus schedule for nIn input pins.
func GenerateScript(src Source, nIn int) []Op {
	ops := make([]Op, 0, 32)
	n := src.Next(40)
	for i := 0; i < n; i++ {
		switch src.Next(8) {
		case 0, 1, 2:
			ops = append(ops, Op{Kind: 0, Input: src.Next(nIn), Value: src.Next(2) == 1})
		case 3, 4:
			ops = append(ops, Op{Kind: 1})
		case 5, 6:
			ops = append(ops, Op{Kind: 2, K: src.Next(6)})
		default:
			ops = append(ops, Op{Kind: 3})
		}
	}
	// Always finish with a burst long enough to drain every delay chain,
	// so scripts that never stepped still exercise the clock.
	return append(ops, Op{Kind: 0, Input: 0, Value: true}, Op{Kind: 2, K: 12})
}

// Diverged describes the first observable difference between the
// reference and a candidate backend — the failure artifact a property
// test or fuzz crash prints.
type Diverged struct {
	Backend string // which candidate disagreed ("lanes", "lanes[k@l]")
	Op      int    // index into the script, -1 for the post-compile state
	What    string
	Net     circuit.Net
	Cycle   bool
}

func (d *Diverged) Error() string {
	if d.Op < 0 {
		return fmt.Sprintf("oracle: %s diverges after compile: %s (net %d)", d.Backend, d.What, d.Net)
	}
	return fmt.Sprintf("oracle: %s diverges after op %d: %s (net %d)", d.Backend, d.Op, d.What, d.Net)
}

// compareState asserts every per-net observable plus the cycle counter
// and Activity report agree between the reference and the candidate.
func compareState(nl *circuit.Netlist, ref, cand circuit.Backend, name string, op int) error {
	if ref.Cycle() != cand.Cycle() {
		return &Diverged{Backend: name, Op: op, What: fmt.Sprintf("cycle %d vs %d", ref.Cycle(), cand.Cycle()), Cycle: true}
	}
	for i := 0; i < nl.NumNets(); i++ {
		net := circuit.Net(i)
		if rv, cv := ref.Value(net), cand.Value(net); rv != cv {
			return &Diverged{Backend: name, Op: op, What: fmt.Sprintf("value %v vs %v", rv, cv), Net: net}
		}
		if ra, ca := ref.Arrival(net), cand.Arrival(net); ra != ca {
			return &Diverged{Backend: name, Op: op, What: fmt.Sprintf("arrival %v vs %v", ra, ca), Net: net}
		}
		if rt, ct := ref.Toggles(net), cand.Toggles(net); rt != ct {
			return &Diverged{Backend: name, Op: op, What: fmt.Sprintf("toggles %d vs %d", rt, ct), Net: net}
		}
	}
	return compareActivity(ref.Activity(), cand.Activity(), name, op)
}

// compareActivity asserts the clock and per-kind toggle tallies of two
// Activity reports agree (NumDFFs comes from the shared netlist).
func compareActivity(ra, ca circuit.Activity, name string, op int) error {
	if ra.FFClockedCycles != ca.FFClockedCycles {
		return &Diverged{Backend: name, Op: op, What: fmt.Sprintf("ffClockedCycles %d vs %d", ra.FFClockedCycles, ca.FFClockedCycles)}
	}
	for k := circuit.Kind(0); k < circuit.NumKinds; k++ {
		if ra.NetToggles[k] != ca.NetToggles[k] {
			return &Diverged{Backend: name, Op: op, What: fmt.Sprintf("NetToggles[%v] %d vs %d", k, ra.NetToggles[k], ca.NetToggles[k])}
		}
		if ra.LoadToggles[k] != ca.LoadToggles[k] {
			return &Diverged{Backend: name, Op: op, What: fmt.Sprintf("LoadToggles[%v] %d vs %d", k, ra.LoadToggles[k], ca.LoadToggles[k])}
		}
	}
	return nil
}

// CheckEquivalence compiles nl under the reference and the lanes
// engine, applies the script to both in lockstep through the scalar
// circuit.Backend contract, and returns the first divergence (nil when
// they agree everywhere).  The compiles must agree on success; a
// combinational loop (possible for decoded netlists only through
// builder misuse, not this package's generators) must be rejected by
// both.
func CheckEquivalence(nl *circuit.Netlist, inputs []circuit.Net, script []Op) error {
	ref, rerr := nl.Compile()
	ln, lnerr := lanes.Compile(nl)
	if (rerr == nil) != (lnerr == nil) {
		return fmt.Errorf("oracle: compile disagreement: reference %v, lanes %v", rerr, lnerr)
	}
	if rerr != nil {
		return nil // both rejected: agreement
	}
	if err := compareState(nl, ref, ln, "lanes", -1); err != nil {
		return err
	}
	for i, op := range script {
		for _, sim := range []circuit.Backend{ref, ln} {
			switch op.Kind {
			case 0:
				sim.SetInput(inputs[op.Input%len(inputs)], op.Value)
			case 1:
				sim.Step()
			case 2:
				sim.Run(op.K)
			default:
				sim.Reset()
			}
		}
		if err := compareState(nl, ref, ln, "lanes", i); err != nil {
			return err
		}
	}
	return nil
}

// CheckBytes is the fuzz entry point: decode a netlist and script from
// raw bytes and check equivalence.  Inputs too small to mean anything
// decode into tiny-but-valid cases, so there are no rejected inputs.
func CheckBytes(data []byte) error {
	src := NewByteSource(data)
	nl, inputs := GenerateNetlist(src)
	script := GenerateScript(src, len(inputs))
	return CheckEquivalence(nl, inputs, script)
}

// CheckSeed is the property-test entry point: the same decoder driven
// by a seeded PRNG.
func CheckSeed(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	src := NewRandSource(rng)
	nl, inputs := GenerateNetlist(src)
	script := GenerateScript(src, len(inputs))
	return CheckEquivalence(nl, inputs, script)
}

// LaneOp is one stimulus action of a per-lane script: like Op, but a
// SetInput drives each lane with its own bit of Word, so the lanes
// diverge the way a real candidate pack does.
type LaneOp struct {
	// Kind selects the action: 0 = SetInputWord, 1 = Step, 2 = Run, 3 = Reset.
	Kind int
	// Input indexes the netlist's input pins (SetInputWord only).
	Input int
	// Word carries the driven level of every lane (SetInputWord only).
	Word uint64
	// K is the cycle count (Run only).
	K int
}

// maxCheckLanes bounds the word-parallel check's pack width: wide
// enough that lane masks, per-lane accounting, and cross-lane isolation
// are all exercised, narrow enough that the per-lane reference
// simulations stay cheap.
const maxCheckLanes = 8

// GenerateLaneScript decodes a per-lane stimulus schedule for nIn input
// pins and the given pack width.
func GenerateLaneScript(src Source, nIn, width int) []LaneOp {
	ops := make([]LaneOp, 0, 32)
	word := func() uint64 {
		var w uint64
		for l := 0; l < width; l++ {
			if src.Next(2) == 1 {
				w |= 1 << uint(l)
			}
		}
		return w
	}
	n := src.Next(40)
	for i := 0; i < n; i++ {
		switch src.Next(8) {
		case 0, 1, 2, 3:
			ops = append(ops, LaneOp{Kind: 0, Input: src.Next(nIn), Word: word()})
		case 4:
			ops = append(ops, LaneOp{Kind: 1})
		case 5, 6:
			ops = append(ops, LaneOp{Kind: 2, K: src.Next(6)})
		default:
			ops = append(ops, LaneOp{Kind: 3})
		}
	}
	// Finish with a divergent burst so every lane's delay chains drain
	// from distinct frontiers.
	return append(ops,
		LaneOp{Kind: 0, Input: 0, Word: 0x5555555555555555},
		LaneOp{Kind: 2, K: 12})
}

// laneWordChoices are the slab widths the lanes fuzz/property decoders
// draw from — every CompileWords configuration (64 to 512 lanes).
var laneWordChoices = [...]int{1, 2, 4, 8}

// CheckLaneEquivalence runs one lanes simulation compiled with the
// given slab width (words uint64 per net → words·64 lanes) carrying
// width divergent candidates, and width solo cycle-accurate simulations
// in lockstep, and requires every per-lane observable — values,
// arrivals, the per-kind toggle tallies, and the flip-flop clock
// accounting — to match each candidate's own reference exactly.  The
// candidates are scattered across the slab (candidate 0 at lane 0, the
// rest at stride ends up to lane words·64−1) so cross-word masking and
// accounting are exercised without words·64 reference simulations.
// Candidate 0 additionally checks the per-net toggle counters.
func CheckLaneEquivalence(nl *circuit.Netlist, inputs []circuit.Net, script []LaneOp, width, words int) error {
	ln, lnerr := lanes.CompileWords(nl, words)
	ref0, rerr := nl.Compile()
	if (rerr == nil) != (lnerr == nil) {
		return fmt.Errorf("oracle: compile disagreement: reference %v, lanes %v", rerr, lnerr)
	}
	if rerr != nil {
		return nil // both rejected: agreement
	}
	refs := make([]circuit.Backend, width)
	refs[0] = ref0
	for l := 1; l < width; l++ {
		r, err := nl.Compile()
		if err != nil {
			return fmt.Errorf("oracle: reference recompile failed: %v", err)
		}
		refs[l] = r
	}
	stride := words * lanes.WordBits / width
	pos := make([]int, width)
	mask := make([]uint64, words)
	for l := range pos {
		if l > 0 {
			pos[l] = (l+1)*stride - 1
		}
		mask[pos[l]>>6] |= uint64(1) << uint(pos[l]&63)
	}
	ln.SetActiveLanes(mask)
	compare := func(op int) error {
		for l, ref := range refs {
			name := fmt.Sprintf("lanes[%d@%d]", l, pos[l])
			if ref.Cycle() != ln.Cycle() {
				return &Diverged{Backend: name, Op: op, What: fmt.Sprintf("cycle %d vs %d", ref.Cycle(), ln.Cycle()), Cycle: true}
			}
			for i := 0; i < nl.NumNets(); i++ {
				net := circuit.Net(i)
				if rv, cv := ref.Value(net), ln.LaneValue(net, pos[l]); rv != cv {
					return &Diverged{Backend: name, Op: op, What: fmt.Sprintf("value %v vs %v", rv, cv), Net: net}
				}
				if ra, ca := ref.Arrival(net), ln.LaneArrival(net, pos[l]); ra != ca {
					return &Diverged{Backend: name, Op: op, What: fmt.Sprintf("arrival %v vs %v", ra, ca), Net: net}
				}
				if l == 0 {
					if rt, ct := ref.Toggles(net), ln.Toggles(net); rt != ct {
						return &Diverged{Backend: name, Op: op, What: fmt.Sprintf("toggles %d vs %d", rt, ct), Net: net}
					}
				}
			}
			if err := compareActivity(ref.Activity(), ln.LaneActivity(pos[l]), name, op); err != nil {
				return err
			}
		}
		return nil
	}
	if err := compare(-1); err != nil {
		return err
	}
	ws := make([]uint64, words)
	for i, op := range script {
		switch op.Kind {
		case 0:
			net := inputs[op.Input%len(inputs)]
			for w := range ws {
				ws[w] = 0
			}
			for l := range refs {
				if op.Word>>uint(l)&1 != 0 {
					ws[pos[l]>>6] |= uint64(1) << uint(pos[l]&63)
				}
			}
			ln.SetInputWords(net, ws)
			for l, ref := range refs {
				ref.SetInput(net, op.Word>>uint(l)&1 != 0)
			}
		case 1:
			ln.Step()
			for _, ref := range refs {
				ref.Step()
			}
		case 2:
			ln.Run(op.K)
			for _, ref := range refs {
				ref.Run(op.K)
			}
		default:
			ln.Reset()
			ln.SetActiveLanes(mask)
			for _, ref := range refs {
				ref.Reset()
			}
		}
		if err := compare(i); err != nil {
			return err
		}
	}
	return nil
}

// CheckLanesBytes is the lanes fuzz entry point: decode a netlist, a
// slab width, a pack width, and a per-lane script from raw bytes and
// check the word-parallel engine lane by lane against the reference.
func CheckLanesBytes(data []byte) error {
	src := NewByteSource(data)
	nl, inputs := GenerateNetlist(src)
	words := laneWordChoices[src.Next(len(laneWordChoices))]
	width := 2 + src.Next(maxCheckLanes-1)
	script := GenerateLaneScript(src, len(inputs), width)
	return CheckLaneEquivalence(nl, inputs, script, width, words)
}

// CheckLanesSeed is the lanes property-test entry point: the same
// decoder driven by a seeded PRNG.
func CheckLanesSeed(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	src := NewRandSource(rng)
	nl, inputs := GenerateNetlist(src)
	words := laneWordChoices[src.Next(len(laneWordChoices))]
	width := 2 + src.Next(maxCheckLanes-1)
	script := GenerateLaneScript(src, len(inputs), width)
	return CheckLaneEquivalence(nl, inputs, script, width, words)
}
