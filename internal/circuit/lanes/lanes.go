// Package lanes is the bit-parallel simulation backend for compiled
// Race Logic netlists: one Sim races up to 512 independent candidate
// streams ("lanes") through a single compiled netlist at once.
//
// Every net's state is a slab of W uint64 words (W ∈ {1, 2, 4, 8},
// chosen at CompileWords): lane l of a net lives in word l/64, bit l%64.
// One combinational settle wave evaluates AND/OR/XOR/MUX word-slice-wise
// for all W·64 lanes simultaneously — the software analogue of tiling
// W·64 copies of the paper's edit-graph array and clocking them off one
// wavefront.  The engine is event-driven: within a cycle, settle waves
// evaluate only gates whose inputs moved, in level order; across
// cycles, only the flip-flops pending an edge are clocked.  A wave visit
// costs W word operations, so the per-candidate price of gate
// evaluation, wave bookkeeping, and clocking divides by the pack width;
// a single pair races as a pack of one.  A wave is a bitset over the
// comb gates numbered level by level, scanned upward.
//
// The kernel is written once, as a generic type over the slab
// [W]uint64, and instantiated for each of the four widths, so every
// word loop has a constant trip count and indexes its slab without a
// bounds check.  Sim is the width-independent face: it holds the
// compiled structure and forwards each call to its width's kernel.
//
// Flip-flops are armed by a pending edge, not an exact armed set.  A
// slot joins the pending list when its D or enable net moves.  A clock
// edge takes every member's flip words, enable ∧ (D ≠ Q), from the
// pre-edge values, empties the list, and only then lands the flips, so
// sampling stays synchronous along direct Q→D chains.  A landed flip
// leaves enable ∧ (D ≠ Q) clear, so a slot off the list never needs the
// edge, and an empty list means quiescence: Run and RaceUntil then
// fast-forward to the horizon on clock accounting alone.  A member
// whose D moved and moved back flips nothing and drops off.
//
// Accounting is word-parallel as well, and stays exact per lane.  At
// Compile the nets are grouped into toggle classes: nets with the same
// driver kind and the same reader-pin loads, which the energy model
// prices identically.  Each class keeps a bit-sliced ("vertical")
// counter per slab word — counterPlanes uint64 planes whose bit l of
// plane p is bit p of lane l's toggle count — and carries out of the
// top plane spill into a per-lane overflow table.  When a net's word
// changes, the XOR against its previous word, masked to the accounted
// lanes, is the per-lane transition mask, and it splits in two:
//
//   - The rise log carries first rises.  Race Logic encodes a value as
//     one rising edge, so most transitions are a net's first 1 in a
//     lane.  The lanes doing that append one (cycle, mask) event to a
//     rise log and nothing else; each slab word's events are chained
//     when an arrival is first read.
//   - The counters carry the rest: every other transition (a fall, or
//     a rise after a fall) enters the class counter with one
//     ripple-carry add.
//
// The split is exact for any netlist, so a lane's toggle count in a
// class is its counter and spill plus its first rises.  Those are the
// bits of seen &^ baseVals over the class's nets, and they are folded
// into the counters when an activity report is read after new rises
// were logged: one ripple-carry add per slab word that logged any,
// however many events it logged.  A net change therefore costs a
// handful of word operations however many lanes moved.  The first
// activity read after a drive or step then decodes every lane's class
// counts at once, plane by plane — each set bit of plane p adds 2^p to
// its lane — so the decode costs the planes' population, not 16 plane
// reads per class per lane.  LaneActivity then sums a lane's class
// counts times their reader-pin counts into the kind-indexed
// NetToggles/LoadToggles arrays, and LaneArrival finds a lane's arrival
// as the cycle of the one event in its slab's chain that carries its
// bit.
//
// Symbol loads are tabulated.  An array's symbol pins reach only each
// cell's matching condition, so the toggles a pin-by-pin load records
// in that cone — glitches included — are a fixed function of the
// cell's symbol pair.  PlanSymbolLoad derives them from the netlist
// once: from the Reset baseline it drives the pins one at a time on
// every (row value, column value) pair at once, one pair per lane, with
// the engine's own gate semantics, and keeps each gate that can move
// with its toggle table.  LoadSymbols then commits the pins with the
// usual accounting but without queueing their fan-out, settles the cone
// once, unaccounted, and adds each lane's cone toggles per toggle class
// as Σ_{a,b} hp[a]·hq[b]·T(a,b), where hp and hq count the lane's row
// and column symbol values.  That is exact under three rules the plan
// checks, failing with an error naming the gate otherwise:
//
//   - every gate that can move reads exactly one row group and one
//     column group, so its toggles depend on that pair alone;
//   - the gates sharing a (toggle class, table) cover every (row,
//     column) pair equally often, so summing them over the grid is
//     summing the table over the lane's value histograms;
//   - every gate that can move is high at baseline, so the load logs no
//     first rise and every arrival stays where the per-pin path leaves
//     it.
//
// A lane can be frozen independently (its race finished or hit the
// threshold bound) by masking it out of the per-word accounting masks
// while the shared word simulation keeps stepping for the others —
// exactly reproducing what a solo scalar race would have recorded at
// its own stop cycle.  LaneActivity and LaneArrival rebuild the full
// circuit.Backend observables per lane, byte-identical to the
// cycle-accurate reference; the internal/oracle differential suite
// enforces that contract at several widths, with all lanes driven in
// lockstep through the scalar Backend interface and divergent lanes
// scattered across words through the word-parallel check.  Keep it
// green when touching this package.
//
// Counters reports the kernel's work — clock edges, flip-flop slots
// examined and flipped, net commits and the slab words they changed,
// gate evaluations and first rises — so a pack's time can be read in
// engine terms.  The counts never enter an observable.
package lanes

import (
	"fmt"

	"racelogic/internal/circuit"
	"racelogic/internal/temporal"
)

// WordBits is the lane capacity of one uint64 word.
const WordBits = 64

// MaxWords bounds the slab width: up to 8 words = 512 lanes per pack.
const MaxWords = 8

// counterPlanes is the height of each bit-sliced toggle counter: a lane
// counts up to 2^counterPlanes − 1 toggles per class in the planes, and
// every further wrap spills 2^counterPlanes into the overflow table.
const counterPlanes = 16

// numKinds sizes the compile-time reader-pin census.
const numKinds = int(circuit.NumKinds)

// readerPair is one (cell kind, pin count) load on a net.
type readerPair struct {
	kind  circuit.Kind
	count uint32
}

// toggleClass is the energy signature shared by every net in the class:
// the kind of the driving cell and the input-pin loads on the net, in
// kind order.  One toggle of any member adds one NetToggles[kind] and
// count LoadToggles[reader kind] per reader pair.
type toggleClass struct {
	kind    circuit.Kind
	readers []readerPair
}

// riseEvent is one entry of the rise log: the lanes of one slab word
// (net*W+w) that first carried a 1 in the given cycle.
type riseEvent struct {
	mask  uint64
	cycle int32
	slab  int32
}

// riseSlab is one slab word that has logged a rise since Reset: its
// slab index (net*W+w), the counter its first rises count into
// (class*W+w), and the lanes already folded into that counter.
type riseSlab struct {
	slab   int32
	cw     int32
	folded uint64
}

// WorkCounters tallies a Sim's kernel work since Compile; Reset does not
// clear it.  The counts explain where a race's time goes and never enter
// an observable.
type WorkCounters struct {
	Edges         uint64 // clock edges stepped; fast-forwarded cycles are not edges
	SlotsExamined uint64 // pending flip-flop slots whose flip words an edge computed
	SlotsFlipped  uint64 // slots an edge changed in at least one lane
	Commits       uint64 // net slab changes
	Words         uint64 // slab words those changes touched
	Evals         uint64 // combinational gate evaluations, one per slab
	Rises         uint64 // first-rise events logged
}

// structure is a netlist's static structure, gathered once at
// CompileWords and read-only after.
type structure struct {
	nl    *circuit.Netlist
	kinds []circuit.Kind  // gate → kind
	ins   [][]circuit.Net // gate → input nets

	// gates holds the comb gates in settle order, level by level: a
	// gate's position in it is its bit in the settle wave's dirty set.
	// wide holds the inputs of the ANDs and ORs of more than three.
	gates []combGate
	wide  []circuit.Net
	nets  []netFan // net → what a change of it touches

	ffs    []flipFlop // slot → pins
	ffInit []bool     // slot → power-on Q
	plain  uint64     // flip-flops clocked every cycle (no enable pin)

	classes []toggleClass
}

// netFan is everything a change of one net touches, kept together: the
// comb gates and flip-flops reading it, the DFFE enable pins it drives,
// and its toggle class.
type netFan struct {
	comb  []int32 // settle positions of the comb gates reading it
	ffs   []int32 // flip-flop slots reading it as D or enable
	nEn   uint32  // DFFE enable pins it drives
	class int32   // toggle class
}

// combGate is one combinational gate: its kind, its output net, and
// its inputs.  A gate of up to three inputs keeps them in in, an AND or
// OR of fewer repeating its last input (which changes neither), so it
// evaluates without a loop; a wider AND or OR keeps them at
// structure.wide[lo:hi].
type combGate struct {
	kind   circuit.Kind
	isWide bool
	out    circuit.Net
	in     [3]circuit.Net
	lo, hi int32
}

// flipFlop is one flip-flop slot's D, Q and enable nets; en is -1 for a
// plain DFF.
type flipFlop struct {
	d, q, en circuit.Net
}

// engine is a width-specialized kernel, the state and hot paths behind
// a Sim.
type engine interface {
	reset()
	setActiveLanes(mask []uint64)
	setInputWords(net circuit.Net, ws []uint64)
	loadSymbols(p *SymbolPlan, slabs []uint64)
	step()
	run(n int)
	runUntil(net circuit.Net, maxCycles int)
	raceUntil(net circuit.Net, maxCycles int)
	now() int
	laneStop(lane int) int
	laneValue(net circuit.Net, lane int) bool
	laneArrival(net circuit.Net, lane int) temporal.Time
	toggles(net circuit.Net) uint64
	activity(lane, cycles int) circuit.Activity
	baseWord(net circuit.Net) uint64
	counters() WorkCounters
}

// Sim is the bit-parallel backend.  Like the other backends it is not
// safe for concurrent use; compile one per goroutine (the pipeline's
// engine pools do exactly that).
type Sim struct {
	st    *structure
	words int // W: words per net slab
	k     engine
}

// Compile builds a single-word (64-lane) engine — the scalar
// circuit.Backend entry point, equivalent to CompileWords(nl, 1).
func Compile(nl *circuit.Netlist) (*Sim, error) { return CompileWords(nl, 1) }

// CompileWords levelizes the netlist and returns a ready-to-run
// bit-parallel engine whose per-net state is a slab of the given number
// of words (1, 2, 4, or 8 → 64, 128, 256, or 512 lanes), with all
// flip-flops at their power-on values and all inputs at 0 in every
// lane.  It fails with circuit.ErrCombLoop if the combinational gates
// form a cycle, exactly like the reference Compile.
func CompileWords(nl *circuit.Netlist, words int) (*Sim, error) {
	switch words {
	case 1, 2, 4, 8:
	default:
		return nil, fmt.Errorf("lanes: slab width %d words is not one of 1, 2, 4, 8", words)
	}
	st, err := newStructure(nl)
	if err != nil {
		return nil, err
	}
	s := &Sim{st: st, words: words}
	switch words {
	case 1:
		s.k = newKernel[[1]uint64](st)
	case 2:
		s.k = newKernel[[2]uint64](st)
	case 4:
		s.k = newKernel[[4]uint64](st)
	default:
		s.k = newKernel[[8]uint64](st)
	}
	return s, nil
}

// newStructure gathers a netlist's static structure: per-gate kinds and
// inputs, toggle classes, flip-flop slots, and the comb gates levelized
// into settle order with each net's comb and flip-flop fan-out.
func newStructure(nl *circuit.Netlist) (*structure, error) {
	ng := nl.NumGates()
	nn := nl.NumNets()
	st := &structure{
		nl:    nl,
		kinds: make([]circuit.Kind, ng),
		ins:   make([][]circuit.Net, ng),
		nets:  make([]netFan, nn),
	}
	isComb := func(k circuit.Kind) bool { return k != circuit.KindDFF && k != circuit.KindInput }
	// drivKind and readerCount[net*numKinds+kind] describe every net
	// during the structure scan; they are folded into toggle classes
	// below and dropped.
	drivKind := make([]circuit.Kind, nn)
	drivKind[circuit.Zero] = circuit.KindConst
	drivKind[circuit.One] = circuit.KindConst
	readerCount := make([]uint32, nn*numKinds)
	for i := 0; i < ng; i++ {
		g := nl.Gate(i)
		st.kinds[i] = g.Kind
		st.ins[i] = g.In
		drivKind[i+2] = g.Kind
		for _, in := range g.In {
			readerCount[int(in)*numKinds+int(g.Kind)]++
		}
		if g.Kind == circuit.KindDFF {
			slot := int32(len(st.ffs))
			ff := flipFlop{d: g.In[0], q: circuit.Net(i + 2), en: -1}
			st.nets[ff.d].ffs = append(st.nets[ff.d].ffs, slot)
			if len(g.In) == 2 {
				ff.en = g.In[1]
				st.nets[ff.en].nEn++
				if ff.en != ff.d {
					st.nets[ff.en].ffs = append(st.nets[ff.en].ffs, slot)
				}
			} else {
				st.plain++
			}
			st.ffs = append(st.ffs, ff)
			st.ffInit = append(st.ffInit, g.Init)
		}
	}
	// Group the nets into toggle classes by driver kind plus reader-pin
	// loads, numbering classes in first-seen net order.
	classID := make(map[string]int32)
	key := make([]byte, 0, 1+5*numKinds)
	for net := 0; net < nn; net++ {
		counts := readerCount[net*numKinds : (net+1)*numKinds]
		key = append(key[:0], byte(drivKind[net]))
		for k, c := range counts {
			if c != 0 {
				key = append(key, byte(k), byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
			}
		}
		id, ok := classID[string(key)]
		if !ok {
			id = int32(len(st.classes))
			classID[string(key)] = id
			tc := toggleClass{kind: drivKind[net]}
			for k, c := range counts {
				if c != 0 {
					tc.readers = append(tc.readers, readerPair{kind: circuit.Kind(k), count: c})
				}
			}
			st.classes = append(st.classes, tc)
		}
		st.nets[net].class = id
	}

	// Levelize the combinational gates (Kahn over comb→comb edges,
	// longest-path levels).
	readers := make([][]int32, nn) // net → comb gates reading it
	level := make([]int32, ng)
	indeg := make([]int32, ng)
	combCount := 0
	for i := 0; i < ng; i++ {
		if !isComb(st.kinds[i]) {
			continue
		}
		combCount++
		for _, in := range st.ins[i] {
			readers[in] = append(readers[in], int32(i))
			if j := int(in) - 2; j >= 0 && isComb(st.kinds[j]) {
				indeg[i]++
			}
		}
	}
	frontier := make([]int32, 0, combCount)
	for i := 0; i < ng; i++ {
		if isComb(st.kinds[i]) && indeg[i] == 0 {
			frontier = append(frontier, int32(i))
		}
	}
	processed := 0
	for len(frontier) > 0 {
		u := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		processed++
		for _, v := range readers[int(u)+2] {
			level[v] = max(level[v], level[u]+1)
			indeg[v]--
			if indeg[v] == 0 {
				frontier = append(frontier, v)
			}
		}
	}
	if processed != combCount {
		return nil, circuit.ErrCombLoop
	}

	// Number the comb gates level by level, in gate order within a level
	// (a counting sort), and index each net's comb fan-out by those
	// positions.
	var start []int32 // level → its first position, then the next free one
	for i := 0; i < ng; i++ {
		if isComb(st.kinds[i]) {
			for int(level[i]) >= len(start) {
				start = append(start, 0)
			}
			start[level[i]]++
		}
	}
	next := int32(0)
	for lvl, n := range start {
		start[lvl], next = next, next+n
	}
	pos := make([]int32, ng)
	order := make([]int32, combCount) // position → gate
	for i := 0; i < ng; i++ {
		if isComb(st.kinds[i]) {
			pos[i] = start[level[i]]
			start[level[i]]++
			order[pos[i]] = int32(i)
		}
	}
	st.gates = make([]combGate, combCount)
	for p, gi := range order {
		g := combGate{kind: st.kinds[gi], out: circuit.Net(gi + 2)}
		if ins := st.ins[gi]; len(ins) > len(g.in) {
			g.isWide = true
			g.lo = int32(len(st.wide))
			st.wide = append(st.wide, ins...)
			g.hi = int32(len(st.wide))
		} else {
			for i := range g.in {
				g.in[i] = ins[min(i, len(ins)-1)]
			}
		}
		st.gates[p] = g
	}
	// Both fan-out lists of every net are cut from one array each, in
	// net order, so nets built together read their lists from nearby
	// memory.
	combAll := make([]int32, 0, combFanIn(readers))
	ffAll := make([]int32, 0, 2*len(st.ffs))
	for net, rs := range readers {
		lo := len(combAll)
		for _, gi := range rs {
			combAll = append(combAll, pos[gi])
		}
		st.nets[net].comb = combAll[lo:len(combAll):len(combAll)]
		lo = len(ffAll)
		ffAll = append(ffAll, st.nets[net].ffs...)
		st.nets[net].ffs = ffAll[lo:len(ffAll):len(ffAll)]
	}
	return st, nil
}

// combFanIn counts the entries of per-net reader lists.
func combFanIn(readers [][]int32) int {
	n := 0
	for _, rs := range readers {
		n += len(rs)
	}
	return n
}

// Words returns the slab width W fixed at CompileWords.
func (s *Sim) Words() int { return s.words }

// Width returns the lane-pack capacity: Words() × 64.
func (s *Sim) Width() int { return s.words * WordBits }

// Counters returns the kernel's work counts since Compile.
func (s *Sim) Counters() WorkCounters { return s.k.counters() }

// Reset returns the engine to its power-on settled state without
// re-levelizing: the baseline captured at Compile is copied back, the
// accounting cleared, and every lane re-activated for the scalar
// Backend contract.  Call SetActiveLanes afterwards to start a pack.
func (s *Sim) Reset() { s.k.reset() }

// SetActiveLanes restricts accounting (and input broadcast) to the
// given per-word lane masks — the start of a pack race.  Call it
// immediately after Reset, before driving any input; lanes outside the
// mask stay at the quiescent power-on baseline and record nothing.
// Words beyond len(mask) are cleared.
func (s *Sim) SetActiveLanes(mask []uint64) { s.k.setActiveLanes(mask) }

// SetInputWords drives an external input pin with a per-lane slab; bits
// outside the active mask are ignored and words beyond len(ws) are
// driven to 0.  The change settles immediately in the current cycle,
// with each changed lane accounted exactly as a scalar SetInput would
// have been.
func (s *Sim) SetInputWords(net circuit.Net, ws []uint64) {
	gi := int(net) - 2
	if gi < 0 || gi >= len(s.st.kinds) || s.st.kinds[gi] != circuit.KindInput {
		panic(fmt.Sprintf("lanes: SetInput on non-input net %d", net))
	}
	s.k.setInputWords(net, ws)
}

// allLanes is a slab of every lane of the widest pack.
var allLanes = [MaxWords]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

// SetInputWord drives word 0 of an input pin (lanes 0–63) and clears
// any higher words — the single-word convenience the oracle's per-lane
// scripts use.
func (s *Sim) SetInputWord(net circuit.Net, w uint64) {
	ws := [1]uint64{w}
	s.SetInputWords(net, ws[:])
}

// SetInput drives an input pin in every active lane — the scalar
// Backend contract, under which all lanes run in lockstep.
func (s *Sim) SetInput(net circuit.Net, v bool) {
	if v {
		s.SetInputWords(net, allLanes[:])
	} else {
		s.SetInputWords(net, nil)
	}
}

// SetInputName drives an input pin by name.
func (s *Sim) SetInputName(name string, v bool) error {
	net, err := s.st.nl.InputNet(name)
	if err != nil {
		return err
	}
	s.SetInput(net, v)
	return nil
}

// Step advances the simulation by one clock cycle.  The edge flips
// every pending flip-flop whose enable ∧ (D ≠ Q) is set in some lane,
// sampling all of them before any flip lands, then settles the
// triggered wave.  Clock accounting covers every enabled flip-flop of
// every accounted lane, pending or not, exactly like the reference.
func (s *Sim) Step() { s.k.step() }

// Run advances k cycles, fast-forwarding through quiescence: with no
// pending flip-flop nothing can change until an input does, so the
// remaining cycles collapse into per-lane clock accounting.
func (s *Sim) Run(k int) { s.k.run(k) }

// RunUntil steps until net first carries a 1 in lane 0 and returns the
// arrival time, or temporal.Never if it has not arrived after
// maxCycles — the scalar Backend contract.  A quiescent circuit
// advances straight to the horizon.
func (s *Sim) RunUntil(net circuit.Net, maxCycles int) temporal.Time {
	s.k.runUntil(net, maxCycles)
	return s.k.laneArrival(net, 0)
}

// RaceUntil runs the pack race: it steps until every active lane's copy
// of net has fired or maxCycles is reached, freezing each lane at its
// own stop cycle — the cycle its scalar RunUntil would have returned
// at.  A frozen lane stops accumulating toggles, arrivals, and clock
// cycles while the shared word simulation keeps stepping for the rest.
// LaneCycle, LaneArrival, and LaneActivity read the per-lane outcomes
// afterwards.
func (s *Sim) RaceUntil(net circuit.Net, maxCycles int) { s.k.raceUntil(net, maxCycles) }

// Cycle returns the number of Steps taken so far (fast-forwarded
// quiescent cycles included).
func (s *Sim) Cycle() int { return s.k.now() }

// LaneCycle returns the cycle the given lane's RaceUntil stopped at.
func (s *Sim) LaneCycle(lane int) int { return s.k.laneStop(lane) }

// Value returns the current settled value of a net in lane 0.
func (s *Sim) Value(net circuit.Net) bool { return s.k.laneValue(net, 0) }

// LaneValue returns the current settled value of a net in the given lane.
func (s *Sim) LaneValue(net circuit.Net, lane int) bool { return s.k.laneValue(net, lane) }

// Arrival returns the cycle at which the net first carried a 1 in lane
// 0, or temporal.Never.
func (s *Sim) Arrival(net circuit.Net) temporal.Time { return s.k.laneArrival(net, 0) }

// LaneArrival returns the cycle at which the net first carried a 1 in
// the given lane, or temporal.Never if it had not fired when the lane
// froze.
func (s *Sim) LaneArrival(net circuit.Net, lane int) temporal.Time {
	return s.k.laneArrival(net, lane)
}

// Toggles returns the cumulative toggle count of a net in lane 0.
func (s *Sim) Toggles(net circuit.Net) uint64 { return s.k.toggles(net) }

// Activity summarizes lane 0 of the simulation so far — the scalar
// Backend contract, using the shared cycle counter.
func (s *Sim) Activity() circuit.Activity { return s.k.activity(0, s.k.now()) }

// LaneActivity summarizes one lane of a finished pack race, as of the
// cycle the lane froze at.  It is byte-identical to the Activity a solo
// scalar race of that lane's candidate would have reported.
func (s *Sim) LaneActivity(lane int) circuit.Activity {
	return s.k.activity(lane, s.k.laneStop(lane))
}

// The bit-parallel engine satisfies the shared backend contract.
var _ circuit.Backend = (*Sim)(nil)
