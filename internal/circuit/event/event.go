// Package event is the event-driven simulation backend for compiled
// Race Logic netlists — the fast path behind circuit.Backend.
//
// The cycle-accurate circuit.Simulator evaluates every combinational
// gate and scans every net once per clock cycle, which prices a race at
// cycles × gates even though Race Logic is pure delay propagation: after
// the rising wavefront passes a cell, its nets never move again.  This
// engine instead keeps a two-tier event wheel over the compiled netlist:
//
//   - within a cycle, a level-bucketed settle wave re-evaluates only the
//     combinational gates whose inputs actually changed, in levelized
//     order (each gate at most once per settle, exactly like the
//     reference simulator's single topological pass);
//   - across cycles, an "armed" set tracks the flip-flops whose next
//     clock edge will change state (enabled, D ≠ Q).  A Step touches
//     only armed flip-flops and the wave they trigger; when the set is
//     empty the circuit is quiescent and Run/RunUntil advance straight
//     to the horizon, accumulating only clock accounting.
//
// All delays in the synchronous design are single flip-flops, so the
// wheel needs exactly two buckets — "this settle" and "next edge" — and
// the cost of a race collapses from cycles × gates to the number of net
// transitions, which for an edit-graph array is the size of the
// wavefront, not the grid.
//
// The engine is exact, not approximate: per-net first-arrival times,
// cumulative toggle counts, and the clocked-flip-flop total are computed
// by the same rules as the reference simulator, so scores, timing
// matrices, and energy reports are byte-identical.  The differential
// suite in internal/oracle holds the two backends to that contract over
// randomized netlists and stimulus; keep it green when touching this
// file.
package event

import (
	"fmt"

	"racelogic/internal/circuit"
	"racelogic/internal/temporal"
)

// Sim is the event-driven backend.  Like the reference simulator it is
// not safe for concurrent use; compile one per goroutine (the pipeline's
// engine pools do exactly that).
type Sim struct {
	nl *circuit.Netlist

	// Static structure, gathered once at Compile.
	kinds []circuit.Kind
	ins   [][]circuit.Net
	level []int32 // comb gate → settle level; -1 for inputs and DFFs

	comb [][]int32 // net → comb gates reading it
	dOf  [][]int32 // net → FF slots whose D pin is this net
	eOf  [][]int32 // net → DFFE slots whose enable pin is this net

	ffGate []int32       // slot → gate index
	ffEn   []circuit.Net // slot → enable net, or -1 for a plain DFF
	ffInit []bool
	plain  uint64 // flip-flops clocked every cycle (no enable pin)

	// chainFree marks flip-flops whose D and enable pins are not driven
	// directly by another flip-flop's Q.  For them the clock edge cannot
	// move their inputs, so a post-flip re-arm is provably a disarm and
	// Step skips the recompute.  In the edit-graph arrays this is every
	// interior cell — only the border cells, where a one-input OR
	// collapses to a Q→D wire, sit on chains.
	chainFree []bool

	// Dynamic state.
	vals            []bool
	ffState         []bool
	toggles         []uint64
	firstOne        []int32
	inputs          map[circuit.Net]bool
	cycle           int
	ffClockedCycles uint64
	enabledE        uint64 // DFFEs whose enable net currently carries 1

	// The armed set: flip-flops the next clock edge will change
	// (enabled and D ≠ Q), maintained incrementally as nets move.
	armed     []bool
	armedAt   []int32
	armedList []int32
	scratch   []int32 // edge-time snapshot of armedList

	// The settle wave: pending comb gates bucketed by level.
	buckets [][]int32
	queued  []bool
	pending int

	// Power-on settled baseline, so Reset is a copy instead of a
	// re-settle.
	baseVals     []bool
	baseArmed    []int32
	baseEnabledE uint64
}

// Compile levelizes the netlist and returns a ready-to-run event engine
// with all flip-flops at their power-on values and all inputs at 0.  It
// fails with circuit.ErrCombLoop if the combinational gates form a
// cycle, exactly like the reference Compile.
func Compile(nl *circuit.Netlist) (*Sim, error) {
	ng := nl.NumGates()
	nn := nl.NumNets()
	s := &Sim{
		nl:       nl,
		kinds:    make([]circuit.Kind, ng),
		ins:      make([][]circuit.Net, ng),
		level:    make([]int32, ng),
		comb:     make([][]int32, nn),
		dOf:      make([][]int32, nn),
		eOf:      make([][]int32, nn),
		vals:     make([]bool, nn),
		toggles:  make([]uint64, nn),
		firstOne: make([]int32, nn),
		inputs:   make(map[circuit.Net]bool),
		queued:   make([]bool, ng),
	}
	isComb := func(k circuit.Kind) bool { return k != circuit.KindDFF && k != circuit.KindInput }
	for i := 0; i < ng; i++ {
		g := nl.Gate(i)
		s.kinds[i] = g.Kind
		s.ins[i] = g.In
		s.level[i] = -1
		if g.Kind == circuit.KindDFF {
			slot := len(s.ffGate)
			s.ffGate = append(s.ffGate, int32(i))
			s.ffInit = append(s.ffInit, g.Init)
			s.dOf[g.In[0]] = append(s.dOf[g.In[0]], int32(slot))
			if len(g.In) == 2 {
				s.ffEn = append(s.ffEn, g.In[1])
				s.eOf[g.In[1]] = append(s.eOf[g.In[1]], int32(slot))
			} else {
				s.ffEn = append(s.ffEn, -1)
				s.plain++
			}
		}
	}
	s.ffState = append([]bool(nil), s.ffInit...)
	isFFNet := func(net circuit.Net) bool {
		j := int(net) - 2
		return j >= 0 && s.kinds[j] == circuit.KindDFF
	}
	s.chainFree = make([]bool, len(s.ffGate))
	for slot, gi := range s.ffGate {
		free := !isFFNet(s.ins[gi][0])
		if en := s.ffEn[slot]; en >= 0 && isFFNet(en) {
			free = false
		}
		s.chainFree[slot] = free
	}

	// Levelize the combinational gates (Kahn over comb→comb edges,
	// longest-path levels) and index each net's comb fan-out.
	indeg := make([]int32, ng)
	combCount := 0
	for i := 0; i < ng; i++ {
		if !isComb(s.kinds[i]) {
			continue
		}
		combCount++
		for _, in := range s.ins[i] {
			s.comb[in] = append(s.comb[in], int32(i))
			if j := int(in) - 2; j >= 0 && isComb(s.kinds[j]) {
				indeg[i]++
			}
		}
	}
	frontier := make([]int32, 0, combCount)
	for i := 0; i < ng; i++ {
		if isComb(s.kinds[i]) && indeg[i] == 0 {
			s.level[i] = 0
			frontier = append(frontier, int32(i))
		}
	}
	processed := 0
	for len(frontier) > 0 {
		u := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		processed++
		for _, v := range s.comb[int(u)+2] {
			if s.level[u]+1 > s.level[v] {
				s.level[v] = s.level[u] + 1
			}
			indeg[v]--
			if indeg[v] == 0 {
				frontier = append(frontier, v)
			}
		}
	}
	if processed != combCount {
		return nil, circuit.ErrCombLoop
	}
	maxLvl := int32(0)
	for i := 0; i < ng; i++ {
		if s.level[i] > maxLvl {
			maxLvl = s.level[i]
		}
	}
	s.buckets = make([][]int32, maxLvl+1)

	// Power-on settle: one full pass in level order, then latch the
	// settled state as the Reset baseline.  Like the reference Compile,
	// the initial settle records arrivals but counts no toggles.
	s.vals[circuit.One] = true
	for slot, gi := range s.ffGate {
		s.vals[int(gi)+2] = s.ffInit[slot]
	}
	order := make([]int32, 0, combCount)
	for i := 0; i < ng; i++ {
		if isComb(s.kinds[i]) {
			order = append(order, int32(i))
		}
	}
	// Counting sort by level keeps the full pass linear.
	byLevel := make([][]int32, maxLvl+1)
	for _, gi := range order {
		byLevel[s.level[gi]] = append(byLevel[s.level[gi]], gi)
	}
	for _, bucket := range byLevel {
		for _, gi := range bucket {
			s.vals[int(gi)+2] = s.eval(gi)
		}
	}
	for i, v := range s.vals {
		if v {
			s.firstOne[i] = 0
		} else {
			s.firstOne[i] = -1
		}
	}
	for _, en := range s.ffEn {
		if en >= 0 && s.vals[en] {
			s.enabledE++
		}
	}
	s.armed = make([]bool, len(s.ffGate))
	s.armedAt = make([]int32, len(s.ffGate))
	for slot := range s.ffGate {
		s.rearm(int32(slot))
	}

	s.baseVals = append([]bool(nil), s.vals...)
	s.baseArmed = append([]int32(nil), s.armedList...)
	s.baseEnabledE = s.enabledE
	return s, nil
}

// maxLevel returns the highest settle level (buckets are sized past it).
func (s *Sim) maxLevel() int { return len(s.buckets) - 1 }

// Reset returns the engine to its power-on settled state without
// re-levelizing: the baseline captured at Compile is copied back and the
// accounting cleared.
func (s *Sim) Reset() {
	copy(s.vals, s.baseVals)
	for i, v := range s.baseVals {
		if v {
			s.firstOne[i] = 0
		} else {
			s.firstOne[i] = -1
		}
	}
	for i := range s.toggles {
		s.toggles[i] = 0
	}
	for slot := range s.ffState {
		s.ffState[slot] = s.ffInit[slot]
	}
	clear(s.inputs)
	s.cycle = 0
	s.ffClockedCycles = 0
	s.enabledE = s.baseEnabledE
	for _, slot := range s.armedList {
		s.armed[slot] = false
	}
	s.armedList = s.armedList[:0]
	for _, slot := range s.baseArmed {
		s.armed[slot] = true
		s.armedAt[slot] = int32(len(s.armedList))
		s.armedList = append(s.armedList, slot)
	}
}

// eval computes a combinational gate's output from current net values.
func (s *Sim) eval(gi int32) bool {
	in := s.ins[gi]
	switch s.kinds[gi] {
	case circuit.KindBuf:
		return s.vals[in[0]]
	case circuit.KindNot:
		return !s.vals[in[0]]
	case circuit.KindAnd:
		for _, x := range in {
			if !s.vals[x] {
				return false
			}
		}
		return true
	case circuit.KindOr:
		for _, x := range in {
			if s.vals[x] {
				return true
			}
		}
		return false
	case circuit.KindXor:
		return s.vals[in[0]] != s.vals[in[1]]
	case circuit.KindXnor:
		return s.vals[in[0]] == s.vals[in[1]]
	case circuit.KindMux2:
		if s.vals[in[0]] {
			return s.vals[in[2]]
		}
		return s.vals[in[1]]
	default:
		panic(fmt.Sprintf("event: unexpected combinational kind %v", s.kinds[gi]))
	}
}

// rearm recomputes one flip-flop's membership in the armed set from the
// current net values and its current state.
func (s *Sim) rearm(slot int32) {
	d := s.ins[s.ffGate[slot]][0]
	en := s.ffEn[slot]
	want := (en < 0 || s.vals[en]) && s.vals[d] != s.ffState[slot]
	if want == s.armed[slot] {
		return
	}
	if want {
		s.armed[slot] = true
		s.armedAt[slot] = int32(len(s.armedList))
		s.armedList = append(s.armedList, slot)
		return
	}
	s.armed[slot] = false
	i := s.armedAt[slot]
	last := s.armedList[len(s.armedList)-1]
	s.armedList[i] = last
	s.armedAt[last] = i
	s.armedList = s.armedList[:len(s.armedList)-1]
}

// setNet commits a changed net value: accounting first, then the comb
// fan-out is enqueued on the wave and flip-flops listening on the net
// (as D or enable) are re-armed.
func (s *Sim) setNet(net circuit.Net, v bool) {
	s.vals[net] = v
	s.toggles[net]++
	if v && s.firstOne[net] == -1 {
		s.firstOne[net] = int32(s.cycle)
	}
	for _, gi := range s.comb[net] {
		if !s.queued[gi] {
			s.queued[gi] = true
			s.buckets[s.level[gi]] = append(s.buckets[s.level[gi]], gi)
			s.pending++
		}
	}
	for _, slot := range s.dOf[net] {
		s.rearm(slot)
	}
	for _, slot := range s.eOf[net] {
		if v {
			s.enabledE++
		} else {
			s.enabledE--
		}
		s.rearm(slot)
	}
}

// settleWave drains the pending comb gates in level order.  A gate only
// ever enqueues gates at strictly higher levels, so each gate is
// evaluated at most once per wave — the event-driven equivalent of the
// reference simulator's single topological pass, with identical
// glitch-free toggle accounting.
func (s *Sim) settleWave() {
	for lvl := 0; s.pending > 0 && lvl < len(s.buckets); lvl++ {
		b := s.buckets[lvl]
		if len(b) == 0 {
			continue
		}
		s.buckets[lvl] = b[:0]
		for _, gi := range b {
			s.queued[gi] = false
			s.pending--
			out := circuit.Net(int(gi) + 2)
			if v := s.eval(gi); v != s.vals[out] {
				s.setNet(out, v)
			}
		}
	}
}

// SetInput drives an external input pin; the change settles immediately
// in the current cycle.
func (s *Sim) SetInput(net circuit.Net, v bool) {
	gi := int(net) - 2
	if gi < 0 || gi >= len(s.kinds) || s.kinds[gi] != circuit.KindInput {
		panic(fmt.Sprintf("event: SetInput on non-input net %d", net))
	}
	if s.inputs[net] == v {
		return
	}
	s.inputs[net] = v
	if s.vals[net] != v {
		s.setNet(net, v)
		s.settleWave()
	}
}

// SetInputName drives an input pin by name.
func (s *Sim) SetInputName(name string, v bool) error {
	net, err := s.nl.InputNet(name)
	if err != nil {
		return err
	}
	s.SetInput(net, v)
	return nil
}

// Step advances one clock cycle: the edge samples D on every armed
// flip-flop (pre-edge values — the snapshot makes the sampling
// synchronous even along direct Q→D chains), then the triggered wave
// settles.  Clock accounting covers every enabled flip-flop, armed or
// not, exactly like the reference.
func (s *Sim) Step() {
	s.ffClockedCycles += s.plain + s.enabledE
	s.cycle++
	if len(s.armedList) == 0 {
		return
	}
	// Swap the edge set out instead of copying it and batch-clear the
	// armed flags: every edge flip empties a slot's membership unless a
	// chain can re-fill it, so only chain slots pay the per-slot re-arm
	// recompute below (setNet's D/enable listeners handle every other
	// re-arming as the flips and the wave land).
	s.scratch, s.armedList = s.armedList, s.scratch[:0]
	for _, slot := range s.scratch {
		s.armed[slot] = false
	}
	for _, slot := range s.scratch {
		// Armed means Q will flip to ¬Q: the pre-edge D differs from Q,
		// and D nets cannot move between edges (waves settle fully).
		v := !s.ffState[slot]
		s.ffState[slot] = v
		if !s.chainFree[slot] {
			s.rearm(slot)
		}
		s.setNet(circuit.Net(int(s.ffGate[slot])+2), v)
	}
	s.settleWave()
}

// Run advances k cycles, fast-forwarding through quiescence: with no
// armed flip-flop nothing can change until an input does, so the
// remaining cycles collapse into clock accounting.
func (s *Sim) Run(k int) {
	for i := 0; i < k; i++ {
		if len(s.armedList) == 0 {
			s.ffClockedCycles += uint64(k-i) * (s.plain + s.enabledE)
			s.cycle += k - i
			return
		}
		s.Step()
	}
}

// RunUntil steps until net first carries a 1 and returns the arrival
// time, or temporal.Never if it has not arrived after maxCycles.  A
// quiescent circuit advances straight to the horizon.
func (s *Sim) RunUntil(net circuit.Net, maxCycles int) temporal.Time {
	for s.firstOne[net] == -1 && s.cycle < maxCycles {
		if len(s.armedList) == 0 {
			s.ffClockedCycles += uint64(maxCycles-s.cycle) * (s.plain + s.enabledE)
			s.cycle = maxCycles
			break
		}
		s.Step()
	}
	if s.firstOne[net] == -1 {
		return temporal.Never
	}
	return temporal.Time(s.firstOne[net])
}

// Cycle returns the number of Steps taken so far (fast-forwarded
// quiescent cycles included).
func (s *Sim) Cycle() int { return s.cycle }

// Value returns the current settled value of a net.
func (s *Sim) Value(net circuit.Net) bool { return s.vals[net] }

// Arrival returns the cycle at which the net first carried a 1, or
// temporal.Never.
func (s *Sim) Arrival(net circuit.Net) temporal.Time {
	if s.firstOne[net] == -1 {
		return temporal.Never
	}
	return temporal.Time(s.firstOne[net])
}

// Toggles returns the cumulative toggle count of a net.
func (s *Sim) Toggles(net circuit.Net) uint64 { return s.toggles[net] }

// Activity summarizes the simulation so far, by the same rules as the
// reference simulator.
func (s *Sim) Activity() circuit.Activity {
	a := circuit.Activity{
		Cycles:          s.cycle,
		FFClockedCycles: s.ffClockedCycles,
		NumDFFs:         s.nl.NumDFFs(),
	}
	for i, kind := range s.kinds {
		for _, in := range s.ins[i] {
			a.LoadToggles[kind] += s.toggles[in]
		}
		a.NetToggles[kind] += s.toggles[i+2]
	}
	return a
}

// The event engine satisfies the shared backend contract.
var _ circuit.Backend = (*Sim)(nil)
