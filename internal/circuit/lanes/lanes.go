// Package lanes is the bit-parallel simulation backend for compiled
// Race Logic netlists: one Sim races up to 512 independent candidate
// streams ("lanes") through a single compiled netlist at once.
//
// Every net's state is a slab of W uint64 words (W ∈ {1, 2, 4, 8},
// chosen at CompileWords), laid out net-major: lane l of net n lives in
// word n*W + l/64, bit l%64.  One combinational settle wave evaluates
// AND/OR/XOR/MUX word-slice-wise for all W·64 lanes simultaneously —
// the software analogue of tiling W·64 copies of the paper's edit-graph
// array and clocking them off one wavefront.  The event-wheel structure
// is the same as circuit/event (level-bucketed settle waves within a
// cycle, an armed flip-flop set across cycles), but a wave visit costs
// W word operations instead of one boolean per lane, so the
// per-candidate price of gate evaluation, wave bookkeeping, and
// clocking divides by the pack width.
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
//     rise log, chained from a per-slab head, and nothing else.
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
// handful of word operations however many lanes moved, and LaneActivity
// and LaneArrival decode a lane only when it is read: class counts times
// reader-pin counts sum into the kind-indexed NetToggles/LoadToggles
// arrays, and a lane's arrival is the cycle of the one event in its
// slab's chain that carries its bit.
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
// green when touching this file.
package lanes

import (
	"fmt"
	"math/bits"

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
// that first carried a 1 in the given cycle, and the index of the
// slab's previous event (-1 ends the chain).
type riseEvent struct {
	mask  uint64
	cycle int32
	next  int32
}

// riseSlab is one slab word that has logged a rise since Reset: its
// slab index (net*W+w), the counter its first rises count into
// (class*W+w), and the rise lanes already added to that counter.
type riseSlab struct {
	slab   int32
	cw     int32
	folded uint64
}

// Sim is the bit-parallel backend.  Like the other backends it is not
// safe for concurrent use; compile one per goroutine (the pipeline's
// engine pools do exactly that).
type Sim struct {
	nl    *circuit.Netlist
	words int // W: words per net slab
	width int // words * WordBits: lanes per pack

	// Static structure, gathered once at Compile.
	kinds []circuit.Kind
	ins   [][]circuit.Net
	level []int32 // comb gate → settle level; -1 for inputs and DFFs

	comb [][]int32 // net → comb gates reading it
	dOf  [][]int32 // net → FF slots whose D pin is this net
	eOf  [][]int32 // net → DFFE slots whose enable pin is this net

	ffGate  []int32       // slot → gate index
	ffEn    []circuit.Net // slot → enable net, or -1 for a plain DFF
	ffInitW []uint64      // slot → power-on Q word pattern (0 or all-ones)
	plain   uint64        // flip-flops clocked every cycle (no enable pin)

	classes []toggleClass
	classOf []int32 // net → toggle class

	// Dynamic state.  vals, ffState, seen, and riseHead are W-word
	// slabs (net*W+w, bit = lane within word w); the toggle counters are
	// bit-sliced per (class, word); the clock tables are per lane.
	vals      []uint64
	ffState   []uint64 // slot*W+w
	seen      []uint64 // net*W+w → lanes that have carried a 1 since Reset, baseline included
	riseHead  []int32  // net*W+w → latest rise event; valid iff seen differs from baseVals
	rises     []riseEvent
	planes    []uint64 // (class*W+w)*counterPlanes+p → bit p of each lane's toggle count
	spill     []uint64 // class*width+lane → counts carried out of the top plane; nil until needed
	toggles0  []uint64 // net → lane-0 toggles, the scalar Toggles contract
	ffClocked []uint64 // lane → Σ enabled flip-flops per stepped cycle
	enabledE  []uint64 // lane → DFFEs whose enable currently carries 1
	laneCycle []int    // lane → cycle its RaceUntil stopped at
	cycle     int

	// risen lists the slab words with a rise event since Reset, in
	// first-rise order; foldedRises is len(rises) as of the last
	// foldRises, so a read with no new rise skips the fold.
	risen       []riseSlab
	foldedRises int

	// account masks, word by word, the lanes whose transitions are
	// recorded: all lanes under the scalar Backend interface, the active
	// pack during a lane race, shrinking as lanes finish and freeze.
	account []uint64

	// The armed set: flip-flops the next clock edge will change in at
	// least one lane (some lane enabled with D ≠ Q), maintained
	// incrementally as nets move.
	armed     []bool
	armedAt   []int32
	armedList []int32
	// Edge-time snapshot: the armed slots and their per-lane flip masks
	// (W words per slot), captured before any flip lands so sampling
	// stays synchronous even along direct Q→D chains.
	scratchSlots []int32
	scratchFlips []uint64

	// The settle wave: pending comb gates bucketed by level.
	buckets [][]int32
	queued  []bool
	pending int

	// W-word scratch slabs, reused across calls to keep the hot paths
	// allocation-free.
	evalBuf   []uint64  // settle-wave gate output
	qBuf      []uint64  // step's flip application
	inBuf     []uint64  // SetInputWords masking
	bcastBuf  []uint64  // SetInput broadcast
	racingBuf []uint64  // RaceUntil lane mask
	oneBuf    [1]uint64 // SetInputWord word-0 convenience

	// Power-on settled baseline, so Reset is a copy instead of a
	// re-settle.  Baseline words are homogeneous (inputs are 0 in every
	// lane), so baseVals doubles as the cycle-0 arrival mask.
	baseVals     []uint64
	baseArmed    []int32
	baseEnabledE uint64
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
	ng := nl.NumGates()
	nn := nl.NumNets()
	width := words * WordBits
	s := &Sim{
		nl:        nl,
		words:     words,
		width:     width,
		kinds:     make([]circuit.Kind, ng),
		ins:       make([][]circuit.Net, ng),
		level:     make([]int32, ng),
		comb:      make([][]int32, nn),
		dOf:       make([][]int32, nn),
		eOf:       make([][]int32, nn),
		classOf:   make([]int32, nn),
		vals:      make([]uint64, nn*words),
		riseHead:  make([]int32, nn*words),
		toggles0:  make([]uint64, nn),
		ffClocked: make([]uint64, width),
		enabledE:  make([]uint64, width),
		laneCycle: make([]int, width),
		account:   make([]uint64, words),
		queued:    make([]bool, ng),
		evalBuf:   make([]uint64, words),
		qBuf:      make([]uint64, words),
		inBuf:     make([]uint64, words),
		bcastBuf:  make([]uint64, words),
		racingBuf: make([]uint64, words),
	}
	for w := range s.account {
		s.account[w] = ^uint64(0)
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
		s.kinds[i] = g.Kind
		s.ins[i] = g.In
		s.level[i] = -1
		drivKind[i+2] = g.Kind
		for _, in := range g.In {
			readerCount[int(in)*numKinds+int(g.Kind)]++
		}
		if g.Kind == circuit.KindDFF {
			slot := len(s.ffGate)
			s.ffGate = append(s.ffGate, int32(i))
			if g.Init {
				s.ffInitW = append(s.ffInitW, ^uint64(0))
			} else {
				s.ffInitW = append(s.ffInitW, 0)
			}
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
			id = int32(len(s.classes))
			classID[string(key)] = id
			tc := toggleClass{kind: drivKind[net]}
			for k, c := range counts {
				if c != 0 {
					tc.readers = append(tc.readers, readerPair{kind: circuit.Kind(k), count: c})
				}
			}
			s.classes = append(s.classes, tc)
		}
		s.classOf[net] = id
	}
	s.planes = make([]uint64, len(s.classes)*words*counterPlanes)
	s.ffState = make([]uint64, len(s.ffGate)*words)
	for slot, init := range s.ffInitW {
		for w := 0; w < words; w++ {
			s.ffState[slot*words+w] = init
		}
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

	// Power-on settle: one full slab pass in level order, then latch the
	// settled state as the Reset baseline.  Like the reference Compile,
	// the initial settle records arrivals but counts no toggles.
	for w := 0; w < words; w++ {
		s.vals[int(circuit.One)*words+w] = ^uint64(0)
	}
	for slot, gi := range s.ffGate {
		base := (int(gi) + 2) * words
		for w := 0; w < words; w++ {
			s.vals[base+w] = s.ffInitW[slot]
		}
	}
	byLevel := make([][]int32, maxLvl+1)
	for i := 0; i < ng; i++ {
		if isComb(s.kinds[i]) {
			byLevel[s.level[i]] = append(byLevel[s.level[i]], int32(i))
		}
	}
	for _, bucket := range byLevel {
		for _, gi := range bucket {
			base := (int(gi) + 2) * words
			s.eval(gi, s.vals[base:base+words])
		}
	}
	for _, en := range s.ffEn {
		if en >= 0 && s.vals[int(en)*words] != 0 {
			s.baseEnabledE++
		}
	}
	for l := range s.enabledE {
		s.enabledE[l] = s.baseEnabledE
	}
	s.armed = make([]bool, len(s.ffGate))
	s.armedAt = make([]int32, len(s.ffGate))
	for slot := range s.ffGate {
		s.rearm(int32(slot))
	}

	s.baseVals = append([]uint64(nil), s.vals...)
	s.seen = append([]uint64(nil), s.vals...)
	s.baseArmed = append([]int32(nil), s.armedList...)
	return s, nil
}

// Words returns the slab width W fixed at CompileWords.
func (s *Sim) Words() int { return s.words }

// Width returns the lane-pack capacity: Words() × 64.
func (s *Sim) Width() int { return s.width }

// Reset returns the engine to its power-on settled state without
// re-levelizing: the baseline captured at Compile is copied back, the
// accounting cleared, and every lane re-activated for the scalar
// Backend contract.  Call SetActiveLanes afterwards to start a pack.
func (s *Sim) Reset() {
	copy(s.vals, s.baseVals)
	copy(s.seen, s.baseVals)
	for i := range s.toggles0 {
		s.toggles0[i] = 0
	}
	for i := range s.planes {
		s.planes[i] = 0
	}
	for i := range s.spill {
		s.spill[i] = 0
	}
	s.rises = s.rises[:0]
	s.risen = s.risen[:0]
	s.foldedRises = 0
	for l := 0; l < s.width; l++ {
		s.ffClocked[l] = 0
		s.laneCycle[l] = 0
		s.enabledE[l] = s.baseEnabledE
	}
	for slot, init := range s.ffInitW {
		for w := 0; w < s.words; w++ {
			s.ffState[slot*s.words+w] = init
		}
	}
	s.cycle = 0
	for w := range s.account {
		s.account[w] = ^uint64(0)
	}
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

// eval computes a combinational gate's output slab into out (W words)
// from current net slabs — bitwise boolean algebra evaluates all lanes
// of a word at once, and the word loop covers the slab.
func (s *Sim) eval(gi int32, out []uint64) {
	in := s.ins[gi]
	W := s.words
	vals := s.vals
	switch s.kinds[gi] {
	case circuit.KindBuf:
		b := int(in[0]) * W
		copy(out, vals[b:b+W])
	case circuit.KindNot:
		b := int(in[0]) * W
		src := vals[b : b+W : b+W]
		for w := range out {
			out[w] = ^src[w]
		}
	case circuit.KindAnd:
		b := int(in[0]) * W
		copy(out, vals[b:b+W])
		for _, x := range in[1:] {
			b := int(x) * W
			src := vals[b : b+W : b+W]
			for w := range out {
				out[w] &= src[w]
			}
		}
	case circuit.KindOr:
		b := int(in[0]) * W
		copy(out, vals[b:b+W])
		for _, x := range in[1:] {
			b := int(x) * W
			src := vals[b : b+W : b+W]
			for w := range out {
				out[w] |= src[w]
			}
		}
	case circuit.KindXor:
		a, b := int(in[0])*W, int(in[1])*W
		sa := vals[a : a+W : a+W]
		sb := vals[b : b+W : b+W]
		for w := range out {
			out[w] = sa[w] ^ sb[w]
		}
	case circuit.KindXnor:
		a, b := int(in[0])*W, int(in[1])*W
		sa := vals[a : a+W : a+W]
		sb := vals[b : b+W : b+W]
		for w := range out {
			out[w] = ^(sa[w] ^ sb[w])
		}
	case circuit.KindMux2:
		sl, a, b := int(in[0])*W, int(in[1])*W, int(in[2])*W
		ss := vals[sl : sl+W : sl+W]
		sa := vals[a : a+W : a+W]
		sb := vals[b : b+W : b+W]
		for w := range out {
			out[w] = (ss[w] & sb[w]) | (^ss[w] & sa[w])
		}
	default:
		panic(fmt.Sprintf("lanes: unexpected combinational kind %v", s.kinds[gi]))
	}
}

// rearm recomputes one flip-flop's membership in the armed set: armed
// when any lane of any word is enabled with D ≠ Q.
func (s *Sim) rearm(slot int32) {
	W := s.words
	d := int(s.ins[s.ffGate[slot]][0]) * W
	fb := int(slot) * W
	want := false
	if en := s.ffEn[slot]; en >= 0 {
		eb := int(en) * W
		for w := 0; w < W; w++ {
			if s.vals[eb+w]&(s.vals[d+w]^s.ffState[fb+w]) != 0 {
				want = true
				break
			}
		}
	} else {
		for w := 0; w < W; w++ {
			if s.vals[d+w]^s.ffState[fb+w] != 0 {
				want = true
				break
			}
		}
	}
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

// setWords commits a changed net slab: each changed word is accounted
// for its accounted lanes, then the comb fan-out is enqueued on the
// wave and flip-flops listening on the net (as D or enable) are
// re-armed.  neww must hold W words and must differ from the current
// slab in at least one of them.
func (s *Sim) setWords(net circuit.Net, neww []uint64) {
	W := s.words
	base := int(net) * W
	cur := s.vals[base : base+W : base+W]
	e := s.eOf[net]
	ne := uint64(len(e))
	for w := 0; w < W; w++ {
		old := cur[w]
		nw := neww[w]
		diff := old ^ nw
		if diff == 0 {
			continue
		}
		cur[w] = nw
		if acc := diff & s.account[w]; acc != 0 {
			s.accountWord(net, w, nw, acc)
		}
		if ne != 0 {
			// Track every lane's true enable population, frozen or not —
			// the per-lane clock accounting reads it only for accounted
			// lanes.
			wl := w << 6
			for m := diff & nw; m != 0; m &= m - 1 {
				s.enabledE[wl+bits.TrailingZeros64(m)] += ne
			}
			for m := diff &^ nw; m != 0; m &= m - 1 {
				s.enabledE[wl+bits.TrailingZeros64(m)] -= ne
			}
		}
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
	for _, slot := range e {
		s.rearm(slot)
	}
}

// accountWord records one word's transition mask.  The lanes carrying
// their first 1 append one rise-log event; every other transition enters
// the net's bit-sliced class counter with one ripple-carry add.  The
// first rises reach the counters later, in foldRises.  The cost is a few
// word operations however many lanes toggled.
func (s *Sim) accountWord(net circuit.Net, w int, nw, acc uint64) {
	if w == 0 && acc&1 != 0 {
		s.toggles0[net]++
	}
	cw := int(s.classOf[net])*s.words + w
	slab := int(net)*s.words + w
	seen := s.seen[slab]
	if rise := nw & acc &^ seen; rise != 0 {
		next := int32(-1)
		if seen != s.baseVals[slab] {
			next = s.riseHead[slab]
		} else {
			s.risen = append(s.risen, riseSlab{slab: int32(slab), cw: int32(cw)})
		}
		s.seen[slab] = seen | rise
		s.riseHead[slab] = int32(len(s.rises))
		s.rises = append(s.rises, riseEvent{mask: rise, cycle: int32(s.cycle), next: next})
		if acc &^= rise; acc == 0 {
			return
		}
	}
	s.count(cw, acc)
}

// count adds one toggle to each lane of mask in the bit-sliced counter
// of (class, word) cw: a ripple-carry add whose carry out of the top
// plane spills into the overflow table.
func (s *Sim) count(cw int, mask uint64) {
	pb := cw * counterPlanes
	pl := s.planes[pb : pb+counterPlanes : pb+counterPlanes]
	carry := mask
	for p := range pl {
		t := pl[p] & carry
		pl[p] ^= carry
		carry = t
		if carry == 0 {
			return
		}
	}
	s.spillOver(cw, carry)
}

// spillOver credits the lanes whose class counter just wrapped past its
// top plane with 2^counterPlanes toggles in the overflow table.  Lane l
// of counter cw = class*W+w is entry class*width + w*64 + l%64 = cw*64
// + l%64.
func (s *Sim) spillOver(cw int, carry uint64) {
	if s.spill == nil {
		s.spill = make([]uint64, len(s.classes)*s.width)
	}
	lb := cw << 6
	for m := carry; m != 0; m &= m - 1 {
		s.spill[lb+bits.TrailingZeros64(m)] += 1 << counterPlanes
	}
}

// foldRises brings the class counters up to date with the rise log:
// every first rise not yet counted, seen &^ baseVals less what an
// earlier fold took, enters its class counter with one ripple-carry add
// per slab word, however many events the word logged.  Each lane's
// class count is then its counter plus spill, first rises included.
func (s *Sim) foldRises() {
	if s.foldedRises == len(s.rises) {
		return
	}
	for i := range s.risen {
		r := &s.risen[i]
		if m := s.seen[r.slab] &^ s.baseVals[r.slab] &^ r.folded; m != 0 {
			r.folded |= m
			s.count(int(r.cw), m)
		}
	}
	s.foldedRises = len(s.rises)
}

// classToggles decodes one lane's toggle count for a class: its bits
// gathered from the counter planes plus whatever spilled over.
func (s *Sim) classToggles(c, lane int) uint64 {
	pb := (c*s.words + lane>>6) * counterPlanes
	pl := s.planes[pb : pb+counterPlanes : pb+counterPlanes]
	sh := uint(lane & 63)
	var n uint64
	for p, plane := range pl {
		n |= (plane >> sh & 1) << uint(p)
	}
	if s.spill != nil {
		n += s.spill[c*s.width+lane]
	}
	return n
}

// settleWave drains the pending comb gates in level order.  A gate only
// ever enqueues gates at strictly higher levels, so each gate is
// evaluated at most once per wave; because bit positions never
// interact, the word-slice pass settles every lane exactly as its own
// scalar topological pass would.
func (s *Sim) settleWave() {
	W := s.words
	out := s.evalBuf
	for lvl := 0; s.pending > 0 && lvl < len(s.buckets); lvl++ {
		b := s.buckets[lvl]
		if len(b) == 0 {
			continue
		}
		s.buckets[lvl] = b[:0]
		for _, gi := range b {
			s.queued[gi] = false
			s.pending--
			s.eval(gi, out)
			net := circuit.Net(int(gi) + 2)
			base := int(net) * W
			cur := s.vals[base : base+W : base+W]
			for w := range out {
				if out[w] != cur[w] {
					s.setWords(net, out)
					break
				}
			}
		}
	}
}

// SetActiveLanes restricts accounting (and input broadcast) to the
// given per-word lane masks — the start of a pack race.  Call it
// immediately after Reset, before driving any input; lanes outside the
// mask stay at the quiescent power-on baseline and record nothing.
// Words beyond len(mask) are cleared.
func (s *Sim) SetActiveLanes(mask []uint64) {
	for w := range s.account {
		if w < len(mask) {
			s.account[w] = mask[w]
		} else {
			s.account[w] = 0
		}
	}
}

// SetInputWords drives an external input pin with a per-lane slab; bits
// outside the active mask are ignored and words beyond len(ws) are
// driven to 0.  The change settles immediately in the current cycle,
// with each changed lane accounted exactly as a scalar SetInput would
// have been.
func (s *Sim) SetInputWords(net circuit.Net, ws []uint64) {
	gi := int(net) - 2
	if gi < 0 || gi >= len(s.kinds) || s.kinds[gi] != circuit.KindInput {
		panic(fmt.Sprintf("lanes: SetInput on non-input net %d", net))
	}
	W := s.words
	buf := s.inBuf
	for w := 0; w < W; w++ {
		var v uint64
		if w < len(ws) {
			v = ws[w]
		}
		buf[w] = v & s.account[w]
	}
	base := int(net) * W
	cur := s.vals[base : base+W : base+W]
	for w := range buf {
		if cur[w] != buf[w] {
			s.setWords(net, buf)
			s.settleWave()
			return
		}
	}
}

// SetInputWord drives word 0 of an input pin (lanes 0–63) and clears
// any higher words — the single-word convenience the oracle's per-lane
// scripts use.
func (s *Sim) SetInputWord(net circuit.Net, w uint64) {
	s.oneBuf[0] = w
	s.SetInputWords(net, s.oneBuf[:1])
}

// SetInput drives an input pin in every active lane — the scalar
// Backend contract, under which all lanes run in lockstep.
func (s *Sim) SetInput(net circuit.Net, v bool) {
	var word uint64
	if v {
		word = ^uint64(0)
	}
	buf := s.bcastBuf
	for w := range buf {
		buf[w] = word
	}
	s.SetInputWords(net, buf)
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

// step advances one clock cycle.  The edge first snapshots every armed
// slot's per-lane flip slab (enable ∧ D≠Q) from pre-edge values — the
// snapshot makes the sampling synchronous even along direct Q→D chains
// — then applies the flips and settles the triggered wave.  Clock
// accounting covers every enabled flip-flop of every accounted lane,
// armed or not, exactly like the reference.
func (s *Sim) step() {
	W := s.words
	for w := 0; w < W; w++ {
		wl := w << 6
		for m := s.account[w]; m != 0; m &= m - 1 {
			l := wl + bits.TrailingZeros64(m)
			s.ffClocked[l] += s.plain + s.enabledE[l]
		}
	}
	s.cycle++
	if len(s.armedList) == 0 {
		return
	}
	s.scratchSlots = s.scratchSlots[:0]
	s.scratchFlips = s.scratchFlips[:0]
	for _, slot := range s.armedList {
		d := int(s.ins[s.ffGate[slot]][0]) * W
		fb := int(slot) * W
		s.scratchSlots = append(s.scratchSlots, slot)
		if en := s.ffEn[slot]; en >= 0 {
			eb := int(en) * W
			for w := 0; w < W; w++ {
				s.scratchFlips = append(s.scratchFlips, s.vals[eb+w]&(s.vals[d+w]^s.ffState[fb+w]))
			}
		} else {
			for w := 0; w < W; w++ {
				s.scratchFlips = append(s.scratchFlips, s.vals[d+w]^s.ffState[fb+w])
			}
		}
	}
	q := s.qBuf
	for i, slot := range s.scratchSlots {
		fb := int(slot) * W
		flips := s.scratchFlips[i*W : i*W+W]
		for w := 0; w < W; w++ {
			q[w] = s.ffState[fb+w] ^ flips[w]
			s.ffState[fb+w] = q[w]
		}
		s.rearm(slot)
		s.setWords(circuit.Net(int(s.ffGate[slot])+2), q)
	}
	s.settleWave()
}

// Step advances the simulation by one clock cycle.
func (s *Sim) Step() { s.step() }

// Run advances k cycles, fast-forwarding through quiescence: with no
// armed flip-flop nothing can change until an input does, so the
// remaining cycles collapse into per-lane clock accounting.
func (s *Sim) Run(k int) {
	for i := 0; i < k; i++ {
		if len(s.armedList) == 0 {
			s.forward(k - i)
			return
		}
		s.step()
	}
}

// forward advances k quiescent cycles: clock accounting only, for every
// accounted lane.
func (s *Sim) forward(k int) {
	for w := 0; w < s.words; w++ {
		wl := w << 6
		for m := s.account[w]; m != 0; m &= m - 1 {
			l := wl + bits.TrailingZeros64(m)
			s.ffClocked[l] += uint64(k) * (s.plain + s.enabledE[l])
		}
	}
	s.cycle += k
}

// RunUntil steps until net first carries a 1 in lane 0 and returns the
// arrival time, or temporal.Never if it has not arrived after
// maxCycles — the scalar Backend contract.  A quiescent circuit
// advances straight to the horizon.
func (s *Sim) RunUntil(net circuit.Net, maxCycles int) temporal.Time {
	for !s.laneArrived(net, 0) && s.cycle < maxCycles {
		if len(s.armedList) == 0 {
			s.forward(maxCycles - s.cycle)
			break
		}
		s.step()
	}
	return s.LaneArrival(net, 0)
}

// laneArrived reports whether net has carried a 1 in the given lane.
func (s *Sim) laneArrived(net circuit.Net, lane int) bool {
	slab := int(net)*s.words + lane>>6
	return s.seen[slab]>>uint(lane&63)&1 != 0
}

// RaceUntil runs the pack race: it steps until every active lane's copy
// of net has fired or maxCycles is reached, freezing each lane at its
// own stop cycle — the cycle its scalar RunUntil would have returned
// at.  A frozen lane stops accumulating toggles, arrivals, and clock
// cycles while the shared word simulation keeps stepping for the rest.
// LaneCycle, LaneArrival, and LaneActivity read the per-lane outcomes
// afterwards.
func (s *Sim) RaceUntil(net circuit.Net, maxCycles int) {
	W := s.words
	racing := s.racingBuf
	copy(racing, s.account)
	nb := int(net) * W
	remaining := uint64(0)
	for w := 0; w < W; w++ {
		if arr := s.seen[nb+w] & racing[w]; arr != 0 {
			s.freezeWord(w, arr)
			racing[w] &^= arr
		}
		remaining |= racing[w]
	}
	for remaining != 0 && s.cycle < maxCycles {
		if len(s.armedList) == 0 {
			// Quiescent in every lane: no remaining output can ever fire,
			// so the unfinished lanes coast to the bound on clock
			// accounting alone.
			k := maxCycles - s.cycle
			for w := 0; w < W; w++ {
				wl := w << 6
				for m := racing[w]; m != 0; m &= m - 1 {
					l := wl + bits.TrailingZeros64(m)
					s.ffClocked[l] += uint64(k) * (s.plain + s.enabledE[l])
				}
			}
			s.cycle = maxCycles
			break
		}
		s.step()
		remaining = 0
		for w := 0; w < W; w++ {
			if arr := s.seen[nb+w] & racing[w]; arr != 0 {
				s.freezeWord(w, arr)
				racing[w] &^= arr
			}
			remaining |= racing[w]
		}
	}
	// Lanes that never fired stop at the bound, like a scalar RunUntil
	// returning Never at maxCycles.
	for w := 0; w < W; w++ {
		wl := w << 6
		for m := racing[w]; m != 0; m &= m - 1 {
			s.laneCycle[wl+bits.TrailingZeros64(m)] = s.cycle
		}
		s.account[w] &^= racing[w]
	}
}

// freezeWord retires the given lanes of one word at the current cycle
// and masks them out of all further accounting.
func (s *Sim) freezeWord(w int, arr uint64) {
	wl := w << 6
	for m := arr; m != 0; m &= m - 1 {
		s.laneCycle[wl+bits.TrailingZeros64(m)] = s.cycle
	}
	s.account[w] &^= arr
}

// Cycle returns the number of Steps taken so far (fast-forwarded
// quiescent cycles included).
func (s *Sim) Cycle() int { return s.cycle }

// LaneCycle returns the cycle the given lane's RaceUntil stopped at.
func (s *Sim) LaneCycle(lane int) int { return s.laneCycle[lane] }

// Value returns the current settled value of a net in lane 0.
func (s *Sim) Value(net circuit.Net) bool { return s.vals[int(net)*s.words]&1 != 0 }

// LaneValue returns the current settled value of a net in the given lane.
func (s *Sim) LaneValue(net circuit.Net, lane int) bool {
	return s.vals[int(net)*s.words+lane>>6]>>uint(lane&63)&1 != 0
}

// Arrival returns the cycle at which the net first carried a 1 in lane
// 0, or temporal.Never.
func (s *Sim) Arrival(net circuit.Net) temporal.Time { return s.LaneArrival(net, 0) }

// LaneArrival returns the cycle at which the net first carried a 1 in
// the given lane, or temporal.Never if it had not fired when the lane
// froze.
func (s *Sim) LaneArrival(net circuit.Net, lane int) temporal.Time {
	slab := int(net)*s.words + lane>>6
	bit := uint64(1) << uint(lane&63)
	if s.baseVals[slab]&bit != 0 {
		return 0
	}
	if s.seen[slab]&bit == 0 {
		return temporal.Never
	}
	// Exactly one event of the slab's chain carries the lane's bit.
	e := s.riseHead[slab]
	for s.rises[e].mask&bit == 0 {
		e = s.rises[e].next
	}
	return temporal.Time(s.rises[e].cycle)
}

// Toggles returns the cumulative toggle count of a net in lane 0.
func (s *Sim) Toggles(net circuit.Net) uint64 { return s.toggles0[net] }

// Activity summarizes lane 0 of the simulation so far — the scalar
// Backend contract, using the shared cycle counter.
func (s *Sim) Activity() circuit.Activity { return s.activity(0, s.cycle) }

// LaneActivity summarizes one lane of a finished pack race, as of the
// cycle the lane froze at.  It is byte-identical to the Activity a solo
// scalar race of that lane's candidate would have reported.
func (s *Sim) LaneActivity(lane int) circuit.Activity {
	return s.activity(lane, s.laneCycle[lane])
}

func (s *Sim) activity(lane, cycles int) circuit.Activity {
	s.foldRises()
	a := circuit.Activity{
		Cycles:          cycles,
		FFClockedCycles: s.ffClocked[lane],
		NumDFFs:         s.nl.NumDFFs(),
	}
	for c, tc := range s.classes {
		n := s.classToggles(c, lane)
		if n == 0 {
			continue
		}
		a.NetToggles[tc.kind] += n
		for _, rp := range tc.readers {
			a.LoadToggles[rp.kind] += n * uint64(rp.count)
		}
	}
	return a
}

// The bit-parallel engine satisfies the shared backend contract.
var _ circuit.Backend = (*Sim)(nil)
