package lanes

import (
	"fmt"
	"math/bits"
	"slices"

	"racelogic/internal/circuit"
	"racelogic/internal/temporal"
)

// slab is one net's state across a pack: W uint64 words, bit l of word
// w the net's value in lane w·64+l.  The kernel is one generic type
// instantiated once per width, so inside it every word loop has a
// constant trip count and indexes a fixed-size array without a bounds
// check; the one-word instance, the 64-lane pack, has no word loop left
// to speak of.
type slab interface {
	[1]uint64 | [2]uint64 | [4]uint64 | [8]uint64
}

// kernel is the simulation state and every operation that touches it,
// specialized to one slab width.  Sim forwards to it through engine.
type kernel[S slab] struct {
	structure
	width int // lanes per pack: len(S) × WordBits

	vals     []S // net → current values
	seen     []S // net → lanes that have carried a 1 since Reset, baseline included
	baseVals []S // net → power-on settled values, homogeneous across lanes
	rises    []riseEvent
	// riseHead[net*W+w] is 1 + the slab word's latest rise event, 0
	// before its first, and riseNext[e] the word's event before e, -1
	// for its first: chains linked lazily, up to rises[:chained], when
	// an arrival is read, so the hot path only appends to the log.
	riseHead []int32
	riseNext []int32
	chained  int
	// risen lists the slab words with a rise event since Reset, in
	// first-rise order; foldedRises is len(rises) as of the last
	// foldRises, so a read with no new rise skips the fold.
	risen       []riseSlab
	foldedRises int

	planes    [][counterPlanes]uint64 // class*W+w → bit p of each lane's toggle count in plane p
	spill     []uint64                // class*width+lane → counts carried out of the top plane; nil until needed
	toggles0  []uint64                // net → lane-0 toggles other than its first rise, for the scalar Toggles contract
	ffClocked []uint64                // lane → Σ enabled flip-flops per stepped cycle
	enabledE  []uint64                // lane → DFFEs whose enable currently carries 1
	stopAt    []int                   // lane → cycle its RaceUntil stopped at
	// baseEnabledE counts the DFFEs whose enable is 1 at power-on, the
	// same in every lane.
	baseEnabledE uint64
	cycle        int
	// driven is set by the first drive or step after Reset: LoadSymbols
	// is legal only before it.
	driven bool

	// account masks, word by word, the lanes whose transitions are
	// recorded: all lanes under the scalar Backend interface, the active
	// pack during a lane race, shrinking as lanes finish and freeze.
	account S

	// The pending edge: the flip-flop slots whose D or enable net moved
	// since the edge that last examined them.  Every other slot has
	// enable ∧ (D ≠ Q) clear in every lane, so an empty list is
	// quiescence.  edgeSlots and edgeFlips hold an edge's flipping slots
	// and their flip words, taken from pre-edge values before any lands.
	armed     []int32
	isArmed   []bool
	baseArmed []int32
	edgeSlots []int32
	edgeFlips []S

	// The settle wave: bit p of dirty marks gates[p] for evaluation.
	// Positions run level by level, so scanning the set upward evaluates
	// every marked gate after all its inputs have settled.
	dirty []uint64

	// counts[lane*len(classes)+class] is every lane's toggle count in a
	// class, decoded from the planes once a pack when first read;
	// decoded is cleared by every drive, step and Reset.
	counts  []uint64
	decoded bool

	loadHist []uint32 // LoadSymbols' per-lane symbol histograms
	// load0 is the plan LoadSymbols loaded with lane 0 accounted since
	// Reset, and loadVal0 lane 0's symbol group values in it.
	load0    *SymbolPlan
	loadVal0 []uint8

	work WorkCounters
}

// ones is a slab with every lane set.
func ones[S slab]() (s S) {
	for w := 0; w < len(s); w++ {
		s[w] = ^uint64(0)
	}
	return s
}

// newKernel allocates a kernel over st and settles it to the power-on
// state it latches as the Reset baseline.
func newKernel[S slab](st *structure) *kernel[S] {
	all := ones[S]()
	W := len(all)
	nn := st.nl.NumNets()
	k := &kernel[S]{
		structure: *st,
		width:     W * WordBits,
		vals:      make([]S, nn),
		riseHead:  make([]int32, nn*W),
		planes:    make([][counterPlanes]uint64, len(st.classes)*W),
		toggles0:  make([]uint64, nn),
		ffClocked: make([]uint64, W*WordBits),
		enabledE:  make([]uint64, W*WordBits),
		stopAt:    make([]int, W*WordBits),
		account:   all,
		isArmed:   make([]bool, len(st.ffs)),
		dirty:     make([]uint64, (len(st.gates)+63)/64),
		counts:    make([]uint64, W*WordBits*len(st.classes)),
	}

	// Power-on settle: one full pass in level order.  Like the reference
	// Compile, it records arrivals (baseVals doubles as the cycle-0
	// arrival mask) but counts no toggles.
	k.vals[circuit.One] = all
	for slot, ff := range st.ffs {
		if st.ffInit[slot] {
			k.vals[ff.q] = all
		}
	}
	for i := range st.gates {
		g := &st.gates[i]
		k.vals[g.out] = k.eval(g)
	}
	for slot, ff := range st.ffs {
		if ff.en >= 0 && k.vals[ff.en][0] != 0 {
			k.baseEnabledE++
		}
		if _, moved := k.flips(int32(slot)); moved != 0 {
			k.arm(int32(slot))
		}
	}
	for l := range k.enabledE {
		k.enabledE[l] = k.baseEnabledE
	}
	k.baseVals = slices.Clone(k.vals)
	k.seen = slices.Clone(k.vals)
	k.baseArmed = slices.Clone(k.armed)
	return k
}

func (k *kernel[S]) reset() {
	copy(k.vals, k.baseVals)
	copy(k.seen, k.baseVals)
	clear(k.toggles0)
	k.load0 = nil
	clear(k.planes)
	clear(k.spill)
	k.work.Rises += uint64(len(k.rises))
	k.rises = k.rises[:0]
	if k.chained > 0 {
		clear(k.riseHead)
		k.riseNext = k.riseNext[:0]
		k.chained = 0
	}
	k.risen = k.risen[:0]
	k.foldedRises = 0
	clear(k.ffClocked)
	clear(k.stopAt)
	for l := range k.enabledE {
		k.enabledE[l] = k.baseEnabledE
	}
	k.cycle = 0
	k.driven = false
	k.decoded = false
	k.account = ones[S]()
	for _, slot := range k.armed {
		k.isArmed[slot] = false
	}
	k.armed = append(k.armed[:0], k.baseArmed...)
	for _, slot := range k.armed {
		k.isArmed[slot] = true
	}
}

// drive marks the start of a drive or step: LoadSymbols is no longer
// legal, and the decoded class counts are stale.
func (k *kernel[S]) drive() {
	k.driven = true
	k.decoded = false
}

func (k *kernel[S]) setActiveLanes(mask []uint64) {
	for w := 0; w < len(k.account); w++ {
		k.account[w] = 0
		if w < len(mask) {
			k.account[w] = mask[w]
		}
	}
}

// eval computes a combinational gate's output slab from the current net
// slabs: bitwise boolean algebra evaluates all lanes of a word at once.
func (k *kernel[S]) eval(g *combGate) (out S) {
	vals := k.vals
	if g.isWide {
		out = vals[k.wide[g.lo]]
		for _, x := range k.wide[g.lo+1 : g.hi] {
			a := &vals[x]
			for w := 0; w < len(out); w++ {
				if g.kind == circuit.KindAnd {
					out[w] &= (*a)[w]
				} else {
					out[w] |= (*a)[w]
				}
			}
		}
		return out
	}
	a, b, c := &vals[g.in[0]], &vals[g.in[1]], &vals[g.in[2]]
	switch g.kind {
	case circuit.KindOr:
		for w := 0; w < len(out); w++ {
			out[w] = (*a)[w] | (*b)[w] | (*c)[w]
		}
	case circuit.KindAnd:
		for w := 0; w < len(out); w++ {
			out[w] = (*a)[w] & (*b)[w] & (*c)[w]
		}
	case circuit.KindXnor:
		for w := 0; w < len(out); w++ {
			out[w] = ^((*a)[w] ^ (*b)[w])
		}
	case circuit.KindXor:
		for w := 0; w < len(out); w++ {
			out[w] = (*a)[w] ^ (*b)[w]
		}
	case circuit.KindBuf:
		out = *a
	case circuit.KindNot:
		for w := 0; w < len(out); w++ {
			out[w] = ^(*a)[w]
		}
	case circuit.KindMux2:
		for w := 0; w < len(out); w++ {
			out[w] = ((*a)[w] & (*c)[w]) | (^(*a)[w] & (*b)[w])
		}
	default:
		panic(fmt.Sprintf("lanes: unexpected combinational kind %v", g.kind))
	}
	return out
}

// arm adds a slot to the pending edge.
func (k *kernel[S]) arm(slot int32) {
	if !k.isArmed[slot] {
		k.isArmed[slot] = true
		k.armed = append(k.armed, slot)
	}
}

// flips returns a slot's per-lane flip words, enable ∧ (D ≠ Q), from the
// current net values, and their union.
func (k *kernel[S]) flips(slot int32) (f S, moved uint64) {
	ff := &k.ffs[slot]
	d, q := &k.vals[ff.d], &k.vals[ff.q]
	if ff.en >= 0 {
		e := &k.vals[ff.en]
		for w := 0; w < len(f); w++ {
			f[w] = (*e)[w] & ((*d)[w] ^ (*q)[w])
			moved |= f[w]
		}
		return f, moved
	}
	for w := 0; w < len(f); w++ {
		f[w] = (*d)[w] ^ (*q)[w]
		moved |= f[w]
	}
	return f, moved
}

// commit writes a changed net slab.  Each changed word is accounted
// for its accounted lanes: the lanes carrying their first 1 append one
// rise-log event, and every other transition enters the net's
// bit-sliced class counter with one ripple-carry add (the first rises
// reach the counters later, in foldRises).  The per-lane enable
// population follows an enable net, the flip-flops reading the net join
// the pending edge, and, with wave set, the comb gates reading it are
// marked on the settle wave.  nw must differ from the current slab.
func (k *kernel[S]) commit(net circuit.Net, nw S, wave bool) {
	W := len(nw)
	fan := &k.nets[net]
	cur := &k.vals[net]
	old := *cur
	*cur = nw
	k.work.Commits++
	for w := 0; w < W; w++ {
		diff := old[w] ^ nw[w]
		if diff == 0 {
			continue
		}
		k.work.Words++
		if acc := diff & k.account[w]; acc != 0 {
			seen := &k.seen[net]
			if rise := nw[w] & acc &^ (*seen)[w]; rise != 0 {
				slab := int32(int(net)*W + w)
				if (*seen)[w] == 0 {
					// The word's first rise.  A baseline word is 0 or 1 in
					// every lane alike, and one that is 1 cannot rise.
					k.risen = append(k.risen, riseSlab{slab: slab, cw: fan.class*int32(W) + int32(w)})
				}
				(*seen)[w] |= rise
				k.rises = append(k.rises, riseEvent{mask: rise, cycle: int32(k.cycle), slab: slab})
				acc &^= rise
			}
			if acc != 0 {
				if w == 0 && acc&1 != 0 {
					k.toggles0[net]++
				}
				k.count(int(fan.class)*W+w, acc)
			}
		}
	}
	if wave {
		for _, p := range fan.comb {
			k.dirty[p>>6] |= 1 << uint(p&63)
		}
	}
	if len(fan.ffs) != 0 {
		if ne := uint64(fan.nEn); ne != 0 {
			k.trackEnables(old, nw, ne)
		}
		for _, slot := range fan.ffs {
			k.arm(slot)
		}
	}
}

// trackEnables follows the per-lane count of DFFEs whose enable is 1 as
// an enable net driving ne of them moves from old to nw.  Every lane is
// tracked, frozen or not; the per-lane clock accounting reads it only
// for accounted lanes.
func (k *kernel[S]) trackEnables(old, nw S, ne uint64) {
	for w := 0; w < len(nw); w++ {
		wl := w << 6
		diff := old[w] ^ nw[w]
		for m := diff & nw[w]; m != 0; m &= m - 1 {
			k.enabledE[wl+bits.TrailingZeros64(m)] += ne
		}
		for m := diff &^ nw[w]; m != 0; m &= m - 1 {
			k.enabledE[wl+bits.TrailingZeros64(m)] -= ne
		}
	}
}

// count adds one toggle to each lane of mask in the bit-sliced counter
// of (class, word) cw: a ripple-carry add whose carry out of the top
// plane spills into the overflow table.
func (k *kernel[S]) count(cw int, mask uint64) {
	pl := &k.planes[cw]
	carry := mask
	for p := range pl {
		t := pl[p] & carry
		pl[p] ^= carry
		carry = t
		if carry == 0 {
			return
		}
	}
	k.spillOver(cw, carry)
}

// spillOver credits the lanes whose class counter just wrapped past its
// top plane with 2^counterPlanes toggles in the overflow table.  Lane l
// of counter cw = class*W+w is entry class*width + w*64 + l%64 = cw*64
// + l%64.
func (k *kernel[S]) spillOver(cw int, carry uint64) {
	if k.spill == nil {
		k.spill = make([]uint64, len(k.classes)*k.width)
	}
	lb := cw << 6
	for m := carry; m != 0; m &= m - 1 {
		k.spill[lb+bits.TrailingZeros64(m)] += 1 << counterPlanes
	}
}

// foldRises brings the class counters up to date with the rise log:
// every first rise not yet counted, the bits of seen not yet folded
// (a word that rises is 0 at baseline), enters its class counter with
// one ripple-carry add per slab word, however many events the word
// logged.
func (k *kernel[S]) foldRises() {
	if k.foldedRises == len(k.rises) {
		return
	}
	W := len(k.account)
	for i := range k.risen {
		r := &k.risen[i]
		net, w := int(r.slab)/W, int(r.slab)%W
		if m := k.seen[net][w] &^ r.folded; m != 0 {
			r.folded |= m
			k.count(int(r.cw), m)
		}
	}
	k.foldedRises = len(k.rises)
}

// decode fills counts from the class counters, plane by plane: each set
// bit of plane p adds 2^p to its lane's count, so the work is the
// planes' population however many lanes the pack holds.
func (k *kernel[S]) decode() {
	if k.decoded {
		return
	}
	k.foldRises()
	W := len(k.account)
	nc := len(k.classes)
	clear(k.counts)
	for cw := range k.planes {
		c, wl := cw/W, cw%W<<6
		for p, plane := range &k.planes[cw] {
			for m := plane; m != 0; m &= m - 1 {
				k.counts[(wl+bits.TrailingZeros64(m))*nc+c] += 1 << p
			}
		}
	}
	if k.spill != nil {
		for i, n := range k.spill {
			if n != 0 {
				k.counts[i%k.width*nc+i/k.width] += n
			}
		}
	}
	k.decoded = true
}

// activity summarizes one lane as of the given cycle count: its class
// counts times each class's reader-pin loads, summed into the
// kind-indexed tallies.
func (k *kernel[S]) activity(lane, cycles int) circuit.Activity {
	k.decode()
	a := circuit.Activity{
		Cycles:          cycles,
		FFClockedCycles: k.ffClocked[lane],
		NumDFFs:         len(k.ffs),
	}
	nc := len(k.classes)
	for c, n := range k.counts[lane*nc : lane*nc+nc] {
		if n == 0 {
			continue
		}
		tc := &k.classes[c]
		a.NetToggles[tc.kind] += n
		for _, rp := range tc.readers {
			a.LoadToggles[rp.kind] += n * uint64(rp.count)
		}
	}
	return a
}

// settle evaluates the marked comb gates in position order, which is
// level order.  A gate only ever marks gates at strictly higher levels,
// so each gate is evaluated at most once per wave, after all its
// inputs; because bit positions never interact, the word-slice pass
// settles every lane exactly as its own scalar topological pass would.
func (k *kernel[S]) settle() {
	dirty := k.dirty
	for i := range dirty {
		for dirty[i] != 0 {
			b := bits.TrailingZeros64(dirty[i])
			dirty[i] &= dirty[i] - 1
			g := &k.gates[i<<6|b]
			k.work.Evals++
			if out := k.eval(g); out != k.vals[g.out] {
				k.commit(g.out, out, true)
			}
		}
	}
}

func (k *kernel[S]) setInputWords(net circuit.Net, ws []uint64) {
	k.drive()
	var v S
	for w := 0; w < len(v) && w < len(ws); w++ {
		v[w] = ws[w] & k.account[w]
	}
	if v != k.vals[net] {
		k.commit(net, v, true)
		k.settle()
	}
}

// clock charges n clock edges to every accounted lane: each enabled
// flip-flop is clocked once per edge, armed or not, as in the reference.
func (k *kernel[S]) clock(n int) {
	for w := 0; w < len(k.account); w++ {
		wl := w << 6
		for m := k.account[w]; m != 0; m &= m - 1 {
			l := wl + bits.TrailingZeros64(m)
			k.ffClocked[l] += uint64(n) * (k.plain + k.enabledE[l])
		}
	}
}

// step advances one clock cycle.  The edge takes every pending slot's
// flip words from pre-edge values and empties the list before any flip
// lands — so sampling stays synchronous even along direct Q→D chains,
// and a slot whose D or enable moves during this edge's settle joins
// the next edge — then commits the flips and settles the wave.
func (k *kernel[S]) step() {
	k.drive()
	k.clock(1)
	k.cycle++
	k.work.Edges++
	if len(k.armed) == 0 {
		return
	}
	k.work.SlotsExamined += uint64(len(k.armed))
	slots, flips := k.edgeSlots[:0], k.edgeFlips[:0]
	for _, slot := range k.armed {
		k.isArmed[slot] = false
		if f, moved := k.flips(slot); moved != 0 {
			slots = append(slots, slot)
			flips = append(flips, f)
		}
	}
	k.armed = k.armed[:0]
	k.work.SlotsFlipped += uint64(len(slots))
	for i, slot := range slots {
		q := k.ffs[slot].q
		nq := k.vals[q]
		f := &flips[i]
		for w := 0; w < len(nq); w++ {
			nq[w] ^= (*f)[w]
		}
		k.commit(q, nq, true)
	}
	k.edgeSlots, k.edgeFlips = slots, flips
	k.settle()
}

// run advances n cycles, fast-forwarding through quiescence: with no
// pending slot nothing can change until an input does, so the remaining
// cycles collapse into per-lane clock accounting.
func (k *kernel[S]) run(n int) {
	for i := 0; i < n; i++ {
		if len(k.armed) == 0 {
			k.forward(n - i)
			return
		}
		k.step()
	}
}

// forward advances n quiescent cycles: clock accounting only, for every
// accounted lane.
func (k *kernel[S]) forward(n int) {
	k.drive()
	k.clock(n)
	k.cycle += n
}

func (k *kernel[S]) runUntil(net circuit.Net, maxCycles int) {
	for k.seen[net][0]&1 == 0 && k.cycle < maxCycles {
		if len(k.armed) == 0 {
			k.forward(maxCycles - k.cycle)
			return
		}
		k.step()
	}
}

// raceUntil steps until every accounted lane's copy of net has fired or
// maxCycles is reached, freezing each lane at its own stop cycle.
func (k *kernel[S]) raceUntil(net circuit.Net, maxCycles int) {
	k.drive()
	for k.freezeArrived(net) && k.cycle < maxCycles {
		if len(k.armed) == 0 {
			// Quiescent in every lane: no remaining output can ever fire,
			// so the unfinished lanes coast to the bound on clock
			// accounting alone.
			k.forward(maxCycles - k.cycle)
			break
		}
		k.step()
	}
	// Lanes that never fired stop at the bound, like a scalar RunUntil
	// returning Never at maxCycles.
	for w := 0; w < len(k.account); w++ {
		k.freezeWord(w, k.account[w])
	}
}

// freezeArrived retires the accounted lanes whose copy of net has fired
// and reports whether any accounted lane is left racing.
func (k *kernel[S]) freezeArrived(net circuit.Net) bool {
	seen := &k.seen[net]
	var left uint64
	for w := 0; w < len(k.account); w++ {
		if arr := (*seen)[w] & k.account[w]; arr != 0 {
			k.freezeWord(w, arr)
		}
		left |= k.account[w]
	}
	return left != 0
}

// freezeWord retires the given lanes of one word at the current cycle
// and masks them out of all further accounting.
func (k *kernel[S]) freezeWord(w int, lanes uint64) {
	wl := w << 6
	for m := lanes; m != 0; m &= m - 1 {
		k.stopAt[wl+bits.TrailingZeros64(m)] = k.cycle
	}
	k.account[w] &^= lanes
}

func (k *kernel[S]) now() int                        { return k.cycle }
func (k *kernel[S]) laneStop(lane int) int           { return k.stopAt[lane] }
func (k *kernel[S]) baseWord(net circuit.Net) uint64 { return k.baseVals[net][0] }

// counters returns the work counts, the rise log's events since Reset
// included.
func (k *kernel[S]) counters() WorkCounters {
	c := k.work
	c.Rises += uint64(len(k.rises))
	return c
}

func (k *kernel[S]) laneValue(net circuit.Net, lane int) bool {
	return k.vals[net][lane>>6]>>uint(lane&63)&1 != 0
}

func (k *kernel[S]) laneArrival(net circuit.Net, lane int) temporal.Time {
	w, bit := lane>>6, uint64(1)<<uint(lane&63)
	if k.baseVals[net][w]&bit != 0 {
		return 0
	}
	if k.seen[net][w]&bit == 0 {
		return temporal.Never
	}
	// Exactly one event of the slab's chain carries the lane's bit.
	k.chainRises()
	e := k.riseHead[int(net)*len(k.account)+w] - 1
	for k.rises[e].mask&bit == 0 {
		e = k.riseNext[e]
	}
	return temporal.Time(k.rises[e].cycle)
}

// chainRises links the rise events logged since the last call into
// their slab words' chains.
func (k *kernel[S]) chainRises() {
	for e := k.chained; e < len(k.rises); e++ {
		slab := k.rises[e].slab
		k.riseNext = append(k.riseNext, k.riseHead[slab]-1)
		k.riseHead[slab] = int32(e) + 1
	}
	k.chained = len(k.rises)
}
