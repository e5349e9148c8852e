package race

import (
	"fmt"
	"strings"

	"racelogic/internal/circuit"
	"racelogic/internal/circuit/lanes"
	"racelogic/internal/score"
	"racelogic/internal/temporal"
)

// Array is the Fig. 4 synchronous Race Logic engine for DNA global
// sequence alignment: an (N+1)×(M+1) grid of unit cells over the edit
// graph, using the Fig. 2b score matrix with mismatch weight promoted to
// infinity (match = 1, indel = 1, mismatch = missing edge).
//
// Each unit cell (i,j) hosts exactly the gates of Fig. 4b:
//
//   - a 3-input OR combining the delayed horizontal, vertical and
//     (match-gated) diagonal edges;
//   - one D flip-flop delaying the cell's output by the unit weight,
//     whose Q fans out to the right, down and diagonal neighbors;
//   - the matching-condition gate of Eq. 2: M(i,j) = XNOR over the two
//     symbol bits, folded by an AND that also gates the diagonal edge.
//
// The alignment score is the arrival time of the rising edge at cell
// (N,M); per-cell arrival probes reproduce the Fig. 4c timing matrix.
//
// Array is also the compiled-array core of the other edit-graph
// fabrics: GatedArray and GeneralArray embed it with their own netlist,
// symbol encoding and cycle bound, so every fabric races, thresholds,
// switches backend and races lane packs through the same methods.
//
// An Array compiles its netlist once, on the first race, and resets the
// same simulator for every subsequent race — the hardware analogue of one
// physical array scoring a stream of pairs.  Because that simulator is
// shared state, an Array is not safe for concurrent use; build one array
// per goroutine (internal/pipeline does exactly that).
type Array struct {
	n, m    int
	netlist *circuit.Netlist
	root    circuit.Net
	// pins are the symbol inputs in drive order, symBits per symbol,
	// least significant bit first: P's n symbols, then Q's m.
	pins    []circuit.Net
	symBits int
	// codes maps every byte to its symbol code, or -1 for a byte outside
	// the alphabet; badSymbol is the error such a byte raises.
	codes     *[256]int16
	badSymbol func(c byte) error
	out       [][]circuit.Net // output of every node (i,j)
	bound     int             // cycles a race runs before its output must have fired
	backend   Backend
	laneWords int             // uint64 words per net slab under BackendLanes
	sim       circuit.Backend // compiled once, Reset between races
	// symbols is the lanes engine's tabulated symbol load, planned once
	// per compiled engine by the first lane pack and dropped with it;
	// it stays nil when the netlist breaks the plan's rules, and such
	// packs load their symbols pin by pin.
	symbols *lanes.SymbolPlan
	planned bool
}

// dnaCodes maps every byte to its 2-bit DNA encoding, its index in
// score.DNAAlphabet, or -1 for a byte that is not a base.
var dnaCodes = func() (t [256]int16) {
	for i := range t {
		t[i] = -1
	}
	for i := 0; i < len(score.DNAAlphabet); i++ {
		t[score.DNAAlphabet[i]] = int16(i)
	}
	return t
}()

func badDNASymbol(c byte) error {
	return fmt.Errorf("race: symbol %q is not a DNA base (%s)", c, score.DNAAlphabet)
}

// checkDims rejects an array shape with an empty side.
func checkDims(n, m int) error {
	if n < 1 || m < 1 {
		return fmt.Errorf("race: array dimensions %d×%d must be ≥ 1", n, m)
	}
	return nil
}

// newCore starts an n×m array: a fresh netlist holding the root and
// bits symbol pins per position, named p<i>_b<k> and q<j>_b<k>, which
// codes and badSymbol encode.  The fabric builder wires out and sets
// bound.
func newCore(n, m, bits int, codes *[256]int16, badSymbol func(byte) error) *Array {
	nl := circuit.New()
	a := &Array{n: n, m: m, netlist: nl, symBits: bits, codes: codes, badSymbol: badSymbol, laneWords: 1}
	a.root = nl.Input("root")
	for _, side := range []struct {
		prefix string
		count  int
	}{{"p", n}, {"q", m}} {
		for i := 0; i < side.count; i++ {
			for b := 0; b < bits; b++ {
				a.pins = append(a.pins, nl.Input(fmt.Sprintf("%s%d_b%d", side.prefix, i, b)))
			}
		}
	}
	a.out = make([][]circuit.Net, n+1)
	for i := range a.out {
		a.out[i] = make([]circuit.Net, m+1)
	}
	return a
}

// symbolPins returns the pins of symbol k in drive order: P's symbol k
// for k < n, Q's symbol k−n otherwise.
func (a *Array) symbolPins(k int) []circuit.Net {
	return a.pins[k*a.symBits : (k+1)*a.symBits]
}

// NewArray builds the unit-cell array for strings of lengths n and m.
func NewArray(n, m int) (*Array, error) {
	if err := checkDims(n, m); err != nil {
		return nil, err
	}
	a, _ := newDNAArray(n, m, func(nl *circuit.Netlist, _, _ int, d circuit.Net) circuit.Net {
		return nl.DFF(d)
	})
	return a, nil
}

// newDNAArray builds the Fig. 4 cell grid the plain and clock-gated
// arrays share: node (i,j) ORs its delayed horizontal, vertical and
// match-gated diagonal edges, and ff makes the flip-flop that delays the
// node's output by the unit weight.  It returns the array and every
// node's delayed output.
func newDNAArray(n, m int, ff func(nl *circuit.Netlist, i, j int, d circuit.Net) circuit.Net) (*Array, [][]circuit.Net) {
	a := newCore(n, m, 2, &dnaCodes, badDNASymbol)
	nl := a.netlist
	d := make([][]circuit.Net, n+1)
	for i := range d {
		d[i] = make([]circuit.Net, m+1)
	}
	for i := 0; i <= n; i++ {
		for j := 0; j <= m; j++ {
			if i == 0 && j == 0 {
				a.out[0][0] = a.root
				d[0][0] = ff(nl, 0, 0, a.root)
				continue
			}
			var terms []circuit.Net
			if i > 0 {
				terms = append(terms, d[i-1][j]) // horizontal indel, weight 1
			}
			if j > 0 {
				terms = append(terms, d[i][j-1]) // vertical indel, weight 1
			}
			if i > 0 && j > 0 {
				// Diagonal match edge, weight 1, present only when the
				// symbols agree (Eq. 2 XNOR matching condition).
				p, q := a.symbolPins(i-1), a.symbolPins(n+j-1)
				match := nl.And(nl.Xnor(p[0], q[0]), nl.Xnor(p[1], q[1]))
				terms = append(terms, nl.And(match, d[i-1][j-1]))
			}
			a.out[i][j] = nl.Or(terms...)
			d[i][j] = ff(nl, i, j, a.out[i][j])
		}
	}
	a.bound = n + m + 2
	return a, d
}

// Netlist exposes the compiled structure for area/energy accounting.
func (a *Array) Netlist() *circuit.Netlist { return a.netlist }

// Dims returns the string lengths the array was built for.
func (a *Array) Dims() (n, m int) { return a.n, a.m }

// FFsPerCell reports the average flip-flop count of one unit cell, the
// C_clkcell input of the Eq. 6/7 gating models.
func (a *Array) FFsPerCell() int {
	cells := (a.n + 1) * (a.m + 1)
	return (a.netlist.NumDFFs() + cells/2) / cells
}

// AlignResult is one completed race through an edit-graph array.
type AlignResult struct {
	// Score is the arrival time at node (N,M): the global alignment
	// score under the array's score matrix.  It is temporal.Never when
	// a threshold race was cut off early.
	Score temporal.Time
	// Cycles is the number of clock cycles the race ran.
	Cycles int
	// Arrivals[i][j] is the cycle node (i,j) fired — the Fig. 4c timing
	// matrix — or temporal.Never if it had not fired when the race ended.
	// Lane-pack results (AlignLanes, AlignLanesMulti) leave it nil.
	Arrivals [][]temporal.Time
	// Activity is the toggle/clock report for the energy model.
	Activity circuit.Activity
}

// Align races strings p and q through the array and returns the score and
// the full timing matrix.  len(p) and len(q) must equal the array's
// dimensions.
func (a *Array) Align(p, q string) (*AlignResult, error) {
	return a.align(p, q, a.bound)
}

// AlignThreshold races with the Section 6 early-termination rule: if the
// output has not fired after threshold cycles the strings are declared
// dissimilar and the race stops, returning Score = temporal.Never.  "The
// maximum possible score is known at each instant in time" — a count
// exceeding the threshold can never come back down.  Clock gating never
// alters arrival times, so the cut-off composes with it freely.
func (a *Array) AlignThreshold(p, q string, threshold temporal.Time) (*AlignResult, error) {
	if threshold < 0 {
		return nil, fmt.Errorf("race: negative threshold %v", threshold)
	}
	res, err := a.align(p, q, a.boundFor(threshold))
	return applyThreshold(res, threshold), err
}

// boundFor is the cycle bound of a race under threshold: threshold+1
// cycles decide it, and a negative threshold, or one the full race
// cannot exceed, runs the full race.
func (a *Array) boundFor(threshold temporal.Time) int {
	if threshold >= 0 && threshold < temporal.Time(a.bound-1) {
		return int(threshold) + 1
	}
	return a.bound
}

// applyThreshold enforces the cut-off contract on a bounded race: an
// output edge arriving in the very cycle the abandon decision is made
// (threshold+1) still exceeds the threshold and is discarded, so exactly
// the scores ≤ threshold survive.
func applyThreshold(res *AlignResult, threshold temporal.Time) *AlignResult {
	if res != nil && res.Score != temporal.Never && res.Score > threshold {
		res.Score = temporal.Never
	}
	return res
}

func (a *Array) shapeError(lp, lq int) error {
	return fmt.Errorf("race: array is %d×%d but strings are %d×%d", a.n, a.m, lp, lq)
}

func (a *Array) align(p, q string, bound int) (*AlignResult, error) {
	if len(p) != a.n || len(q) != a.m {
		return nil, a.shapeError(len(p), len(q))
	}
	W := (a.LaneWidth() + lanes.WordBits - 1) / lanes.WordBits
	slabs := make([]uint64, len(a.pins)*W)
	if err := a.encode(slabs, W, 0, 1, p, 0); err != nil {
		return nil, err
	}
	if err := a.encode(slabs, W, 0, 1, q, a.n); err != nil {
		return nil, err
	}
	sim, err := a.raceSolo(slabs, bound)
	if err != nil {
		return nil, err
	}
	res := &AlignResult{
		Score:    sim.Arrival(a.out[a.n][a.m]),
		Cycles:   sim.Cycle(),
		Arrivals: make([][]temporal.Time, a.n+1),
		Activity: sim.Activity(),
	}
	for i := range res.Arrivals {
		res.Arrivals[i] = make([]temporal.Time, a.m+1)
		for j := range res.Arrivals[i] {
			res.Arrivals[i][j] = sim.Arrival(a.out[i][j])
		}
	}
	return res, nil
}

// encode sets the lane (word w, bit) of every symbol pin slab (W words
// each, in drive order) whose bit of s's symbol code is 1, s being the
// run of symbols that starts at symbol first.
func (a *Array) encode(slabs []uint64, W, w int, bit uint64, s string, first int) error {
	codes, stride := a.codes, a.symBits*W
	at := first*stride + w // symbol's first pin slab, word w
	for i := 0; i < len(s); i, at = i+1, at+stride {
		c := codes[s[i]]
		if c < 0 {
			return a.badSymbol(s[i])
		}
		for k := at; c != 0; c, k = c>>1, k+W {
			if c&1 != 0 {
				slabs[k] |= bit
			}
		}
	}
	return nil
}

// raceSolo races the pair encoded in lane 0 of the symbol slabs until
// the output fires or bound cycles pass, and returns the engine whose
// Arrival, Cycle and Activity read that race.  Lanes races it as a pack
// of one; its lone lane stops the pack, so those reads, which are lane
// 0's, see the race a solo run would.  The cycle reference takes lane
// 0 of one-word slabs and the root pin by pin, in drive order.
func (a *Array) raceSolo(slabs []uint64, bound int) (circuit.Backend, error) {
	if a.backend == BackendLanes {
		used := make([]uint64, a.laneWords)
		used[0] = 1
		ls, err := a.racePack(slabs, used, bound)
		if err != nil {
			return nil, err
		}
		return ls, nil
	}
	sim, err := a.simulator()
	if err != nil {
		return nil, err
	}
	for k, pin := range a.pins {
		sim.SetInput(pin, slabs[k]&1 != 0)
	}
	sim.SetInput(a.root, true)
	sim.RunUntil(a.out[a.n][a.m], bound)
	return sim, nil
}

// SetBackend selects the simulation engine for this array's races
// (default BackendCycle; BackendEvent selects BackendLanes).  Switching
// after a race drops the compiled engine, so the next Align pays one
// recompile.
func (a *Array) SetBackend(b Backend) {
	b = b.Resolve()
	if a.backend == b {
		return
	}
	a.backend = b
	a.dropEngine()
}

// SetLaneWidth sizes the lane pack raced per netlist pass under
// BackendLanes: 64, 128, 256, or 512 candidates (1–8 uint64 words per
// net, default 64).  The cycle reference ignores it.  Switching after a
// race drops the compiled engine, so the next Align pays one recompile.
func (a *Array) SetLaneWidth(width int) error {
	if width%lanes.WordBits != 0 {
		return fmt.Errorf("race: lane width %d is not a multiple of %d", width, lanes.WordBits)
	}
	words := width / lanes.WordBits
	switch words {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("race: lane width %d is not one of 64, 128, 256, 512", width)
	}
	if a.laneWords == words {
		return nil
	}
	a.laneWords = words
	a.dropEngine()
	return nil
}

func (a *Array) dropEngine() {
	a.sim = nil
	a.symbols, a.planned = nil, false
}

// simulator returns the array's compiled simulator, building it on first
// use and resetting it to power-on state on every later one.
func (a *Array) simulator() (circuit.Backend, error) {
	if a.sim == nil {
		s, err := compileBackend(a.netlist, a.backend, a.laneWords)
		if err != nil {
			return nil, err
		}
		a.sim = s
		return s, nil
	}
	a.sim.Reset()
	return a.sim, nil
}

// TimingMatrixString renders the arrival matrix in the Fig. 4c layout:
// rows follow Q (vertical axis), columns follow P.
func (r *AlignResult) TimingMatrixString() string {
	var b strings.Builder
	if len(r.Arrivals) == 0 {
		return ""
	}
	for j := 0; j < len(r.Arrivals[0]); j++ {
		for i := 0; i < len(r.Arrivals); i++ {
			fmt.Fprintf(&b, "%3v", r.Arrivals[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
