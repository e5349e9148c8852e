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
// An Array compiles its netlist once, on the first Align, and resets the
// same simulator for every subsequent race — the hardware analogue of one
// physical array scoring a stream of pairs.  Because that simulator is
// shared state, an Array is not safe for concurrent use; build one array
// per goroutine (internal/pipeline does exactly that).
type Array struct {
	n, m      int
	netlist   *circuit.Netlist
	root      circuit.Net
	pBits     [][2]circuit.Net // symbol input pins of P, 2 bits per symbol
	qBits     [][2]circuit.Net
	out       [][]circuit.Net // OR output of every node (i,j)
	ffPerCell int
	backend   Backend
	laneWords int             // uint64 words per net slab under BackendLanes
	sim       circuit.Backend // compiled once, Reset between races
	// symbols is the lanes engine's tabulated symbol load, planned once
	// per compiled engine by the first lane pack and dropped with it.
	symbols *lanes.SymbolPlan
}

// dnaCodes maps every byte to its 2-bit DNA encoding, its index in
// score.DNAAlphabet, or -1 for a byte that is not a base.
var dnaCodes = func() (t [256]int8) {
	for i := range t {
		t[i] = -1
	}
	for i := 0; i < len(score.DNAAlphabet); i++ {
		t[score.DNAAlphabet[i]] = int8(i)
	}
	return t
}()

// dnaCode returns the 2-bit encoding of a DNA symbol.
func dnaCode(c byte) (uint8, error) {
	i := dnaCodes[c]
	if i < 0 {
		return 0, fmt.Errorf("race: symbol %q is not a DNA base (%s)", c, score.DNAAlphabet)
	}
	return uint8(i), nil
}

// NewArray builds the unit-cell array for strings of lengths n and m.
func NewArray(n, m int) (*Array, error) {
	if n < 1 || m < 1 {
		return nil, fmt.Errorf("race: array dimensions %d×%d must be ≥ 1", n, m)
	}
	nl := circuit.New()
	a := &Array{n: n, m: m, netlist: nl, laneWords: 1}
	a.root = nl.Input("root")
	a.pBits = make([][2]circuit.Net, n)
	for i := range a.pBits {
		a.pBits[i] = [2]circuit.Net{
			nl.Input(fmt.Sprintf("p%d_b0", i)),
			nl.Input(fmt.Sprintf("p%d_b1", i)),
		}
	}
	a.qBits = make([][2]circuit.Net, m)
	for j := range a.qBits {
		a.qBits[j] = [2]circuit.Net{
			nl.Input(fmt.Sprintf("q%d_b0", j)),
			nl.Input(fmt.Sprintf("q%d_b1", j)),
		}
	}

	// Build the node grid.  out[i][j] is the OR output of node (i,j);
	// d[i][j] is its DFF-delayed value (the +1 of every unit edge).
	a.out = make([][]circuit.Net, n+1)
	d := make([][]circuit.Net, n+1)
	for i := range a.out {
		a.out[i] = make([]circuit.Net, m+1)
		d[i] = make([]circuit.Net, m+1)
	}
	ffBefore := nl.NumDFFs()
	for i := 0; i <= n; i++ {
		for j := 0; j <= m; j++ {
			var terms []circuit.Net
			if i == 0 && j == 0 {
				a.out[0][0] = a.root
				d[0][0] = nl.DFF(a.root)
				continue
			}
			if i > 0 {
				terms = append(terms, d[i-1][j]) // horizontal indel, weight 1
			}
			if j > 0 {
				terms = append(terms, d[i][j-1]) // vertical indel, weight 1
			}
			if i > 0 && j > 0 {
				// Diagonal match edge, weight 1, present only when the
				// symbols agree (Eq. 2 XNOR matching condition).
				match := nl.And(
					nl.Xnor(a.pBits[i-1][0], a.qBits[j-1][0]),
					nl.Xnor(a.pBits[i-1][1], a.qBits[j-1][1]),
				)
				terms = append(terms, nl.And(match, d[i-1][j-1]))
			}
			a.out[i][j] = nl.Or(terms...)
			d[i][j] = nl.DFF(a.out[i][j])
		}
	}
	cells := (n + 1) * (m + 1)
	a.ffPerCell = (nl.NumDFFs() - ffBefore + cells/2) / cells
	return a, nil
}

// Netlist exposes the compiled structure for area/energy accounting.
func (a *Array) Netlist() *circuit.Netlist { return a.netlist }

// Dims returns the string lengths the array was built for.
func (a *Array) Dims() (n, m int) { return a.n, a.m }

// FFsPerCell reports the average flip-flop count of one unit cell, the
// C_clkcell input of the Eq. 6/7 gating models.
func (a *Array) FFsPerCell() int { return a.ffPerCell }

// AlignResult is one completed race through an edit-graph array.
type AlignResult struct {
	// Score is the arrival time at node (N,M): the global alignment
	// score under the match=1/indel=1/mismatch=∞ matrix.  It is
	// temporal.Never when a threshold race was cut off early.
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
	return a.align(p, q, a.n+a.m+2)
}

// AlignThreshold races with the Section 6 early-termination rule: if the
// output has not fired after threshold cycles the strings are declared
// dissimilar and the race stops, returning Score = temporal.Never.  "The
// maximum possible score is known at each instant in time" — a count
// exceeding the threshold can never come back down.
func (a *Array) AlignThreshold(p, q string, threshold temporal.Time) (*AlignResult, error) {
	if threshold < 0 {
		return nil, fmt.Errorf("race: negative threshold %v", threshold)
	}
	bound := int(threshold) + 1
	if max := a.n + a.m + 2; bound > max {
		bound = max
	}
	res, err := a.align(p, q, bound)
	return applyThreshold(res, threshold), err
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

func (a *Array) align(p, q string, maxCycles int) (*AlignResult, error) {
	if len(p) != a.n || len(q) != a.m {
		return nil, fmt.Errorf("race: array is %d×%d but strings are %d×%d", a.n, a.m, len(p), len(q))
	}
	sim, err := a.simulator()
	if err != nil {
		return nil, err
	}
	if err := a.loadSymbols(sim, p, q); err != nil {
		return nil, err
	}
	sim.SetInput(a.root, true)
	sim.RunUntil(a.out[a.n][a.m], maxCycles)
	return a.result(sim), nil
}

// SetBackend selects the simulation engine for this array's races
// (default BackendCycle).  Switching after a race drops the compiled
// engine, so the next Align pays one recompile.
func (a *Array) SetBackend(b Backend) {
	if a.backend == b {
		return
	}
	a.backend = b
	a.sim = nil
	a.symbols = nil
}

// SetLaneWidth sizes the lane pack raced per netlist pass under
// BackendLanes: 64, 128, 256, or 512 candidates (1–8 uint64 words per
// net, default 64).  The other backends ignore it.  Switching after a
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
	a.sim = nil
	a.symbols = nil
	return nil
}

// simulator returns the array's compiled simulator, building it on first
// use and resetting it to power-on state on every later one.
func (a *Array) simulator() (circuit.Backend, error) {
	return reuseBackend(a.netlist, &a.sim, a.backend, a.laneWords)
}

func (a *Array) loadSymbols(sim circuit.Backend, p, q string) error {
	for i := 0; i < len(p); i++ {
		c, err := dnaCode(p[i])
		if err != nil {
			return err
		}
		sim.SetInput(a.pBits[i][0], c&1 == 1)
		sim.SetInput(a.pBits[i][1], c&2 == 2)
	}
	for j := 0; j < len(q); j++ {
		c, err := dnaCode(q[j])
		if err != nil {
			return err
		}
		sim.SetInput(a.qBits[j][0], c&1 == 1)
		sim.SetInput(a.qBits[j][1], c&2 == 2)
	}
	return nil
}

func (a *Array) result(sim circuit.Backend) *AlignResult {
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
	return res
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
