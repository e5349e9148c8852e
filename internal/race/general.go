package race

import (
	"fmt"
	"sort"

	"racelogic/internal/circuit"
	"racelogic/internal/score"
	"racelogic/internal/temporal"
)

// GeneralArray is the Section 5 generalized Race Logic engine: an
// edit-graph array that executes an arbitrary race-ready score matrix
// (any alphabet size N_SS, any dynamic range N_DR) such as a prepared
// BLOSUM62 or PAM250.  Each cell is the Fig. 8 structure:
//
//   - the indel path: the cell's output delayed by the (compile-time
//     constant) gap weight, shared by the right and down neighbors;
//   - the diagonal path: the diagonal predecessor's steady "1" enables a
//     binary saturating up-counter ("binary encoding with a saturating
//     up-counter allows us to save on area"); equality decode gates fire
//     a pulse at each distinct weight; a per-symbol-pair select network
//     (the Fig. 8 MUX, fed by the encoded alphabet inputs) picks which
//     weight's pulse is the real edge; and a set-on-arrival latch turns
//     the chosen pulse into the steady "1" Race Logic requires;
//   - a final OR merging the three directions.
//
// One refinement over the figure: the indel and diagonal paths have
// separate delay structures, because min(inputs)+w is only equal to
// min(inputs+w) when all three edge weights agree — which is true for
// Fig. 2b but not for BLOSUM62, where the gap and substitution weights
// differ.  DESIGN.md records this.
//
// Encoding selects how the diagonal weight is realized, enabling the
// Section 5 area ablation between one-hot DFF chains and binary counters.
//
// The fabric races through the embedded Array core; like Array, a
// GeneralArray is not safe for concurrent use.
type GeneralArray struct {
	*Array
	matrix   *score.Matrix
	encoding Encoding
}

// Encoding selects the delay realization inside the generalized cell.
type Encoding int

// The two Section 5 delay encodings.
const (
	// BinaryCounter uses a ⌈log₂(N_DR+1)⌉-bit saturating up-counter with
	// equality decoders — the area-efficient choice for large N_DR.
	BinaryCounter Encoding = iota
	// OneHot uses an N_DR-deep DFF shift chain with one tap per weight —
	// "the area of a single Race Logic cell scales linearly with dynamic
	// range", the baseline of the encoding ablation.
	OneHot
)

// String names the encoding.
func (e Encoding) String() string {
	if e == BinaryCounter {
		return "binary-counter"
	}
	return "one-hot"
}

// NewGeneralArray builds a generalized array for strings of lengths n and
// m under the given matrix, which must pass score.ValidateRaceReady (run
// PrepareForRace first for longest-path matrices).
func NewGeneralArray(n, m int, mtx *score.Matrix, enc Encoding) (*GeneralArray, error) {
	if err := checkDims(n, m); err != nil {
		return nil, err
	}
	if err := mtx.ValidateRaceReady(); err != nil {
		return nil, err
	}
	if mtx.Gap == temporal.Never {
		return nil, fmt.Errorf("race: %s has an infinite gap weight; the edit graph needs indel edges", mtx.Name)
	}
	// Symbol inputs: ⌈log₂ N_SS⌉ bits per symbol position, carrying the
	// symbol's index in the matrix alphabet.
	codes := new([256]int16)
	for c := range codes {
		codes[c] = -1
		if idx, err := mtx.Index(byte(c)); err == nil {
			codes[c] = int16(idx)
		}
	}
	core := newCore(n, m, circuit.BitsFor(uint64(mtx.NSS()-1)), codes, func(c byte) error {
		_, err := mtx.Index(c)
		return err
	})
	a := &GeneralArray{Array: core, matrix: mtx, encoding: enc}
	nl := core.netlist

	// Per-position symbol decoders, shared along rows and columns: the
	// "encoded forms of the alphabet" feeding every cell's weight select.
	// dec[k] decodes symbol k of the drive order: P's, then Q's.
	dec := make([][]circuit.Net, n+m)
	for k := range dec {
		dec[k] = make([]circuit.Net, mtx.NSS())
		for s := range dec[k] {
			dec[k][s] = nl.EqualsConst(core.symbolPins(k), uint64(s))
		}
	}

	// Distinct finite substitution weights, ascending: one decode tap and
	// one select term per weight ("modern score matrices contain a lot
	// of repeating scores" — the repetition is what keeps this small).
	weightSet := map[temporal.Time]bool{}
	for _, row := range mtx.Sub {
		for _, w := range row {
			if w != temporal.Never {
				weightSet[w] = true
			}
		}
	}
	weights := make([]temporal.Time, 0, len(weightSet))
	for w := range weightSet {
		weights = append(weights, w)
	}
	sort.Slice(weights, func(i, j int) bool { return weights[i] < weights[j] })

	ndr := mtx.NDR()
	ctrBits := circuit.BitsFor(uint64(ndr))
	gap := int(mtx.Gap)

	dgap := make([][]circuit.Net, n+1) // output delayed by the gap weight
	for i := range dgap {
		dgap[i] = make([]circuit.Net, m+1)
	}
	for i := 0; i <= n; i++ {
		for j := 0; j <= m; j++ {
			if i == 0 && j == 0 {
				a.out[0][0] = a.root
				dgap[0][0] = nl.DelayChain(a.root, gap)
				continue
			}
			var terms []circuit.Net
			if i > 0 {
				terms = append(terms, dgap[i-1][j])
			}
			if j > 0 {
				terms = append(terms, dgap[i][j-1])
			}
			if i > 0 && j > 0 {
				if diag := a.buildDiagonal(nl, dgapSource(a.out, i, j), dec[i-1], dec[n+j-1], weights, ctrBits); diag != circuit.Zero {
					terms = append(terms, diag)
				}
			}
			a.out[i][j] = nl.Or(terms...)
			dgap[i][j] = nl.DelayChain(a.out[i][j], gap)
		}
	}
	a.bound = int(ndr)*(n+m) + 2
	return a, nil
}

// dgapSource returns the diagonal predecessor's undelayed output.
func dgapSource(out [][]circuit.Net, i, j int) circuit.Net {
	return out[i-1][j-1]
}

// buildDiagonal constructs the Fig. 8 diagonal path of one cell: enable →
// delay structure → per-weight taps → symbol-pair select → set-on-arrival.
// It returns the steady diagonal contribution net.
func (a *GeneralArray) buildDiagonal(nl *circuit.Netlist, enable circuit.Net,
	pDec, qDec []circuit.Net, weights []temporal.Time, ctrBits int) circuit.Net {

	// Select nets: selByWeight[w] is 1 iff the cell's symbol pair has
	// substitution weight w under the matrix.
	mtx := a.matrix
	selTerms := make(map[temporal.Time][]circuit.Net)
	for si := 0; si < mtx.NSS(); si++ {
		for sj := 0; sj < mtx.NSS(); sj++ {
			w := mtx.Sub[si][sj]
			if w == temporal.Never {
				continue // missing edge for this pair
			}
			selTerms[w] = append(selTerms[w], nl.And(pDec[si], qDec[sj]))
		}
	}

	var tap func(w temporal.Time) circuit.Net
	switch a.encoding {
	case OneHot:
		// A shift chain from the enable; chain stage k is steady "1"
		// exactly k cycles after the enable rises (the chain fills with
		// ones), so the tap needs no latch.
		prev := enable
		var depth temporal.Time
		maxW := weights[len(weights)-1]
		taps := make(map[temporal.Time]circuit.Net, len(weights))
		for depth < maxW {
			prev = nl.DFF(prev)
			depth++
			taps[depth] = prev
		}
		tap = func(w temporal.Time) circuit.Net { return taps[w] }
	default:
		// Binary saturating counter with equality decoders.  The decode
		// output is a one-cycle pulse (the counter keeps counting), so
		// the select-and-latch below makes it steady.  The inverted
		// counter bits are built once and shared by every weight's
		// decoder, as synthesis would do.
		bus := nl.SatCounter(ctrBits, enable)
		nbus := make([]circuit.Net, len(bus))
		for i, b := range bus {
			nbus[i] = nl.Not(b)
		}
		eqCache := make(map[temporal.Time]circuit.Net, len(weights))
		tap = func(w temporal.Time) circuit.Net {
			if net, ok := eqCache[w]; ok {
				return net
			}
			terms := make([]circuit.Net, len(bus))
			for i := range bus {
				if uint64(w)>>uint(i)&1 == 1 {
					terms[i] = bus[i]
				} else {
					terms[i] = nbus[i]
				}
			}
			net := nl.And(terms...)
			eqCache[w] = net
			return net
		}
	}

	// The chosen weight's tap, gated by the select network.
	var chosen []circuit.Net
	for _, w := range weights {
		sels := selTerms[w]
		if len(sels) == 0 {
			continue
		}
		chosen = append(chosen, nl.And(nl.Or(sels...), tap(w)))
	}
	if len(chosen) == 0 {
		return circuit.Zero
	}
	pulse := nl.Or(chosen...)
	if a.encoding == OneHot {
		// One-hot taps are already steady.
		return pulse
	}
	// Set-on-arrival (the dotted box of Fig. 8): latch the pulse; the
	// immediate view keeps the same-cycle combinational path alive.
	_, immediate := nl.StickyLatch(pulse)
	return immediate
}

// Matrix returns the score matrix the array was compiled for.
func (a *GeneralArray) Matrix() *score.Matrix { return a.matrix }

// Encoding returns the delay encoding the array was compiled with.
func (a *GeneralArray) EncodingUsed() Encoding { return a.encoding }
