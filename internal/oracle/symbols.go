package oracle

import (
	"fmt"
	"math/rand"

	"racelogic/internal/circuit"
	"racelogic/internal/circuit/lanes"
)

// SymbolGrid is a random array of uniform cells for the symbol-load
// check: every (row, column) cell instantiates one template over its row
// group's pins, its column group's pins, a few flip-flops of its own and
// a shared start input, the way the edit-graph arrays do.
type SymbolGrid struct {
	Netlist    *circuit.Netlist
	Rows, Cols [][]circuit.Net // symbol pin groups, in drive order
	Start      circuit.Net     // an input driven after the load
	Out        circuit.Net     // the net a race waits for
}

// templateRef names one operand of a template gate, resolved per cell.
type templateRef struct {
	kind int // refRow, refCol, refPre, refGate, refStart, refConst
	idx  int // pin, flip-flop, gate or constant index
}

const (
	refRow = iota
	refCol
	refPre
	refGate
	refStart
	refConst
)

// templateGate is one combinational gate of a cell template.
type templateGate struct {
	kind circuit.Kind
	in   []templateRef
}

// refInfo is what the generator knows about a template net at the
// symbol-load baseline: its value, and whether the load can move it.
type refInfo struct {
	base, static bool
}

// GenerateSymbolGrid decodes a grid of up to 5×5 cells whose row and
// column symbol groups are 1–3 pins wide.  The template is drawn from
// every combinational kind, but kept within the symbol plan's rules: a
// pin is read only by a gate that also reads the other side's pin
// (XNOR(p, q) or a MUX2 selecting on one of them), and a gate the load
// can move is high at baseline.  Gates the load cannot move — those
// reading only flip-flops, constants and the start input, an AND with
// such an input low, or an OR with one high — are free.  Each cell's
// flip-flops read the template as D and enable pins, and the output ORs
// every cell's last one.
func GenerateSymbolGrid(src Source) SymbolGrid {
	rowBits, colBits := 1+src.Next(3), 1+src.Next(3)
	nRows, nCols := 1+src.Next(5), 1+src.Next(5)
	preInit := make([]bool, src.Next(3))
	for i := range preInit {
		preInit[i] = src.Next(2) == 1
	}

	info := func(r templateRef, gates []refInfo) refInfo {
		switch r.kind {
		case refRow, refCol:
			return refInfo{}
		case refPre:
			return refInfo{base: preInit[r.idx], static: true}
		case refGate:
			return gates[r.idx]
		case refStart:
			return refInfo{static: true}
		}
		return refInfo{base: r.idx == 1, static: true}
	}
	var tmpl []templateGate
	var gates []refInfo
	pick := func() templateRef {
		n := src.Next(len(preInit) + len(tmpl) + 3)
		switch {
		case n < len(preInit):
			return templateRef{kind: refPre, idx: n}
		case n < len(preInit)+len(tmpl):
			return templateRef{kind: refGate, idx: n - len(preInit)}
		case n == len(preInit)+len(tmpl):
			return templateRef{kind: refStart}
		}
		return templateRef{kind: refConst, idx: n - len(preInit) - len(tmpl) - 1}
	}
	for g, ng := 0, 1+src.Next(8); g < ng; g++ {
		row := templateRef{kind: refRow, idx: src.Next(rowBits)}
		col := templateRef{kind: refCol, idx: src.Next(colBits)}
		one := templateRef{kind: refConst, idx: 1}
		var cand templateGate
		for try := 0; ; try++ {
			switch src.Next(9) {
			case 0:
				cand = templateGate{circuit.KindXnor, []templateRef{row, col}}
			case 1:
				cand = templateGate{circuit.KindMux2, []templateRef{row, one, col}}
			case 2:
				cand = templateGate{circuit.KindMux2, []templateRef{col, one, row}}
			case 3:
				cand = templateGate{circuit.KindAnd, []templateRef{pick(), pick()}}
			case 4:
				cand = templateGate{circuit.KindOr, []templateRef{pick(), pick(), pick()}}
			case 5:
				cand = templateGate{circuit.KindXor, []templateRef{pick(), pick()}}
			case 6:
				cand = templateGate{circuit.KindXnor, []templateRef{pick(), pick()}}
			case 7:
				cand = templateGate{circuit.KindMux2, []templateRef{pick(), pick(), pick()}}
			default:
				if src.Next(2) == 0 {
					cand = templateGate{circuit.KindNot, []templateRef{pick()}}
				} else {
					cand = templateGate{circuit.KindBuf, []templateRef{pick()}}
				}
			}
			in := make([]refInfo, len(cand.in))
			static := true
			for i, r := range cand.in {
				in[i] = info(r, gates)
				static = static && in[i].static
			}
			var base bool
			switch cand.kind {
			case circuit.KindAnd:
				base = true
				for _, x := range in {
					base = base && x.base
					static = static || x.static && !x.base
				}
			case circuit.KindOr:
				for _, x := range in {
					base = base || x.base
					static = static || x.static && x.base
				}
			case circuit.KindXor:
				base = in[0].base != in[1].base
			case circuit.KindXnor:
				base = in[0].base == in[1].base
			case circuit.KindMux2:
				base = in[1].base
				if in[0].base {
					base = in[2].base
				}
			case circuit.KindNot:
				base = !in[0].base
			default:
				base = in[0].base
			}
			if static || base {
				gates = append(gates, refInfo{base: base, static: static})
				break
			}
			if try == 8 {
				cand = templateGate{circuit.KindXnor, []templateRef{row, col}}
				gates = append(gates, refInfo{base: true})
				break
			}
		}
		tmpl = append(tmpl, cand)
	}
	type post struct{ d, en int } // template gate indexes; en < 0 is a plain DFF
	posts := make([]post, 1+src.Next(3))
	for i := range posts {
		posts[i] = post{d: src.Next(len(tmpl)), en: -1}
		if src.Next(2) == 1 {
			posts[i].en = src.Next(len(tmpl))
		}
	}

	nl := circuit.New()
	grid := SymbolGrid{Netlist: nl, Rows: make([][]circuit.Net, nRows), Cols: make([][]circuit.Net, nCols)}
	grid.Start = nl.Input("start")
	for r := range grid.Rows {
		for k := 0; k < rowBits; k++ {
			grid.Rows[r] = append(grid.Rows[r], nl.Input(fmt.Sprintf("p%d_b%d", r, k)))
		}
	}
	for c := range grid.Cols {
		for k := 0; k < colBits; k++ {
			grid.Cols[c] = append(grid.Cols[c], nl.Input(fmt.Sprintf("q%d_b%d", c, k)))
		}
	}
	var outs []circuit.Net
	for r := 0; r < nRows; r++ {
		for c := 0; c < nCols; c++ {
			pre := make([]circuit.Net, len(preInit))
			for i, init := range preInit {
				pre[i] = nl.DFFInit(grid.Start, init)
			}
			nets := make([]circuit.Net, 0, len(tmpl))
			resolve := func(ref templateRef) circuit.Net {
				switch ref.kind {
				case refRow:
					return grid.Rows[r][ref.idx]
				case refCol:
					return grid.Cols[c][ref.idx]
				case refPre:
					return pre[ref.idx]
				case refGate:
					return nets[ref.idx]
				case refStart:
					return grid.Start
				}
				return circuit.Net(ref.idx)
			}
			for _, g := range tmpl {
				in := make([]circuit.Net, len(g.in))
				for i, ref := range g.in {
					in[i] = resolve(ref)
				}
				switch g.kind {
				case circuit.KindAnd:
					nets = append(nets, nl.And(in...))
				case circuit.KindOr:
					nets = append(nets, nl.Or(in...))
				case circuit.KindXor:
					nets = append(nets, nl.Xor(in[0], in[1]))
				case circuit.KindXnor:
					nets = append(nets, nl.Xnor(in[0], in[1]))
				case circuit.KindMux2:
					nets = append(nets, nl.Mux2(in[0], in[1], in[2]))
				case circuit.KindNot:
					nets = append(nets, nl.Not(in[0]))
				default:
					nets = append(nets, nl.Buf(in[0]))
				}
			}
			var q circuit.Net
			for _, ff := range posts {
				if ff.en < 0 {
					q = nl.DFF(nets[ff.d])
				} else {
					q = nl.DFFE(nets[ff.d], nets[ff.en])
				}
			}
			outs = append(outs, q)
		}
	}
	grid.Out = nl.Or(outs...)
	return grid
}

// symbolWordChoices are the slab widths the symbol-load check draws
// from: one to four words, so lane masks scatter across word borders.
var symbolWordChoices = [...]int{1, 2, 4}

// CheckSymbolLoadEquivalence loads the grid's symbols into two lanes
// engines of the given slab width, one through the tabulated
// LoadSymbols and its twin pin by pin through SetInputWords in the
// plan's drive order, and requires every observable to agree — each
// net's value and arrival in every lane, every lane's Activity and
// stop cycle, and lane 0's per-net Toggles — right after the load and
// again after the start input fires and both race the output to the
// bound.  slabs holds one words-wide lane slab per pin, rows' pins
// first; bits outside mask must be ignored by both paths.
func CheckSymbolLoadEquivalence(g SymbolGrid, words int, mask, slabs []uint64, bound int) error {
	tab, err := lanes.CompileWords(g.Netlist, words)
	if err != nil {
		return fmt.Errorf("oracle: compile: %v", err)
	}
	pin, err := lanes.CompileWords(g.Netlist, words)
	if err != nil {
		return fmt.Errorf("oracle: compile: %v", err)
	}
	plan, err := tab.PlanSymbolLoad(g.Rows, g.Cols)
	if err != nil {
		return fmt.Errorf("oracle: symbol plan of a uniform grid: %v", err)
	}
	tab.SetActiveLanes(mask)
	pin.SetActiveLanes(mask)
	tab.LoadSymbols(plan, slabs)
	k := 0
	for _, groups := range [][][]circuit.Net{g.Rows, g.Cols} {
		for _, group := range groups {
			for _, net := range group {
				pin.SetInputWords(net, slabs[k*words:(k+1)*words])
				k++
			}
		}
	}
	compare := func(op int) error {
		if tab.Cycle() != pin.Cycle() {
			return &Diverged{Backend: "symbols", Op: op, What: fmt.Sprintf("cycle %d vs %d", pin.Cycle(), tab.Cycle()), Cycle: true}
		}
		for i := 0; i < g.Netlist.NumNets(); i++ {
			net := circuit.Net(i)
			if pt, tt := pin.Toggles(net), tab.Toggles(net); pt != tt {
				return &Diverged{Backend: "symbols", Op: op, What: fmt.Sprintf("lane-0 toggles %d vs %d", pt, tt), Net: net}
			}
		}
		for l := 0; l < words*lanes.WordBits; l++ {
			name := fmt.Sprintf("symbols[%d]", l)
			for i := 0; i < g.Netlist.NumNets(); i++ {
				net := circuit.Net(i)
				if pv, tv := pin.LaneValue(net, l), tab.LaneValue(net, l); pv != tv {
					return &Diverged{Backend: name, Op: op, What: fmt.Sprintf("value %v vs %v", pv, tv), Net: net}
				}
				if pa, ta := pin.LaneArrival(net, l), tab.LaneArrival(net, l); pa != ta {
					return &Diverged{Backend: name, Op: op, What: fmt.Sprintf("arrival %v vs %v", pa, ta), Net: net}
				}
			}
			if pc, tc := pin.LaneCycle(l), tab.LaneCycle(l); pc != tc {
				return &Diverged{Backend: name, Op: op, What: fmt.Sprintf("stop cycle %d vs %d", pc, tc), Cycle: true}
			}
			if err := compareActivity(pin.LaneActivity(l), tab.LaneActivity(l), name, op); err != nil {
				return err
			}
		}
		return nil
	}
	if err := compare(0); err != nil {
		return err
	}
	for _, s := range []*lanes.Sim{tab, pin} {
		s.SetInputWords(g.Start, mask)
		s.RaceUntil(g.Out, bound)
	}
	return compare(1)
}

// decodeSymbolLoad draws a grid, a slab width, a lane mask scattered
// over the slab (lane 0 in it half the time), random symbol slabs and a
// race bound.
func decodeSymbolLoad(src Source) (SymbolGrid, int, []uint64, []uint64, int) {
	g := GenerateSymbolGrid(src)
	words := symbolWordChoices[src.Next(len(symbolWordChoices))]
	width := words * lanes.WordBits
	mask := make([]uint64, words)
	for i, n := 0, 1+src.Next(maxCheckLanes); i < n; i++ {
		l := src.Next(width)
		mask[l>>6] |= 1 << uint(l&63)
	}
	if src.Next(2) == 1 {
		mask[0] |= 1
	}
	pins := 0
	for _, groups := range [][][]circuit.Net{g.Rows, g.Cols} {
		for _, group := range groups {
			pins += len(group)
		}
	}
	// Symbol bits in every lane of the slab, so both paths must mask
	// the inactive ones away.
	slabs := make([]uint64, pins*words)
	for i := range slabs {
		for b := 0; b < 64; b += 8 {
			slabs[i] |= uint64(src.Next(256)) << uint(b)
		}
	}
	return g, words, mask, slabs, 1 + src.Next(12)
}

// CheckSymbolLoadBytes is the symbol-load fuzz entry point: decode a
// grid, lane mask and symbol slabs from raw bytes and check the
// tabulated load against the per-pin one.
func CheckSymbolLoadBytes(data []byte) error {
	g, words, mask, slabs, bound := decodeSymbolLoad(NewByteSource(data))
	return CheckSymbolLoadEquivalence(g, words, mask, slabs, bound)
}

// CheckSymbolLoadSeed is the symbol-load property-test entry point: the
// same decoder driven by a seeded PRNG.
func CheckSymbolLoadSeed(seed int64) error {
	g, words, mask, slabs, bound := decodeSymbolLoad(NewRandSource(rand.New(rand.NewSource(seed))))
	return CheckSymbolLoadEquivalence(g, words, mask, slabs, bound)
}
