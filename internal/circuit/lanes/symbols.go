package lanes

import (
	"fmt"
	"math/bits"
	"slices"

	"racelogic/internal/circuit"
)

// maxTableBits bounds a symbol plan's table index: a row group's pins
// plus a column group's pins.  PlanSymbolLoad enumerates every value pair
// as one lane of a single word, so the pairs must fit in 64 lanes.
const maxTableBits = 6

// SymbolPlan is a tabulated symbol load for one netlist, built by
// PlanSymbolLoad and replayed by LoadSymbols.  It lists the symbol pins
// in drive order and, for the gates the pins can move, the toggles the
// per-pin path records while they are driven: one table per distinct
// toggle pattern, indexed by the pair (row-group value a, column-group
// value b) as a<<colBits | b.  A plan is read-only once built and may
// serve every engine compiled from its netlist.
type SymbolPlan struct {
	nl               *circuit.Netlist
	pins             []circuit.Net // row groups' pins, then column groups', in drive order
	rows, cols       int           // group counts
	rowBits, colBits int           // pins per row group and per column group
	gates            []planGate    // every gate the load can move, for lane 0's per-net Toggles
	gateOf           []int32       // net → 1 + index in gates of the gate driving it, or 0
	tables           [][]uint8     // distinct toggle tables
	classes          []planClass   // per toggle class, its groups' tables summed by multiplicity
}

// planGate is one gate the load can move: its settle position, the row
// and column groups it reads, its toggle table, and whether a
// flip-flop reads its net.
type planGate struct {
	pos      int32
	row, col int32
	table    int32
	latched  bool
}

// planClass is the load's price in one toggle class: table[a<<colBits|b]
// is what one (row value a, column value b) cell pair adds to the class
// count, summed over the class's tabulated gates.
type planClass struct {
	class int32
	table []uint64
}

// Support markers of the plan's cone walk: a net reads no group, or
// more than one group of a side.
const (
	noGroup    = -1
	manyGroups = -2
)

func mergeGroup(x, y int32) int32 {
	switch {
	case y == noGroup || x == y:
		return x
	case x == noGroup:
		return y
	}
	return manyGroups
}

// PlanSymbolLoad tabulates the symbol load of an array whose symbol
// pins come in row groups (rows[i], one group per row symbol) and column
// groups (cols[j]), all row groups of one width and all column groups of
// another.  Starting from the Reset baseline it walks the pins'
// combinational cone in level order and, with the engine's own gate
// semantics, counts every cone gate's toggles while all row groups' pins
// and then all column groups' pins are driven one pin at a time — the
// order LoadSymbols and the per-pin path drive them — for every
// (row value, column value) pair at once.  Gates that cannot move drop
// out, and so does whatever reads the pins only through them.  The plan
// is exact, and the call fails with an error naming the offending gate,
// unless:
//
//   - every gate that can move reads exactly one row group and one
//     column group, so its toggles are a function of that cell pair;
//   - the gates grouped by (toggle class, table) cover every (row,
//     column) pair equally often, so a lane's class count is a sum over
//     its symbol histograms;
//   - every gate that can move is high at baseline, so the load logs no
//     first rise and leaves every arrival where it was.
func (s *Sim) PlanSymbolLoad(rows, cols [][]circuit.Net) (*SymbolPlan, error) {
	if len(rows) == 0 || len(cols) == 0 {
		return nil, fmt.Errorf("lanes: symbol plan has %d row and %d column groups, needs at least one of each", len(rows), len(cols))
	}
	st := s.st
	p := &SymbolPlan{nl: st.nl, rows: len(rows), cols: len(cols), rowBits: len(rows[0]), colBits: len(cols[0])}
	if p.rowBits == 0 || p.colBits == 0 || p.rowBits+p.colBits > maxTableBits {
		return nil, fmt.Errorf("lanes: symbol groups of %d row and %d column pins, want 1 or more each and at most %d together", p.rowBits, p.colBits, maxTableBits)
	}
	nn := st.nl.NumNets()
	rowOf := make([]int32, nn)
	colOf := make([]int32, nn)
	for i := range rowOf {
		rowOf[i], colOf[i] = noGroup, noGroup
	}
	addPins := func(side string, groups [][]circuit.Net, of []int32) error {
		for g, pins := range groups {
			if len(pins) != len(groups[0]) {
				return fmt.Errorf("lanes: %s group %d has %d pins, group 0 has %d", side, g, len(pins), len(groups[0]))
			}
			for _, pin := range pins {
				if gi := int(pin) - 2; gi < 0 || gi >= len(st.kinds) || st.kinds[gi] != circuit.KindInput {
					return fmt.Errorf("lanes: %s group %d pin %d is not an input", side, g, pin)
				}
				if rowOf[pin] != noGroup || colOf[pin] != noGroup {
					return fmt.Errorf("lanes: pin %d is in the symbol plan twice", pin)
				}
				of[pin] = int32(g)
				p.pins = append(p.pins, pin)
			}
		}
		return nil
	}
	if err := addPins("row", rows, rowOf); err != nil {
		return nil, err
	}
	if err := addPins("column", cols, colOf); err != nil {
		return nil, err
	}

	// Drive the pins one at a time on a one-word copy of the baseline
	// whose lane l carries the pair (a, b) = (l>>colBits, l&(1<<colBits-1)):
	// pin k of every row group holds bit k of a, pin k of every column
	// group bit k of b.  After each pin the gates whose inputs moved
	// settle in level order, and every changed lane counts one toggle, as
	// the per-pin path would: counts[pos*combos+l] is the count of the gate
	// at settle position pos in lane l.  inCone marks every gate evaluated.
	combos := 1 << (p.rowBits + p.colBits)
	// shell evaluates gates on its one-word copy of the baseline.
	shell := &kernel[[1]uint64]{structure: *st, vals: make([][1]uint64, nn)}
	vals := shell.vals
	for net := range vals {
		vals[net][0] = s.k.baseWord(circuit.Net(net))
	}
	inCone := make([]bool, len(st.gates))
	counts := make([]uint8, len(st.gates)*combos)
	dirty := make([]uint64, (len(st.gates)+63)/64)
	mark := func(net circuit.Net) {
		for _, pos := range st.nets[net].comb {
			dirty[pos>>6] |= 1 << uint(pos&63)
		}
	}
	drive := func(pin circuit.Net, shift int) {
		var pattern uint64
		for l := 0; l < combos; l++ {
			pattern |= uint64(l>>shift&1) << uint(l)
		}
		vals[pin][0] = pattern
		mark(pin)
		for i := range dirty {
			for dirty[i] != 0 {
				pos := i<<6 | bits.TrailingZeros64(dirty[i])
				dirty[i] &= dirty[i] - 1
				inCone[pos] = true
				g := &st.gates[pos]
				out := shell.eval(g)
				if diff := out[0] ^ vals[g.out][0]; diff != 0 {
					vals[g.out] = out
					row := counts[pos*combos:]
					for m := diff; m != 0; m &= m - 1 {
						row[bits.TrailingZeros64(m)]++
					}
					mark(g.out)
				}
			}
		}
	}
	for _, pins := range rows {
		for k, pin := range pins {
			drive(pin, p.colBits+k)
		}
	}
	for _, pins := range cols {
		for k, pin := range pins {
			drive(pin, k)
		}
	}

	// Keep the gates that can move, checking the three rules, and group
	// them by (toggle class, table).  Settle order is level order, so it
	// classifies every gate's inputs before the gate.
	type groupKey struct{ class, table int32 }
	type group struct {
		first  circuit.Net
		covers []int32 // row*cols+col → gates of the group at that cell pair
	}
	tableID := make(map[string]int32)
	groupID := make(map[groupKey]int)
	var groups []group
	var keys []groupKey
	for pos, g := range st.gates {
		if !inCone[pos] {
			continue
		}
		net := g.out
		r, c := int32(noGroup), int32(noGroup)
		for _, in := range st.ins[net-2] {
			r = mergeGroup(r, rowOf[in])
			c = mergeGroup(c, colOf[in])
		}
		if r == noGroup && c == noGroup {
			continue // reads the pins only through gates that cannot move
		}
		if r == manyGroups || c == manyGroups {
			side := "row"
			if r != manyGroups {
				side = "column"
			}
			return nil, fmt.Errorf("lanes: %v gate on net %d reads more than one %s group", g.kind, net, side)
		}
		t := counts[pos*combos : (pos+1)*combos]
		if !slices.ContainsFunc(t, func(n uint8) bool { return n != 0 }) {
			continue
		}
		if r == noGroup || c == noGroup {
			return nil, fmt.Errorf("lanes: %v gate on net %d moves with one symbol side's pins only", g.kind, net)
		}
		if s.k.baseWord(net) == 0 {
			return nil, fmt.Errorf("lanes: %v gate on net %d moves during the symbol load but is low at baseline", g.kind, net)
		}
		rowOf[net], colOf[net] = r, c
		id, ok := tableID[string(t)]
		if !ok {
			id = int32(len(p.tables))
			tableID[string(t)] = id
			p.tables = append(p.tables, slices.Clone(t))
		}
		p.gates = append(p.gates, planGate{pos: int32(pos), row: r, col: c, table: id, latched: len(st.nets[net].ffs) != 0})
		if p.gateOf == nil {
			p.gateOf = make([]int32, nn)
		}
		p.gateOf[net] = int32(len(p.gates))
		k := groupKey{class: st.nets[net].class, table: id}
		gr, ok := groupID[k]
		if !ok {
			gr = len(groups)
			groupID[k] = gr
			groups = append(groups, group{first: net, covers: make([]int32, p.rows*p.cols)})
			keys = append(keys, k)
		}
		groups[gr].covers[int(r)*p.cols+int(c)]++
	}

	// Every group must cover every cell pair equally often; its tables
	// then enter the class sum weighted by that multiplicity.
	classAt := make(map[int32]int)
	for g, grp := range groups {
		k := grp.covers[0]
		for cell, n := range grp.covers {
			if n != k {
				return nil, fmt.Errorf("lanes: the gates sharing the toggle class and table of the %v gate on net %d cover row %d, column %d %d times and row 0, column 0 %d times, not every cell pair equally",
					st.kinds[grp.first-2], grp.first, cell/p.cols, cell%p.cols, n, k)
			}
		}
		i, ok := classAt[keys[g].class]
		if !ok {
			i = len(p.classes)
			classAt[keys[g].class] = i
			p.classes = append(p.classes, planClass{class: keys[g].class, table: make([]uint64, combos)})
		}
		for ab, n := range p.tables[keys[g].table] {
			p.classes[i].table[ab] += uint64(k) * uint64(n)
		}
	}
	return p, nil
}

// LoadSymbols drives the plan's symbol pins with one W-word lane slab
// each (pin k of p's drive order at slabs[k*W:(k+1)*W]; bits outside the
// active mask are ignored) and leaves every observable — values,
// arrivals, per-lane activity and lane 0's per-net Toggles — exactly as
// driving the same pins one by one with SetInputWords would.  The pins
// are accounted as SetInputWords accounts them, but their comb fan-out
// is not queued: the cone settles once after the last pin, in level
// order and unaccounted (flip-flops reading a cone net join the pending
// edge), and each accounted lane's cone toggles are added from the
// plan's tables: Σ_{a,b} hp[a]·hq[b]·T(a,b) per toggle class, where hp
// and hq count how often each row-group and column-group value occurs in
// the lane.  The plan's gates are the only ones the pins can move, so
// the settle evaluates them alone.  LoadSymbols must be the first drive
// after Reset (or Compile) and SetActiveLanes, and panics otherwise.
func (s *Sim) LoadSymbols(p *SymbolPlan, slabs []uint64) {
	if p.nl != s.st.nl {
		panic("lanes: LoadSymbols with a plan for another netlist")
	}
	if len(slabs) != len(p.pins)*s.words {
		panic(fmt.Sprintf("lanes: LoadSymbols given %d words for %d pins of %d words", len(slabs), len(p.pins), s.words))
	}
	s.k.loadSymbols(p, slabs)
}

func (k *kernel[S]) loadSymbols(p *SymbolPlan, slabs []uint64) {
	if k.driven {
		panic("lanes: LoadSymbols after another drive or step; call Reset first")
	}
	k.drive()
	// Every pin is still at its baseline 0, so any set bit is a change.
	W := len(k.account)
	for i, pin := range p.pins {
		var v S
		var set uint64
		for w := 0; w < len(v); w++ {
			v[w] = slabs[i*W+w] & k.account[w]
			set |= v[w]
		}
		if set != 0 {
			k.commit(pin, v, false)
		}
	}
	// Settle the cone once, unaccounted, in level order.  A cone net that
	// only comb gates read is written in place; one a flip-flop reads
	// commits, which arms the flip-flop.
	acc := k.account
	var none S
	k.account = none
	k.work.Evals += uint64(len(p.gates))
	for _, pg := range p.gates {
		g := &k.gates[pg.pos]
		out := k.eval(g)
		if !pg.latched {
			k.vals[g.out] = out
		} else if out != k.vals[g.out] {
			k.commit(g.out, out, false)
		}
	}
	k.account = acc
	k.addLoadToggles(p, slabs)
}

// addLoadToggles credits every accounted lane with the cone toggles of
// its symbol load, from the lane's row and column value histograms.
// Lane 0's per-net counts are left to Toggles, which adds the table
// entry of the net's gate at lane 0's symbol values when it is read.
func (k *kernel[S]) addLoadToggles(p *SymbolPlan, slabs []uint64) {
	W := len(k.account)
	na, nb := 1<<p.rowBits, 1<<p.colBits
	if need := WordBits * (na + nb); len(k.loadHist) < need {
		k.loadHist = make([]uint32, need)
	}
	if k.spill == nil {
		k.spill = make([]uint64, len(k.classes)*k.width)
	}
	rowWords := p.rows * p.rowBits * W
	for w := 0; w < W; w++ {
		acc := k.account[w]
		if acc == 0 {
			continue
		}
		hp := k.loadHist[:WordBits*na]
		hq := k.loadHist[WordBits*na : WordBits*(na+nb)]
		clear(hp)
		clear(hq)
		tally(hp, slabs[:rowWords], p.rowBits, w, W, acc)
		tally(hq, slabs[rowWords:], p.colBits, w, W, acc)
		for m := acc; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			lp := hp[l*na : l*na+na]
			lq := hq[l*nb : l*nb+nb]
			for _, pc := range p.classes {
				var sum uint64
				for a, ca := range lp {
					if ca == 0 {
						continue
					}
					row := pc.table[a*nb : a*nb+nb]
					var rs uint64
					for b, cb := range lq {
						rs += uint64(cb) * row[b]
					}
					sum += uint64(ca) * rs
				}
				k.spill[int(pc.class)*k.width+w<<6+l] += sum
			}
		}
	}
	if k.account[0]&1 == 0 {
		return
	}
	// Lane 0's group values, row groups first.
	k.load0 = p
	if len(k.loadVal0) < p.rows+p.cols {
		k.loadVal0 = make([]uint8, p.rows+p.cols)
	}
	v0 := k.loadVal0[:p.rows+p.cols]
	pin := 0
	for g := range v0 {
		width := p.rowBits
		if g >= p.rows {
			width = p.colBits
		}
		var v uint8
		for b := 0; b < width; b++ {
			v |= uint8(slabs[pin*W]&1) << uint(b)
			pin++
		}
		v0[g] = v
	}
}

// toggles returns lane 0's toggle count of a net: its first rise, if
// lane 0 has logged one, its other committed transitions, and, after a
// load that accounted lane 0, the load's toggles of the plan gate
// driving the net.
func (k *kernel[S]) toggles(net circuit.Net) uint64 {
	n := k.toggles0[net] + (k.seen[net][0]&^k.baseVals[net][0])&1
	if p := k.load0; p != nil && p.gateOf != nil {
		if i := p.gateOf[net]; i > 0 {
			g := &p.gates[i-1]
			ab := int(k.loadVal0[g.row])<<uint(p.colBits) | int(k.loadVal0[p.rows+int(g.col)])
			n += uint64(p.tables[g.table][ab])
		}
	}
	return n
}

// tally adds to hist[l*2^width+v], for every lane l of acc in slab word
// w, how many of the groups in slabs (width pins of W words each) carry
// the value v in that lane.
func tally(hist []uint32, slabs []uint64, width, w, W int, acc uint64) {
	nv := 1 << width
	for base := w; base < len(slabs); base += width * W {
		for v := 0; v < nv; v++ {
			m := acc
			for k := 0; k < width; k++ {
				x := slabs[base+k*W]
				if v>>k&1 == 0 {
					x = ^x
				}
				m &= x
			}
			for ; m != 0; m &= m - 1 {
				hist[bits.TrailingZeros64(m)*nv+v]++
			}
		}
	}
}
