package race

import (
	"fmt"

	"racelogic/internal/circuit"
	"racelogic/internal/circuit/lanes"
	"racelogic/internal/temporal"
)

// LaneError attributes a per-candidate failure inside a lane pack to
// the lane it occurred on, so a batched scan reports exactly the error
// (and the entry) a one-candidate-at-a-time scan would have.
type LaneError struct {
	// Lane is the index into the qs slice AlignLanes was given.
	Lane int
	// Err is the underlying error, verbatim from the scalar path.
	Err error
}

func (e *LaneError) Error() string { return e.Err.Error() }

// Unwrap exposes the scalar error for errors.Is/As.
func (e *LaneError) Unwrap() error { return e.Err }

// LaneWidth reports how many candidates one race can score at once:
// the configured SetLaneWidth (64–512) under BackendLanes, 1 otherwise.
// The pipeline cuts its lane packs this wide.
func (a *Array) LaneWidth() int {
	if a.backend == BackendLanes {
		return a.laneWords * lanes.WordBits
	}
	return 1
}

// AlignLanes races query p against up to LaneWidth candidate strings in
// one pass of the compiled netlist — every candidate gets a bit lane of
// the word-parallel engine, all racing the same wavefront.  A negative
// threshold runs the full race; otherwise the Section 6 cut-off applies
// to every lane exactly as AlignThreshold applies it to one.  The
// returned results are index-aligned with qs, and their Score, Cycles
// and Activity are byte-identical to what Align/AlignThreshold would
// have produced candidate by candidate; Arrivals is left nil, since a
// pack scores candidates and no caller traces back through one.  Use
// Align for the Fig. 4c timing matrix.  Candidate-specific failures are
// reported as *LaneError.  On the cycle reference LaneWidth is 1, and a
// pack of one races as Align does, without the timing matrix.
func (a *Array) AlignLanes(p string, qs []string, threshold temporal.Time) ([]*AlignResult, error) {
	return a.alignLanes(p, nil, qs, threshold)
}

// AlignLanesMulti is AlignLanes for a mixed pack: lane k races query
// ps[k] against candidate qs[k], so one netlist pass can serve several
// in-flight queries of the same shape at once.  Every lane's Score,
// Cycles and Activity are byte-identical to the solo
// Align/AlignThreshold of its own (p, q) pair, Arrivals is left nil as
// in AlignLanes, and lane-k failures carry *LaneError with Lane = k.
func (a *Array) AlignLanesMulti(ps, qs []string, threshold temporal.Time) ([]*AlignResult, error) {
	if len(ps) != len(qs) {
		return nil, fmt.Errorf("race: lane pack has %d queries for %d candidates", len(ps), len(qs))
	}
	return a.alignLanes("", ps, qs, threshold)
}

// alignLanes is the shared pack race: ps == nil broadcasts sharedP to
// every lane (the single-query fast path), otherwise lane k carries its
// own ps[k].
func (a *Array) alignLanes(sharedP string, ps []string, qs []string, threshold temporal.Time) ([]*AlignResult, error) {
	width := a.LaneWidth()
	if len(qs) == 0 || len(qs) > width {
		return nil, fmt.Errorf("race: lane pack holds 1..%d candidates, got %d", width, len(qs))
	}
	W := (width + lanes.WordBits - 1) / lanes.WordBits
	used := make([]uint64, W)
	for k := range qs {
		used[k>>6] |= uint64(1) << uint(k&63)
	}

	// Decode every symbol before touching the engine into per-pin input
	// slabs in drive order, P's pins then Q's (slab layout: lane k is bit
	// k%64 of word k/64), attributing the first failure to its lane — the
	// same entry a scalar scan would have stopped at.
	slabs := make([]uint64, len(a.pins)*W)
	if ps == nil {
		if len(sharedP) != a.n {
			return nil, a.shapeError(len(sharedP), len(qs[0]))
		}
		if err := a.encode(slabs, W, 0, 1, sharedP, 0); err != nil {
			return nil, &LaneError{Lane: 0, Err: err}
		}
		for k := 0; k < a.n*a.symBits; k++ {
			if slabs[k*W]&1 != 0 {
				copy(slabs[k*W:(k+1)*W], used)
			}
		}
	}
	for k, q := range qs {
		w, bit := k>>6, uint64(1)<<uint(k&63)
		plen := len(sharedP)
		if ps != nil {
			p := ps[k]
			plen = len(p)
			if len(p) != a.n {
				return nil, &LaneError{Lane: k, Err: a.shapeError(len(p), len(q))}
			}
			if err := a.encode(slabs, W, w, bit, p, 0); err != nil {
				return nil, &LaneError{Lane: k, Err: err}
			}
		}
		if len(q) != a.m {
			return nil, &LaneError{Lane: k, Err: a.shapeError(plen, len(q))}
		}
		if err := a.encode(slabs, W, w, bit, q, a.n); err != nil {
			return nil, &LaneError{Lane: k, Err: err}
		}
	}

	bound := a.boundFor(threshold)
	out := a.out[a.n][a.m]
	// One allocation holds every lane's result, however wide the pack.
	backing := make([]AlignResult, len(qs))
	if width == 1 {
		sim, err := a.raceSolo(slabs, bound)
		if err != nil {
			return nil, err
		}
		backing[0] = AlignResult{Score: sim.Arrival(out), Cycles: sim.Cycle(), Activity: sim.Activity()}
	} else {
		ls, err := a.racePack(slabs, used, bound)
		if err != nil {
			return nil, err
		}
		for k := range backing {
			backing[k] = AlignResult{Score: ls.LaneArrival(out, k), Cycles: ls.LaneCycle(k), Activity: ls.LaneActivity(k)}
		}
	}
	results := make([]*AlignResult, len(qs))
	for k := range backing {
		if threshold >= 0 {
			applyThreshold(&backing[k], threshold)
		}
		results[k] = &backing[k]
	}
	return results, nil
}

// racePack races the lanes of used through the reset lanes engine: it
// loads the symbol slabs (len(used) words a pin, in drive order), raises
// the root in every used lane, and races until each lane's output fires
// or bound cycles pass.
func (a *Array) racePack(slabs, used []uint64, bound int) (*lanes.Sim, error) {
	ls, err := a.lanesSim()
	if err != nil {
		return nil, err
	}
	ls.SetActiveLanes(used)
	if a.symbols != nil {
		// The tabulated load drives the pins in the order the pin-by-pin
		// load does and leaves every lane's toggle counts as that load
		// would, bit for bit.
		ls.LoadSymbols(a.symbols, slabs)
	} else {
		W := len(used)
		for k, pin := range a.pins {
			ls.SetInputWords(pin, slabs[k*W:(k+1)*W])
		}
	}
	ls.SetInputWords(a.root, used)
	ls.RaceUntil(a.out[a.n][a.m], bound)
	return ls, nil
}

// lanesSim returns the reset lanes engine, planning its tabulated
// symbol load on first use.  PlanSymbolLoad accepts the DNA fabrics and
// refuses the generalized one (its per-symbol decoders move with one
// symbol side, and protein symbols exceed the plan's table width), whose
// packs then load pin by pin.
func (a *Array) lanesSim() (*lanes.Sim, error) {
	sim, err := a.simulator()
	if err != nil {
		return nil, err
	}
	ls, ok := sim.(*lanes.Sim)
	if !ok {
		return nil, fmt.Errorf("race: lanes backend compiled unexpected engine %T", sim)
	}
	if !a.planned {
		rows := make([][]circuit.Net, a.n)
		for i := range rows {
			rows[i] = a.symbolPins(i)
		}
		cols := make([][]circuit.Net, a.m)
		for j := range cols {
			cols[j] = a.symbolPins(a.n + j)
		}
		a.symbols, _ = ls.PlanSymbolLoad(rows, cols) // nil when refused
		a.planned = true
	}
	return ls, nil
}
