package race

import (
	"fmt"

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
// The pipeline uses it to decide whether to batch a chunk into lane
// packs and how wide to cut them.
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
// reported as *LaneError.
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
	if a.backend != BackendLanes {
		return nil, fmt.Errorf("race: AlignLanes requires BackendLanes, array uses %v", a.backend)
	}
	W := a.laneWords
	width := W * lanes.WordBits
	if len(qs) == 0 || len(qs) > width {
		return nil, fmt.Errorf("race: lane pack holds 1..%d candidates, got %d", width, len(qs))
	}
	used := make([]uint64, W)
	for k := range qs {
		used[k>>6] |= uint64(1) << uint(k&63)
	}

	// Decode every symbol before touching the engine, building the
	// per-position input words (slab layout: lane k is bit k%64 of word
	// k/64) and attributing the first failure to its lane — the same
	// entry a scalar scan would have stopped at.
	pw := make([]uint64, 2*a.n*W)
	qw := make([]uint64, 2*a.m*W)
	if ps == nil {
		if len(sharedP) != a.n {
			return nil, fmt.Errorf("race: array is %d×%d but strings are %d×%d", a.n, a.m, len(sharedP), len(qs[0]))
		}
		for i := 0; i < a.n; i++ {
			c, err := dnaCode(sharedP[i])
			if err != nil {
				return nil, &LaneError{Lane: 0, Err: err}
			}
			if c&1 == 1 {
				copy(pw[(2*i)*W:(2*i+1)*W], used)
			}
			if c&2 == 2 {
				copy(pw[(2*i+1)*W:(2*i+2)*W], used)
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
				return nil, &LaneError{Lane: k, Err: fmt.Errorf("race: array is %d×%d but strings are %d×%d", a.n, a.m, len(p), len(q))}
			}
			for i := 0; i < a.n; i++ {
				c, err := dnaCode(p[i])
				if err != nil {
					return nil, &LaneError{Lane: k, Err: err}
				}
				if c&1 == 1 {
					pw[(2*i)*W+w] |= bit
				}
				if c&2 == 2 {
					pw[(2*i+1)*W+w] |= bit
				}
			}
		}
		if len(q) != a.m {
			return nil, &LaneError{Lane: k, Err: fmt.Errorf("race: array is %d×%d but strings are %d×%d", a.n, a.m, plen, len(q))}
		}
		for j := 0; j < a.m; j++ {
			c, err := dnaCode(q[j])
			if err != nil {
				return nil, &LaneError{Lane: k, Err: err}
			}
			if c&1 == 1 {
				qw[(2*j)*W+w] |= bit
			}
			if c&2 == 2 {
				qw[(2*j+1)*W+w] |= bit
			}
		}
	}

	sim, err := a.simulator()
	if err != nil {
		return nil, err
	}
	ls, ok := sim.(*lanes.Sim)
	if !ok {
		return nil, fmt.Errorf("race: lanes backend compiled unexpected engine %T", sim)
	}
	ls.SetActiveLanes(used)

	// Drive the pins in the exact order the scalar loadSymbols does, so
	// every lane's settle/account sequence — and therefore its toggle
	// counts — matches its solo race bit for bit.
	for i := 0; i < a.n; i++ {
		ls.SetInputWords(a.pBits[i][0], pw[(2*i)*W:(2*i+1)*W])
		ls.SetInputWords(a.pBits[i][1], pw[(2*i+1)*W:(2*i+2)*W])
	}
	for j := 0; j < a.m; j++ {
		ls.SetInputWords(a.qBits[j][0], qw[(2*j)*W:(2*j+1)*W])
		ls.SetInputWords(a.qBits[j][1], qw[(2*j+1)*W:(2*j+2)*W])
	}
	ls.SetInputWords(a.root, used)

	bound := a.n + a.m + 2
	if threshold >= 0 {
		if b := int(threshold) + 1; b < bound {
			bound = b
		}
	}
	out := a.out[a.n][a.m]
	ls.RaceUntil(out, bound)

	// One allocation holds every lane's result, however wide the pack.
	backing := make([]AlignResult, len(qs))
	results := make([]*AlignResult, len(qs))
	for k := range qs {
		res := &backing[k]
		*res = AlignResult{
			Score:    ls.LaneArrival(out, k),
			Cycles:   ls.LaneCycle(k),
			Activity: ls.LaneActivity(k),
		}
		if threshold >= 0 {
			applyThreshold(res, threshold)
		}
		results[k] = res
	}
	return results, nil
}
