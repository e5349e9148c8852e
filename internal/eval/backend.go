package eval

import (
	"racelogic/internal/race"
	"racelogic/internal/score"
)

// simBackend is the simulation engine every measurement compiles its
// arrays onto.  The oracle suite proves the engines bit-identical, so
// switching it never changes a regenerated figure — only how long the
// sweeps take to produce it.
//
//racelint:published set once from the CLI before any sweep runs
var simBackend = race.BackendCycle

// SetBackend selects the simulation backend for all subsequent
// measurements (BackendEvent selects BackendLanes).  Call it before
// starting a sweep; the setting is not synchronized against concurrent
// measurements.
func SetBackend(b race.Backend) error {
	if err := b.Validate(); err != nil {
		return err
	}
	simBackend = b.Resolve()
	return nil
}

// Backend returns the selected simulation backend.
func Backend() race.Backend { return simBackend }

// simLaneWidth is the lanes backend's pack width for all measurements;
// 0 keeps the engine default (64).
//
//racelint:published set once from the CLI before any sweep runs
var simLaneWidth = 0

// SetLaneWidth selects the lanes backend's pack width (64, 128, 256,
// or 512 candidates per race) for all subsequent measurements; 0
// restores the engine default.  Like SetBackend, call it before a
// sweep starts.
func SetLaneWidth(w int) error {
	if w != 0 {
		// Reuse the engine's own validation rather than duplicate it.
		a, err := race.NewArray(1, 1)
		if err != nil {
			return err
		}
		if err := a.SetLaneWidth(w); err != nil {
			return err
		}
	}
	simLaneWidth = w
	return nil
}

// LaneWidth returns the effective lanes-backend pack width.
func LaneWidth() int {
	if simLaneWidth > 0 {
		return simLaneWidth
	}
	return 64
}

// onBackend puts a newly built array of any fabric on the selected
// backend and lane width.
func onBackend[A interface {
	SetBackend(race.Backend)
	SetLaneWidth(int) error
}](a A, err error) (A, error) {
	var none A
	if err != nil {
		return none, err
	}
	a.SetBackend(simBackend)
	if simLaneWidth > 0 {
		if err := a.SetLaneWidth(simLaneWidth); err != nil {
			return none, err
		}
	}
	return a, nil
}

// newArray builds a Fig. 4 DNA array on the selected backend.
func newArray(n, m int) (*race.Array, error) { return onBackend(race.NewArray(n, m)) }

// newGatedArray builds a clock-gated array on the selected backend.
func newGatedArray(n, m, regionSize int) (*race.GatedArray, error) {
	return onBackend(race.NewGatedArray(n, m, regionSize))
}

// newGeneralArray builds a Section 5 generalized array on the selected
// backend.
func newGeneralArray(n, m int, mtx *score.Matrix, enc race.Encoding) (*race.GeneralArray, error) {
	return onBackend(race.NewGeneralArray(n, m, mtx, enc))
}
