package race

import (
	"fmt"

	"racelogic/internal/circuit"
)

// GatedArray is the Section 4.3 energy-optimized variant of Array: the
// unit-cell grid is partitioned into m×m multi-cell regions, each with
// its own gated clock.  A region's flip-flops are clocked only while the
// computation wavefront is inside it:
//
//   - the clock turns on when a "1" first appears on any signal entering
//     the region (the black cells of Fig. 7a) or inside it;
//   - it turns off once every flip-flop in the region already holds "1"
//     (the grey cells): those values can never change again, so clocking
//     them is pure waste.
//
// The gating logic itself (the OR/AND/NOT per region and the clock-gate
// cell capacitance C_gate) is what Eq. 6 charges per cycle; this model
// builds that logic structurally so its area and toggles are priced like
// everything else, and the per-region flip-flop clock activity is
// measured exactly by the simulator's enabled-cycle counter.
// The fabric races through the embedded Array core, so the arrival
// times are identical to the ungated Array's and only the clock
// activity differs.  Like Array, a GatedArray is not safe for
// concurrent use.
type GatedArray struct {
	*Array
	regionSize int
	regions    int
}

// NewGatedArray builds an n×m edit-graph array gated in
// regionSize×regionSize multi-cell regions (the paper's m parameter; use
// tech.OptimalGranularity for the Eq. 7 optimum).
func NewGatedArray(n, m, regionSize int) (*GatedArray, error) {
	if err := checkDims(n, m); err != nil {
		return nil, err
	}
	if regionSize < 1 {
		return nil, fmt.Errorf("race: region size %d must be ≥ 1", regionSize)
	}

	// The cell fabric is Array's except every DFF is a DFFE whose enable
	// comes from its region's gate.  Regions cannot be wired before
	// their cells exist, and cells need their delayed inputs — so build
	// DFFEs with placeholder enables and patch them.
	type regionKey struct{ ri, rj int }
	regionFFs := make(map[regionKey][]circuit.Net) // Q nets per region
	var regions []regionKey                        // in first-cell order, so builds are identical
	core, d := newDNAArray(n, m, func(nl *circuit.Netlist, i, j int, dIn circuit.Net) circuit.Net {
		key := regionKey{i / regionSize, j / regionSize}
		q := nl.DFFE(dIn, circuit.One) // enable patched below
		if _, ok := regionFFs[key]; !ok {
			regions = append(regions, key)
		}
		regionFFs[key] = append(regionFFs[key], q)
		return q
	})
	nl := core.netlist

	// Per-region gate: enable = activity AND NOT done, where activity is
	// the OR of the region's own Q nets and every Q net crossing into it
	// (plus the root for the origin region), and done is the AND of the
	// region's Q nets.  Disabling only once all flip-flops already hold
	// "1" guarantees the gated array is cycle-for-cycle identical to the
	// ungated one.
	for _, key := range regions {
		qs := regionFFs[key]
		var activity []circuit.Net
		activity = append(activity, qs...)
		// Crossing signals: Q nets of cells just left of / above the
		// region border.
		i0, j0 := key.ri*regionSize, key.rj*regionSize
		i1, j1 := min(i0+regionSize-1, n), min(j0+regionSize-1, m)
		if i0 > 0 {
			for j := j0; j <= j1; j++ {
				activity = append(activity, d[i0-1][j])
				if j > 0 {
					activity = append(activity, d[i0-1][j-1]) // diagonal crossing
				}
			}
		}
		if j0 > 0 {
			for i := i0; i <= i1; i++ {
				activity = append(activity, d[i][j0-1])
				if i > 0 {
					activity = append(activity, d[i-1][j0-1])
				}
			}
		}
		if i0 == 0 && j0 == 0 {
			activity = append(activity, core.root)
		}
		enable := nl.And(nl.Or(activity...), nl.Not(nl.And(qs...)))
		for _, q := range qs {
			if err := nl.PatchEnable(q, enable); err != nil {
				return nil, err
			}
		}
	}
	return &GatedArray{Array: core, regionSize: regionSize, regions: len(regions)}, nil
}

// Regions returns the number of gated multi-cell regions, the (N/m)² of
// Eq. 6.
func (a *GatedArray) Regions() int { return a.regions }

// RegionSize returns the gating granularity m.
func (a *GatedArray) RegionSize() int { return a.regionSize }

// String describes the gating configuration.
func (a *GatedArray) String() string {
	return fmt.Sprintf("gated race array %d×%d, %d×%d regions (%d regions)",
		a.n, a.m, a.regionSize, a.regionSize, a.regions)
}
