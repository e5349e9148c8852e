package oracle_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"racelogic"
	"racelogic/internal/circuit"
	"racelogic/internal/circuit/lanes"
	"racelogic/internal/oracle"
	"racelogic/internal/race"
	"racelogic/internal/score"
	"racelogic/internal/seqgen"
	"racelogic/internal/temporal"
)

// TestNetlistEquivalence is the core property suite: random netlists
// under random stimulus, the lanes engine driven in lockstep and
// compared against the reference observable-by-observable after every
// operation.
func TestNetlistEquivalence(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 60
	}
	for seed := int64(0); seed < int64(trials); seed++ {
		if err := oracle.CheckSeed(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestLaneNetlistEquivalence is the word-parallel property suite: one
// lanes simulation carrying several divergent candidates, checked lane
// by lane against dedicated cycle-accurate simulations.
func TestLaneNetlistEquivalence(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 50
	}
	for seed := int64(0); seed < int64(trials); seed++ {
		if err := oracle.CheckLanesSeed(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSymbolLoadEquivalence is the symbol-load property suite: random
// grids of uniform cells loaded by the tabulated LoadSymbols and, on a
// twin engine, pin by pin, compared in every lane after the load and
// after a race.
func TestSymbolLoadEquivalence(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 50
	}
	for seed := int64(0); seed < int64(trials); seed++ {
		if err := oracle.CheckSymbolLoadSeed(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// alignCase is one (p, q, threshold) stimulus; threshold < 0 races to
// completion.
type alignCase struct {
	p, q      string
	threshold int64
}

// alignCases builds a deterministic mixed workload: identical, fully
// mismatched, random, and mutated pairs, raced both unbounded and under
// tight/loose thresholds.
func alignCases(t *testing.T, gen *seqgen.Generator, n, m int) []alignCase {
	t.Helper()
	var cases []alignCase
	add := func(p, q string) {
		cases = append(cases,
			alignCase{p, q, -1},
			alignCase{p, q, int64(n+m) / 2},
			alignCase{p, q, 2},
		)
	}
	p, q := gen.RandomPair(n)
	if m != n {
		q = gen.Random(m)
	}
	add(p, q)
	if n == m {
		bp, bq := gen.BestCase(n)
		add(bp, bq)
		wp, wq := gen.WorstCase(n)
		add(wp, wq)
	}
	return cases
}

// runCases races every case through ref and fast (two arrays of the same
// shape, on the cycle reference and on lanes) and requires identical
// AlignResults.
func runCases(t *testing.T, name string, cases []alignCase,
	ref, fast interface {
		Align(p, q string) (*race.AlignResult, error)
		AlignThreshold(p, q string, threshold temporal.Time) (*race.AlignResult, error)
	}) {
	t.Helper()
	for i, c := range cases {
		var rres, fres *race.AlignResult
		var rerr, ferr error
		if c.threshold < 0 {
			rres, rerr = ref.Align(c.p, c.q)
			fres, ferr = fast.Align(c.p, c.q)
		} else {
			rres, rerr = ref.AlignThreshold(c.p, c.q, temporal.Time(c.threshold))
			fres, ferr = fast.AlignThreshold(c.p, c.q, temporal.Time(c.threshold))
		}
		if (rerr == nil) != (ferr == nil) {
			t.Fatalf("%s case %d: error disagreement: cycle %v, lanes %v", name, i, rerr, ferr)
		}
		if rerr != nil {
			continue
		}
		if !reflect.DeepEqual(rres, fres) {
			t.Fatalf("%s case %d (%q vs %q, thr %d): results differ\ncycle: %+v\nlanes: %+v",
				name, i, c.p, c.q, c.threshold, rres, fres)
		}
	}
}

// TestArrayEquivalence races the plain DNA array on lanes on a mixed
// workload and requires results bit-identical to the reference's,
// reusing each array across races exactly like the search pipeline
// does.
func TestArrayEquivalence(t *testing.T) {
	gen := seqgen.NewDNA(11)
	shapes := [][2]int{{1, 1}, {3, 5}, {8, 8}, {12, 7}}
	for _, s := range shapes {
		ref, err := race.NewArray(s[0], s[1])
		if err != nil {
			t.Fatal(err)
		}
		fast, err := race.NewArray(s[0], s[1])
		if err != nil {
			t.Fatal(err)
		}
		fast.SetBackend(race.BackendLanes)
		runCases(t, "array", alignCases(t, gen, s[0], s[1]), ref, fast)
	}
}

// TestGatedArrayEquivalence covers the clock-gated fabric, where lanes
// must track enable nets and the per-region DFFE clock accounting
// exactly.
func TestGatedArrayEquivalence(t *testing.T) {
	gen := seqgen.NewDNA(12)
	for _, region := range []int{1, 2, 4} {
		ref, err := race.NewGatedArray(6, 9, region)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := race.NewGatedArray(6, 9, region)
		if err != nil {
			t.Fatal(err)
		}
		fast.SetBackend(race.BackendLanes)
		runCases(t, "gated", alignCases(t, gen, 6, 9), ref, fast)
	}
}

// TestGeneralArrayEquivalence covers the Section 5 generalized cell —
// saturating counters, weight decoders, sticky latches — under both
// delay encodings.
func TestGeneralArrayEquivalence(t *testing.T) {
	prepared, err := score.BLOSUM62().PrepareForRace()
	if err != nil {
		t.Fatal(err)
	}
	gen := seqgen.NewProtein(13)
	n, m := 3, 4
	if testing.Short() {
		n, m = 2, 3
	}
	for _, enc := range []race.Encoding{race.BinaryCounter, race.OneHot} {
		ref, err := race.NewGeneralArray(n, m, prepared, enc)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := race.NewGeneralArray(n, m, prepared, enc)
		if err != nil {
			t.Fatal(err)
		}
		fast.SetBackend(race.BackendLanes)
		p, q := gen.RandomPair(n)
		if m != n {
			q = gen.Random(m)
		}
		runCases(t, "general/"+enc.String(), []alignCase{
			{p, q, -1},
			{p, q, 20},
			{p, gen.Random(m), -1},
		}, ref, fast)
	}
}

// TestAlignLanesEquivalence drives the production pack path: AlignLanes
// races up to 64 candidates through one lanes array, and AlignLanesMulti
// races packs of distinct queries up to 256 lanes wide, with fills that
// end inside a later slab word.  Every lane's score, cycles and activity
// must be byte-identical to a solo cycle-accurate Align (or
// AlignThreshold) of its own pair.  Pack results carry no arrival
// matrix; per-lane arrivals stay pinned net by net by
// CheckLaneEquivalence.
func TestAlignLanesEquivalence(t *testing.T) {
	gen := seqgen.NewDNA(16)
	for _, tc := range []struct {
		n, m, pack int
		threshold  int64
	}{
		{4, 6, 1, -1},   // singleton pack
		{4, 6, 3, -1},   // partial pack
		{5, 5, 64, -1},  // full pack
		{4, 6, 7, 5},    // thresholded pack: some lanes reject
		{1, 1, 2, -1},   // minimal array
		{12, 7, 17, 9},  // wide array, odd pack, tight bound
		{3, 5, 64, 100}, // threshold looser than the race bound
	} {
		lanesArr, err := race.NewArray(tc.n, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		lanesArr.SetBackend(race.BackendLanes)
		ref, err := race.NewArray(tc.n, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		p := gen.Random(tc.n)
		qs := make([]string, tc.pack)
		for i := range qs {
			qs[i] = gen.Random(tc.m)
		}
		got, err := lanesArr.AlignLanes(p, qs, temporal.Time(tc.threshold))
		if err != nil {
			t.Fatalf("AlignLanes(%d,%d,pack %d): %v", tc.n, tc.m, tc.pack, err)
		}
		if len(got) != tc.pack {
			t.Fatalf("AlignLanes returned %d results, want %d", len(got), tc.pack)
		}
		for i, q := range qs {
			var want *race.AlignResult
			if tc.threshold < 0 {
				want, err = ref.Align(p, q)
			} else {
				want, err = ref.AlignThreshold(p, q, temporal.Time(tc.threshold))
			}
			if err != nil {
				t.Fatal(err)
			}
			if got[i].Arrivals != nil {
				t.Fatalf("shape %dx%d pack %d lane %d: pack result carries an arrival matrix", tc.n, tc.m, tc.pack, i)
			}
			want.Arrivals = nil
			if !reflect.DeepEqual(want, got[i]) {
				t.Fatalf("shape %dx%d pack %d lane %d (%q vs %q, thr %d): results differ\ncycle: %+v\nlanes: %+v",
					tc.n, tc.m, tc.pack, i, p, q, tc.threshold, want, got[i])
			}
		}
	}

	// Every fabric races its packs through the same core: the plain and
	// clock-gated arrays load symbols through the tabulated plan, the
	// generalized array pin by pin.
	prepared, err := score.BLOSUM62().PrepareForRace()
	if err != nil {
		t.Fatal(err)
	}
	pgen := seqgen.NewProtein(17)
	type fabric struct {
		name  string
		build func(n, m int) (*race.Array, error)
		gen   *seqgen.Generator
	}
	plain := fabric{"plain", race.NewArray, gen}
	gated := func(region int) fabric {
		return fabric{fmt.Sprintf("gated/%d", region), func(n, m int) (*race.Array, error) {
			g, err := race.NewGatedArray(n, m, region)
			if err != nil {
				return nil, err
			}
			return g.Array, nil
		}, gen}
	}
	general := func(enc race.Encoding) fabric {
		return fabric{"general/" + enc.String(), func(n, m int) (*race.Array, error) {
			g, err := race.NewGeneralArray(n, m, prepared, enc)
			if err != nil {
				return nil, err
			}
			return g.Array, nil
		}, pgen}
	}
	for _, tc := range []struct {
		fab               fabric
		n, m, width, pack int
		threshold         int64
	}{
		{plain, 5, 4, 64, 64, -1},   // one full word of distinct queries
		{plain, 4, 6, 128, 65, -1},  // one lane into the second word
		{plain, 6, 5, 256, 200, -1}, // ends inside the fourth word
		{plain, 4, 4, 256, 256, -1}, // full four-word pack
		{plain, 5, 6, 128, 100, 8},  // thresholded: some lanes reject
		{gated(1), 6, 9, 64, 64, -1},
		{gated(2), 6, 9, 256, 130, -1}, // ends inside the third word
		{gated(4), 6, 9, 256, 256, -1},
		{gated(4), 9, 6, 64, 40, 10}, // thresholded: some lanes reject
		{general(race.BinaryCounter), 2, 3, 64, 64, -1},
		{general(race.BinaryCounter), 3, 2, 256, 130, -1},
		{general(race.BinaryCounter), 2, 3, 256, 70, 30}, // thresholded
		{general(race.OneHot), 2, 3, 64, 33, -1},
		{general(race.OneHot), 3, 2, 256, 66, 30}, // thresholded
	} {
		name := fmt.Sprintf("%s %dx%d width %d pack %d", tc.fab.name, tc.n, tc.m, tc.width, tc.pack)
		lanesArr, err := tc.fab.build(tc.n, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		lanesArr.SetBackend(race.BackendLanes)
		if err := lanesArr.SetLaneWidth(tc.width); err != nil {
			t.Fatal(err)
		}
		ref, err := tc.fab.build(tc.n, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		ps := make([]string, tc.pack)
		qs := make([]string, tc.pack)
		for i := range qs {
			ps[i] = tc.fab.gen.Random(tc.n)
			qs[i] = tc.fab.gen.Random(tc.m)
		}
		got, err := lanesArr.AlignLanesMulti(ps, qs, temporal.Time(tc.threshold))
		if err != nil {
			t.Fatalf("%s: AlignLanesMulti: %v", name, err)
		}
		if len(got) != tc.pack {
			t.Fatalf("%s: AlignLanesMulti returned %d results, want %d", name, len(got), tc.pack)
		}
		rejected := 0
		for i := range qs {
			if got[i].Score == temporal.Never {
				rejected++
			}
			var want *race.AlignResult
			if tc.threshold < 0 {
				want, err = ref.Align(ps[i], qs[i])
			} else {
				want, err = ref.AlignThreshold(ps[i], qs[i], temporal.Time(tc.threshold))
			}
			if err != nil {
				t.Fatal(err)
			}
			want.Arrivals = nil
			if !reflect.DeepEqual(want, got[i]) {
				t.Fatalf("%s lane %d (%q vs %q, thr %d): results differ\ncycle: %+v\nlanes: %+v",
					name, i, ps[i], qs[i], tc.threshold, want, got[i])
			}
		}
		if tc.threshold >= 0 && (rejected == 0 || rejected == tc.pack) {
			t.Fatalf("%s thr %d: %d of %d lanes rejected, want a mix", name, tc.threshold, rejected, tc.pack)
		}
	}
}

// TestAlignLanesErrors pins the pack path's error contract: a bad
// symbol in lane k surfaces as a LaneError carrying k and the same
// underlying error a scalar Align would return, before any engine state
// is touched.  It also pins the cycle reference's packs of one.
func TestAlignLanesErrors(t *testing.T) {
	arr, err := race.NewArray(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	arr.SetBackend(race.BackendLanes)
	if _, err := arr.AlignLanes("ACG", []string{"ACGT", "ACXT", "TTTT"}, -1); err == nil {
		t.Fatal("bad lane-1 symbol: want error")
	} else {
		var le *race.LaneError
		if !errors.As(err, &le) {
			t.Fatalf("want *race.LaneError, got %T: %v", err, err)
		} else if le.Lane != 1 {
			t.Fatalf("LaneError.Lane = %d, want 1", le.Lane)
		}
	}
	if _, err := arr.AlignLanes("ACG", nil, -1); err == nil {
		t.Fatal("empty pack: want error")
	}
	if _, err := arr.AlignLanes("ACG", make([]string, 65), -1); err == nil {
		t.Fatal("oversized pack: want error")
	}

	// On the cycle reference LaneWidth is 1: a pack of one races as
	// Align or AlignThreshold does, without the timing matrix, and a
	// pack of two is refused.
	prepared, err := score.BLOSUM62().PrepareForRace()
	if err != nil {
		t.Fatal(err)
	}
	general, err := race.NewGeneralArray(3, 4, prepared, race.BinaryCounter)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := race.NewArray(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		arr       *race.Array
		p, q      string
		threshold temporal.Time
	}{
		{plain, "ACG", "ACGT", -1},
		{plain, "ACG", "TTTT", 5},
		{general.Array, "WAR", "WYRD", -1},
		{general.Array, "WAR", "MKVL", 30},
	} {
		if w := c.arr.LaneWidth(); w != 1 {
			t.Fatalf("cycle: LaneWidth = %d, want 1", w)
		}
		var want *race.AlignResult
		if c.threshold < 0 {
			want, err = c.arr.Align(c.p, c.q)
		} else {
			want, err = c.arr.AlignThreshold(c.p, c.q, c.threshold)
		}
		if err != nil {
			t.Fatal(err)
		}
		want.Arrivals = nil
		got, err := c.arr.AlignLanes(c.p, []string{c.q}, c.threshold)
		if err != nil {
			t.Fatalf("cycle: pack of one: %v", err)
		}
		if !reflect.DeepEqual(want, got[0]) {
			t.Fatalf("cycle %q vs %q thr %d: pack of one differs from Align\nalign: %+v\npack:  %+v", c.p, c.q, c.threshold, want, got[0])
		}
		if _, err := c.arr.AlignLanesMulti([]string{c.p, c.p}, []string{c.q, c.q}, c.threshold); err == nil {
			t.Fatal("cycle: pack of two on the reference: want error")
		}
	}
}

// TestAlignPackOfOne pins Align and AlignThreshold on lanes, which race
// a pack of one and read the Fig. 4c timing matrix from its lane, field
// by field against the cycle reference, timing matrix included: on the
// plain, clock-gated and 12×12 BLOSUM62 arrays, at 64 and 256 lanes.
// Every single race sits between two multi-lane packs on the same
// array, whose lanes must match the reference too, so the one-lane mask
// never leaks into a later pack.  A malformed pair fails Align with the
// reference's error, not a LaneError.
func TestAlignPackOfOne(t *testing.T) {
	prepared, err := score.BLOSUM62().PrepareForRace()
	if err != nil {
		t.Fatal(err)
	}
	for _, fab := range []struct {
		name  string
		build func() (*race.Array, error)
		gen   *seqgen.Generator
		n     int
	}{
		{"plain", func() (*race.Array, error) { return race.NewArray(16, 16) }, seqgen.NewDNA(41), 16},
		{"gated4", func() (*race.Array, error) {
			g, err := race.NewGatedArray(16, 16, 4)
			if err != nil {
				return nil, err
			}
			return g.Array, nil
		}, seqgen.NewDNA(42), 16},
		{"blosum62", func() (*race.Array, error) {
			g, err := race.NewGeneralArray(12, 12, prepared, race.BinaryCounter)
			if err != nil {
				return nil, err
			}
			return g.Array, nil
		}, seqgen.NewProtein(43), 12},
	} {
		ref, err := fab.build()
		if err != nil {
			t.Fatal(err)
		}
		// Three pairs make the pack.  The first two also race alone: in
		// full, cut off one cycle before their score, and (the first)
		// under a threshold the score meets.
		var cases []alignCase
		var ps, qs []string
		var wantPack []*race.AlignResult
		for i := 0; i < 3; i++ {
			p, q := fab.gen.RandomPair(fab.n)
			full, err := ref.Align(p, q)
			if err != nil {
				t.Fatal(err)
			}
			ps, qs = append(ps, p), append(qs, q)
			lane := *full
			lane.Arrivals = nil
			wantPack = append(wantPack, &lane)
			switch i {
			case 0:
				cases = append(cases, alignCase{p, q, -1}, alignCase{p, q, int64(full.Score) - 1}, alignCase{p, q, int64(full.Score)})
			case 1:
				cases = append(cases, alignCase{p, q, -1}, alignCase{p, q, int64(full.Score) - 1})
			}
		}
		race1 := func(arr *race.Array, c alignCase) (*race.AlignResult, error) {
			if c.threshold < 0 {
				return arr.Align(c.p, c.q)
			}
			return arr.AlignThreshold(c.p, c.q, temporal.Time(c.threshold))
		}
		want := make([]*race.AlignResult, len(cases))
		for i, c := range cases {
			if want[i], err = race1(ref, c); err != nil {
				t.Fatal(err)
			}
		}
		if want[1].Score != temporal.Never || want[2].Score == temporal.Never {
			t.Fatalf("%s: thresholds %d and %d do not cut and pass", fab.name, cases[1].threshold, cases[2].threshold)
		}
		bad := []alignCase{{"#" + ps[0][1:], qs[0], -1}, {ps[0][1:], qs[0], 5}}
		badErrs := make([]error, len(bad))
		for i, c := range bad {
			if _, badErrs[i] = race1(ref, c); badErrs[i] == nil {
				t.Fatalf("%s: reference raced malformed pair %q vs %q", fab.name, c.p, c.q)
			}
		}

		for _, width := range []int{64, 256} {
			name := fmt.Sprintf("%s width %d", fab.name, width)
			arr, err := fab.build()
			if err != nil {
				t.Fatal(err)
			}
			arr.SetBackend(race.BackendLanes)
			if err := arr.SetLaneWidth(width); err != nil {
				t.Fatal(err)
			}
			pack := func(when string) {
				t.Helper()
				got, err := arr.AlignLanesMulti(ps, qs, -1)
				if err != nil {
					t.Fatalf("%s: pack %s: %v", name, when, err)
				}
				for k := range got {
					if !reflect.DeepEqual(wantPack[k], got[k]) {
						t.Fatalf("%s: pack %s, lane %d differs\ncycle: %+v\nlanes: %+v", name, when, k, wantPack[k], got[k])
					}
				}
			}
			pack("first")
			for i, c := range cases {
				got, err := race1(arr, c)
				if err != nil {
					t.Fatalf("%s case %d: %v", name, i, err)
				}
				if !reflect.DeepEqual(want[i], got) {
					t.Fatalf("%s case %d (%q vs %q, thr %d): results differ\ncycle: %+v\nlanes: %+v",
						name, i, c.p, c.q, c.threshold, want[i], got)
				}
				pack(fmt.Sprintf("after case %d", i))
			}
			for i, c := range bad {
				_, err := race1(arr, c)
				var le *race.LaneError
				if err == nil || err.Error() != badErrs[i].Error() || errors.As(err, &le) {
					t.Fatalf("%s: malformed pair %q vs %q: error %v (%T), want the reference's %v", name, c.p, c.q, err, err, badErrs[i])
				}
			}
			pack("after the malformed pairs")
		}
	}
}

// TestEngineTracebackEquivalence goes through the public engines, whose
// Alignment includes the recovered traceback strings — the "identical
// tracebacks" clause of the oracle contract.
func TestEngineTracebackEquivalence(t *testing.T) {
	gen := seqgen.NewDNA(14)
	p, q, err := gen.MutatedPair(9, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, gating := range []int{0, 3} {
		opts := []racelogic.Option{}
		if gating > 0 {
			opts = append(opts, racelogic.WithClockGating(gating))
		}
		ref, err := racelogic.NewDNAEngine(len(p), len(q), opts...)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := racelogic.NewDNAEngine(len(p), len(q), append(opts, racelogic.WithBackend(racelogic.BackendLanes))...)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := ref.Align(p, q)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := fast.Align(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, fa) {
			t.Fatalf("gating %d: alignments differ\ncycle: %+v\nlanes: %+v", gating, ra, fa)
		}
	}

	pgen := seqgen.NewProtein(15)
	pp, pq := pgen.Random(4), pgen.Random(4)
	pref, err := racelogic.NewProteinEngine(4, 4, "BLOSUM62")
	if err != nil {
		t.Fatal(err)
	}
	pfast, err := racelogic.NewProteinEngine(4, 4, "BLOSUM62", racelogic.WithBackend(racelogic.BackendLanes))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := pref.Align(pp, pq)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := pfast.Align(pp, pq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, fa) {
		t.Fatalf("protein alignments differ\ncycle: %+v\nlanes: %+v", ra, fa)
	}
}

// mixedEntries builds a deterministic variable-length DNA collection, so
// the database exercises several engine shapes at once.
func mixedEntries(seed int64, count int) []string {
	gen := seqgen.NewDNA(seed)
	rng := rand.New(rand.NewSource(seed + 1))
	entries := make([]string, count)
	for i := range entries {
		entries[i] = gen.Random(3 + rng.Intn(9))
	}
	return entries
}

// normalizeReport clears the fields legitimately allowed to differ
// across backends and shard counts: EnginesBuilt depends on pool-hit
// timing, nothing else may.
func normalizeReport(r *racelogic.SearchReport) *racelogic.SearchReport {
	c := *r
	c.EnginesBuilt = 0
	return &c
}

// TestDatabaseEquivalence is the end-to-end oracle: whole databases
// under {cycle, lanes} × {1, 3 shards} × {plain, gated, seeded,
// protein} configurations must produce byte-identical SearchReports
// modulo EnginesBuilt.
func TestDatabaseEquivalence(t *testing.T) {
	entries := mixedEntries(21, 16)
	queries := []string{"ACGTACG", "TTTT", "GATTACA"}

	protEntries := []string{"ARND", "CQEGH", "ILKM", "FPST", "WYVA", "RNDCQ"}
	protQueries := []string{"ARNE", "WYV"}

	type variant struct {
		name    string
		entries []string
		queries []string
		opts    []racelogic.Option
	}
	variants := []variant{
		{"plain", entries, queries, nil},
		{"threshold", entries, queries, []racelogic.Option{racelogic.WithThreshold(6)}},
		{"gated", entries, queries, []racelogic.Option{racelogic.WithClockGating(2)}},
		{"seeded", entries, queries, []racelogic.Option{racelogic.WithSeedIndex(3)}},
		{"protein", protEntries, protQueries, []racelogic.Option{racelogic.WithMatrix("BLOSUM62")}},
	}
	if testing.Short() {
		variants = variants[:2]
	}
	shardCounts := []int{1, 3}

	for _, v := range variants {
		// want[qi] is the baseline report from the first combination
		// (1 shard, cycle backend); every other combination must match
		// it query for query.
		var want []*racelogic.SearchReport
		for _, shards := range shardCounts {
			for _, backend := range []racelogic.Backend{racelogic.BackendCycle, racelogic.BackendLanes} {
				opts := append([]racelogic.Option{
					racelogic.WithShards(shards),
					racelogic.WithBackend(backend),
					racelogic.WithWorkers(2),
				}, v.opts...)
				d, err := racelogic.NewDatabase(v.entries, opts...)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if got := d.Backend(); got != backend {
					t.Fatalf("%s: Backend() = %v, want %v", v.name, got, backend)
				}
				var got []*racelogic.SearchReport
				for _, q := range v.queries {
					rep, err := d.Search(q)
					if err != nil {
						t.Fatalf("%s (%d shards, %v): %v", v.name, shards, backend, err)
					}
					got = append(got, normalizeReport(rep))
				}
				if want == nil {
					want = got
					continue
				}
				for qi := range got {
					if !reflect.DeepEqual(want[qi], got[qi]) {
						t.Fatalf("%s query %q: report differs at %d shards/%v:\nwant %+v\ngot  %+v",
							v.name, v.queries[qi], shards, backend, want[qi], got[qi])
					}
				}
			}
		}
	}
}

// FuzzLockstepEquivalence feeds raw bytes through the shared
// netlist/script decoder and requires the lanes engine, every lane
// driven in lockstep through the scalar circuit.Backend contract, to
// agree with the reference on every case the fuzzer invents.
func FuzzLockstepEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 7, 3, 9, 200, 4, 4, 4, 250, 0, 13})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 64)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		if err := oracle.CheckBytes(data); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzLanesBackendEquivalence feeds raw bytes through the word-parallel
// decoder: every fuzz case packs divergent candidates into one lanes
// simulation and checks each lane against its own cycle-accurate
// reference.
func FuzzLanesBackendEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 30, 7, 0, 8, 1, 9, 2, 3, 0, 0, 170, 85, 4, 2, 5, 7, 0, 255})
	f.Add([]byte("pack sixty-four candidates into one settle wave"))
	for seed := int64(100); seed < 108; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 96)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		if err := oracle.CheckLanesBytes(data); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzSymbolLoadEquivalence feeds raw bytes through the symbol-load
// decoder: every fuzz case plans a random uniform grid and requires the
// tabulated load to match the per-pin one in every lane.
func FuzzSymbolLoadEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 4, 4, 2, 1, 0, 7, 0, 0, 1, 1, 3, 2, 2, 9, 1, 0, 2, 0, 255, 3})
	f.Add([]byte("tabulate the symbol load of a uniform grid"))
	for seed := int64(200); seed < 208; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 128)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		if err := oracle.CheckSymbolLoadBytes(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLaneArmingCases pins the lanes engine's pending-edge arming rule
// on fixed netlists, at 64 and 256 lanes, lane by lane against the
// cycle-accurate reference (CheckLaneEquivalence), and checks on the
// reference that each case exercises the behavior it names.  Lanes 0,
// 2, 4 and 6 of the eight checked candidates are driven, the rest stay
// idle.
func TestLaneArmingCases(t *testing.T) {
	const driven = 0x55 // candidates 0, 2, 4, 6
	type armCase struct {
		name   string
		build  func(nl *circuit.Netlist) (inputs []circuit.Net, probe circuit.Net)
		script []oracle.LaneOp
		// want is the probe's arrival in a driven candidate.
		want temporal.Time
	}
	set := func(input int, word uint64) oracle.LaneOp { return oracle.LaneOp{Kind: 0, Input: input, Word: word} }
	step := oracle.LaneOp{Kind: 1}
	for _, tc := range []armCase{
		{
			// D moves while the enable is low: the slot joins the pending
			// edge, flips nothing and drops off, then rejoins when the
			// enable rises and flips on the first edge after it.
			name: "DFFE flips on the first edge after its enable rises",
			build: func(nl *circuit.Netlist) ([]circuit.Net, circuit.Net) {
				d, en := nl.Input("d"), nl.Input("en")
				return []circuit.Net{d, en}, nl.DFFE(d, en)
			},
			script: []oracle.LaneOp{set(0, driven), step, step, step, set(1, driven), step, step},
			want:   4,
		},
		{
			name: "a delay chain advances one stage per edge",
			build: func(nl *circuit.Netlist) ([]circuit.Net, circuit.Net) {
				in := nl.Input("in")
				return []circuit.Net{in}, nl.DelayChain(in, 5)
			},
			script: []oracle.LaneOp{step, set(0, driven), step, step, step, step, step, step},
			want:   6,
		},
		{
			// D rises and falls back within one cycle: the slot is pending
			// at the edge but has nothing to flip.  Its D rises again two
			// cycles later and the flip lands on the next edge.
			name: "a D that rises and falls back before an edge does not flip",
			build: func(nl *circuit.Netlist) ([]circuit.Net, circuit.Net) {
				d := nl.Input("d")
				return []circuit.Net{d}, nl.DFF(d)
			},
			script: []oracle.LaneOp{set(0, driven), set(0, 0), step, step, set(0, driven), step, step},
			want:   3,
		},
	} {
		for _, words := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%d lanes", tc.name, words*64), func(t *testing.T) {
				nl := circuit.New()
				inputs, probe := tc.build(nl)
				if err := oracle.CheckLaneEquivalence(nl, inputs, tc.script, 8, words); err != nil {
					t.Fatal(err)
				}
				ref, err := nl.Compile()
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range tc.script {
					if op.Kind == 0 {
						ref.SetInput(inputs[op.Input], op.Word&1 != 0)
					} else {
						ref.Step()
					}
				}
				if got := ref.Arrival(probe); got != tc.want {
					t.Fatalf("reference probe arrives at %v, want %v: the case no longer exercises its rule", got, tc.want)
				}
			})
		}
	}

	// Lanes frozen mid-pack keep their stop-cycle activity: a gated
	// counter races each lane to its own target, so the lanes freeze at
	// different cycles while the pack keeps stepping, and every lane's
	// stop cycle, arrivals and Activity must equal a solo race's.
	for _, words := range []int{1, 4} {
		t.Run(fmt.Sprintf("frozen lanes keep their stop-cycle activity/%d lanes", words*64), func(t *testing.T) {
			const bits, maxCycles = 4, 20
			build := func() (*circuit.Netlist, circuit.Net, []circuit.Net, circuit.Net) {
				nl := circuit.New()
				en := nl.Input("en")
				tpins := make([]circuit.Net, bits)
				for i := range tpins {
					tpins[i] = nl.Input(fmt.Sprintf("t%d", i))
				}
				q := nl.SatCounter(bits, en)
				match := []circuit.Net{en}
				for i := range q {
					match = append(match, nl.Xnor(q[i], tpins[i]))
				}
				// A DFFE gated by the match keeps an enable net moving as
				// lanes finish.
				hit := nl.And(match...)
				return nl, en, tpins, nl.Or(hit, nl.DFFE(hit, hit))
			}
			nl, en, tpins, out := build()
			ls, err := lanes.CompileWords(nl, words)
			if err != nil {
				t.Fatal(err)
			}
			width := words * lanes.WordBits
			targets := map[int]uint64{0: 3, 1: 9, 17: 1, 40: 15, width - 1: 6, width / 2: 0}
			mask := make([]uint64, words)
			for l := range targets {
				mask[l>>6] |= 1 << uint(l&63)
			}
			ls.SetActiveLanes(mask)
			ws := make([]uint64, words)
			for i, pin := range tpins {
				clear(ws)
				for l, target := range targets {
					if target>>uint(i)&1 != 0 {
						ws[l>>6] |= 1 << uint(l&63)
					}
				}
				ls.SetInputWords(pin, ws)
			}
			ls.SetInputWords(en, mask)
			ls.RaceUntil(out, maxCycles)
			stops := map[int]bool{}
			for l, target := range targets {
				ref, err := nl.Compile()
				if err != nil {
					t.Fatal(err)
				}
				for i, pin := range tpins {
					ref.SetInput(pin, target>>uint(i)&1 != 0)
				}
				ref.SetInput(en, true)
				ref.RunUntil(out, maxCycles)
				stops[ref.Cycle()] = true
				if got := ls.LaneCycle(l); got != ref.Cycle() {
					t.Fatalf("lane %d (target %d): stopped at cycle %d, reference at %d", l, target, got, ref.Cycle())
				}
				for n := 0; n < nl.NumNets(); n++ {
					if got, want := ls.LaneArrival(circuit.Net(n), l), ref.Arrival(circuit.Net(n)); got != want {
						t.Fatalf("lane %d net %d: arrival %v, reference %v", l, n, got, want)
					}
				}
				if got, want := ls.LaneActivity(l), ref.Activity(); !reflect.DeepEqual(got, want) {
					t.Fatalf("lane %d (target %d): activity\n got %+v\nwant %+v", l, target, got, want)
				}
			}
			if len(stops) < 4 {
				t.Fatalf("lanes stopped at only %d distinct cycles, want lanes frozen mid-pack", len(stops))
			}
		})
	}
}
