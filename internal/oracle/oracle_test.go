package oracle_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"racelogic"
	"racelogic/internal/oracle"
	"racelogic/internal/race"
	"racelogic/internal/score"
	"racelogic/internal/seqgen"
	"racelogic/internal/temporal"
)

// TestNetlistEquivalence is the core property suite: random netlists
// under random stimulus, every backend compared against the reference
// observable-by-observable after every operation.
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
// shape on different backends) and requires identical AlignResults.
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
			t.Fatalf("%s case %d: error disagreement: cycle %v, event %v", name, i, rerr, ferr)
		}
		if rerr != nil {
			continue
		}
		if !reflect.DeepEqual(rres, fres) {
			t.Fatalf("%s case %d (%q vs %q, thr %d): results differ\ncycle: %+v\nevent: %+v",
				name, i, c.p, c.q, c.threshold, rres, fres)
		}
	}
}

// fastBackends are the candidate engines the array-level differential
// suites run against the cycle-accurate reference.
var fastBackends = []race.Backend{race.BackendEvent, race.BackendLanes}

// TestArrayEquivalence races the plain DNA array under every backend on
// a mixed workload and requires bit-identical results, reusing each
// array across races exactly like the search pipeline does.
func TestArrayEquivalence(t *testing.T) {
	gen := seqgen.NewDNA(11)
	shapes := [][2]int{{1, 1}, {3, 5}, {8, 8}, {12, 7}}
	for _, s := range shapes {
		for _, backend := range fastBackends {
			ref, err := race.NewArray(s[0], s[1])
			if err != nil {
				t.Fatal(err)
			}
			fast, err := race.NewArray(s[0], s[1])
			if err != nil {
				t.Fatal(err)
			}
			fast.SetBackend(backend)
			runCases(t, "array/"+backend.String(), alignCases(t, gen, s[0], s[1]), ref, fast)
		}
	}
}

// TestGatedArrayEquivalence covers the clock-gated fabric, where the
// fast backends must track enable nets and the per-region DFFE clock
// accounting exactly.
func TestGatedArrayEquivalence(t *testing.T) {
	gen := seqgen.NewDNA(12)
	for _, region := range []int{1, 2, 4} {
		for _, backend := range fastBackends {
			ref, err := race.NewGatedArray(6, 9, region)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := race.NewGatedArray(6, 9, region)
			if err != nil {
				t.Fatal(err)
			}
			fast.SetBackend(backend)
			runCases(t, "gated/"+backend.String(), alignCases(t, gen, 6, 9), ref, fast)
		}
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
		for _, backend := range fastBackends {
			ref, err := race.NewGeneralArray(n, m, prepared, enc)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := race.NewGeneralArray(n, m, prepared, enc)
			if err != nil {
				t.Fatal(err)
			}
			fast.SetBackend(backend)
			p, q := gen.RandomPair(n)
			if m != n {
				q = gen.Random(m)
			}
			runCases(t, "general/"+enc.String()+"/"+backend.String(), []alignCase{
				{p, q, -1},
				{p, q, 20},
				{p, gen.Random(m), -1},
			}, ref, fast)
		}
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

	for _, tc := range []struct {
		n, m, width, pack int
		threshold         int64
	}{
		{5, 4, 64, 64, -1},   // one full word of distinct queries
		{4, 6, 128, 65, -1},  // one lane into the second word
		{6, 5, 256, 200, -1}, // ends inside the fourth word
		{4, 4, 256, 256, -1}, // full four-word pack
		{5, 6, 128, 100, 8},  // thresholded: some lanes reject
	} {
		lanesArr, err := race.NewArray(tc.n, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		lanesArr.SetBackend(race.BackendLanes)
		if err := lanesArr.SetLaneWidth(tc.width); err != nil {
			t.Fatal(err)
		}
		ref, err := race.NewArray(tc.n, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		ps := make([]string, tc.pack)
		qs := make([]string, tc.pack)
		for i := range qs {
			ps[i] = gen.Random(tc.n)
			qs[i] = gen.Random(tc.m)
		}
		got, err := lanesArr.AlignLanesMulti(ps, qs, temporal.Time(tc.threshold))
		if err != nil {
			t.Fatalf("AlignLanesMulti(%dx%d, width %d, pack %d): %v", tc.n, tc.m, tc.width, tc.pack, err)
		}
		if len(got) != tc.pack {
			t.Fatalf("AlignLanesMulti returned %d results, want %d", len(got), tc.pack)
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
				t.Fatalf("multi shape %dx%d width %d pack %d lane %d (%q vs %q, thr %d): results differ\ncycle: %+v\nlanes: %+v",
					tc.n, tc.m, tc.width, tc.pack, i, ps[i], qs[i], tc.threshold, want, got[i])
			}
		}
		if tc.threshold >= 0 && (rejected == 0 || rejected == tc.pack) {
			t.Fatalf("multi shape %dx%d thr %d: %d of %d lanes rejected, want a mix", tc.n, tc.m, tc.threshold, rejected, tc.pack)
		}
	}
}

// TestAlignLanesErrors pins the pack path's error contract: a bad
// symbol in lane k surfaces as a LaneError carrying k and the same
// underlying error a scalar Align would return, before any engine state
// is touched.
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
	scalar, err := race.NewArray(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scalar.AlignLanes("ACG", []string{"ACGT"}, -1); err == nil {
		t.Fatal("AlignLanes on non-lanes backend: want error")
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
		fast, err := racelogic.NewDNAEngine(len(p), len(q), append(opts, racelogic.WithBackend(racelogic.BackendEvent))...)
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
			t.Fatalf("gating %d: alignments differ\ncycle: %+v\nevent: %+v", gating, ra, fa)
		}
	}

	pgen := seqgen.NewProtein(15)
	pp, pq := pgen.Random(4), pgen.Random(4)
	pref, err := racelogic.NewProteinEngine(4, 4, "BLOSUM62")
	if err != nil {
		t.Fatal(err)
	}
	pfast, err := racelogic.NewProteinEngine(4, 4, "BLOSUM62", racelogic.WithBackend(racelogic.BackendEvent))
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
		t.Fatalf("protein alignments differ\ncycle: %+v\nevent: %+v", ra, fa)
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
// under {cycle, event, lanes} × {1, 3 shards} × {plain, gated, seeded,
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
			for _, backend := range []racelogic.Backend{racelogic.BackendCycle, racelogic.BackendEvent, racelogic.BackendLanes} {
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

// FuzzEventBackendEquivalence feeds raw bytes through the shared
// netlist/script decoder and requires backend agreement on every case
// the fuzzer invents.
func FuzzEventBackendEquivalence(f *testing.F) {
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
