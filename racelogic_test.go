package racelogic

import (
	"bytes"
	"encoding/json"
	"testing"

	"racelogic/internal/eval"
	"racelogic/internal/race"
	"racelogic/internal/seqgen"
)

// TestBackendEventAlias pins "event" as a spelling of the lanes engine.
// Each entry point that takes a backend selects lanes for BackendEvent,
// so what it reports (Backend) and races (LaneWidth) is what it does
// for BackendLanes; the constant keeps its "event" name; and a database
// built as event returns reports byte-identical to a lanes one.
func TestBackendEventAlias(t *testing.T) {
	if got := BackendEvent.String(); got != "event" {
		t.Fatalf("BackendEvent.String() = %q, want \"event\"", got)
	}
	g := seqgen.NewDNA(5)
	entries := g.Database(40, 8)
	newArray := func(b Backend) *race.Array {
		a, err := race.NewArray(4, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SetLaneWidth(256); err != nil {
			t.Fatal(err)
		}
		a.SetBackend(b)
		return a
	}
	type selected struct {
		backend Backend
		width   int
	}
	for _, c := range []struct {
		entry  string
		choose func(b Backend) selected
	}{
		{"ParseBackend", func(b Backend) selected {
			parsed, err := ParseBackend(b.String())
			if err != nil {
				t.Fatal(err)
			}
			return selected{parsed, newArray(parsed).LaneWidth()}
		}},
		{"WithBackend", func(b Backend) selected {
			d, err := NewDatabase(entries, WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewDNAEngine(4, 5, WithBackend(b), WithLaneWidth(256))
			if err != nil {
				t.Fatal(err)
			}
			return selected{d.Backend(), e.arr.LaneWidth()}
		}},
		{"SetBackend", func(b Backend) selected {
			// An Array reports no backend; its lane width shows which
			// engine it races on.
			return selected{BackendLanes, newArray(b).LaneWidth()}
		}},
		{"eval.SetBackend", func(b Backend) selected {
			defer eval.SetBackend(BackendCycle)
			if err := eval.SetBackend(b); err != nil {
				t.Fatal(err)
			}
			return selected{eval.Backend(), newArray(eval.Backend()).LaneWidth()}
		}},
	} {
		got, want := c.choose(BackendEvent), c.choose(BackendLanes)
		if got != want || want != (selected{BackendLanes, 256}) {
			t.Errorf("%s: event selects %+v, lanes %+v, want both {lanes 256}", c.entry, got, want)
		}
	}

	queries := []string{entries[3], g.Random(8), g.Random(7)}
	reports := func(b Backend) []byte {
		d, err := NewDatabase(entries, WithBackend(b), WithShards(2), WithSeedIndex(3))
		if err != nil {
			t.Fatal(err)
		}
		var reps []*SearchReport
		for _, q := range queries {
			for _, opts := range [][]Option{nil, {WithFullScan(), WithThreshold(5)}} {
				rep, err := d.Search(q, opts...)
				if err != nil {
					t.Fatal(err)
				}
				rep.EnginesBuilt = 0
				reps = append(reps, rep)
			}
		}
		out, err := json.Marshal(reps)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if ev, ln := reports(BackendEvent), reports(BackendLanes); !bytes.Equal(ev, ln) {
		t.Fatalf("database built as event reports differ from lanes':\nevent: %s\nlanes: %s", ev, ln)
	}
}

func TestDNAEngineBasicAlign(t *testing.T) {
	e, err := NewDNAEngine(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 1/Fig. 4 example pair scores 10.
	a, err := e.Align("ACTGAGA", "GATTCGA")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Found || a.Score != 10 {
		t.Errorf("Found=%v Score=%d, want true/10", a.Found, a.Score)
	}
	if a.Metrics.Cycles == 0 || a.Metrics.LatencyNS <= 0 || a.Metrics.EnergyJ <= 0 ||
		a.Metrics.AreaUM2 <= 0 || a.Metrics.PowerDensityWCM2 <= 0 {
		t.Errorf("metrics not populated: %+v", a.Metrics)
	}
	if a.TimingMatrix[0][0] != 0 || a.TimingMatrix[7][7] != 10 {
		t.Errorf("timing matrix corners: %d, %d", a.TimingMatrix[0][0], a.TimingMatrix[7][7])
	}
}

func TestDNAEngineTracebackRows(t *testing.T) {
	e, err := NewDNAEngine(7, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Align("ACTGAGA", "GATTCGA")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.AlignedP) == 0 || len(a.AlignedP) != len(a.AlignedQ) {
		t.Fatalf("aligned rows %q/%q", a.AlignedP, a.AlignedQ)
	}
	strip := func(s string) string {
		out := ""
		for _, c := range s {
			if c != '_' {
				out += string(c)
			}
		}
		return out
	}
	if strip(a.AlignedP) != "ACTGAGA" || strip(a.AlignedQ) != "GATTCGA" {
		t.Errorf("aligned rows %q/%q do not spell the inputs", a.AlignedP, a.AlignedQ)
	}
	// An aborted threshold race has no path to trace.
	et, err := NewDNAEngine(7, 7, WithThreshold(8))
	if err != nil {
		t.Fatal(err)
	}
	miss, err := et.Align("AAAAAAA", "TTTTTTT")
	if err != nil {
		t.Fatal(err)
	}
	if miss.AlignedP != "" || miss.AlignedQ != "" {
		t.Error("aborted race must not report an alignment path")
	}
}

func TestDNAEngineIdenticalAndDisjoint(t *testing.T) {
	e, err := NewDNAEngine(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	same, err := e.Align("ACTGA", "ACTGA")
	if err != nil {
		t.Fatal(err)
	}
	diff, err := e.Align("AAAAA", "TTTTT")
	if err != nil {
		t.Fatal(err)
	}
	if same.Score != 5 || diff.Score != 10 {
		t.Errorf("scores %d/%d, want 5/10", same.Score, diff.Score)
	}
	if same.Metrics.EnergyJ >= diff.Metrics.EnergyJ {
		t.Error("the best case must cost less energy than the worst case")
	}
}

func TestDNAEngineThreshold(t *testing.T) {
	e, err := NewDNAEngine(8, 8, WithThreshold(10))
	if err != nil {
		t.Fatal(err)
	}
	miss, err := e.Align("AAAAAAAA", "TTTTTTTT") // score 16 > 10
	if err != nil {
		t.Fatal(err)
	}
	if miss.Found {
		t.Error("dissimilar pair must not be Found under threshold")
	}
	if miss.Score != Never {
		t.Error("cut-off score must be Never")
	}
	if miss.Metrics.Cycles > 11 {
		t.Errorf("threshold run took %d cycles, want ≤ 11", miss.Metrics.Cycles)
	}
	hit, err := e.Align("ACTGACTG", "ACTGACTG") // score 8 ≤ 10
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Found || hit.Score != 8 {
		t.Errorf("similar pair: Found=%v Score=%d", hit.Found, hit.Score)
	}
}

func TestDNAEngineClockGating(t *testing.T) {
	plain, err := NewDNAEngine(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := NewDNAEngine(10, 10, WithClockGating(4))
	if err != nil {
		t.Fatal(err)
	}
	p, q := "AAAAAAAAAA", "TTTTTTTTTT"
	rp, err := plain.Align(p, q)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := gated.Align(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Score != rg.Score {
		t.Errorf("gating changed the score: %d vs %d", rp.Score, rg.Score)
	}
	if rg.Metrics.EnergyJ >= rp.Metrics.EnergyJ {
		t.Errorf("gated energy %g must beat ungated %g on the worst case",
			rg.Metrics.EnergyJ, rp.Metrics.EnergyJ)
	}
}

// Gating and thresholding used to be mutually exclusive; they now
// compose (gating never changes arrival times, so the early-exit
// decision is unaffected).  search_test.go checks score equivalence
// against the ungated thresholded engine; this pins the basic behavior.
func TestDNAEngineGatingPlusThreshold(t *testing.T) {
	e, err := NewDNAEngine(4, 4, WithClockGating(2), WithThreshold(5))
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Align("ACTG", "ACTG")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Found || a.Score != 4 {
		t.Errorf("identical pair: found %v score %d, want found score 4", a.Found, a.Score)
	}
	miss, err := e.Align("AAAA", "TTTT") // true score 8 > threshold 5
	if err != nil {
		t.Fatal(err)
	}
	if miss.Found {
		t.Errorf("dissimilar pair must be cut off, got score %d", miss.Score)
	}
	if miss.Metrics.Cycles != 6 {
		t.Errorf("cut-off race ran %d cycles, want threshold+1 = 6", miss.Metrics.Cycles)
	}
}

func TestDNAEngineOptionErrors(t *testing.T) {
	if _, err := NewDNAEngine(4, 4, WithLibrary("TSMC")); err == nil {
		t.Error("unknown library must error")
	}
	if _, err := NewDNAEngine(4, 4, WithClockGating(0)); err == nil {
		t.Error("zero region must error")
	}
	// A negative threshold is the disable sentinel, not an error: it is
	// how Database.Search overrides a construction-time default.
	if e, err := NewDNAEngine(4, 4, WithThreshold(-1)); err != nil {
		t.Errorf("WithThreshold(-1) must build an unthresholded engine, got %v", err)
	} else if a, err := e.Align("AAAA", "TTTT"); err != nil || !a.Found {
		t.Errorf("unthresholded engine must finish every race: found=%v err=%v", a != nil && a.Found, err)
	}
	if _, err := NewDNAEngine(0, 4); err == nil {
		t.Error("zero length must error")
	}
}

func TestDNAEngineLibrariesDiffer(t *testing.T) {
	amis, err := NewDNAEngine(6, 6, WithLibrary("AMIS"))
	if err != nil {
		t.Fatal(err)
	}
	osu, err := NewDNAEngine(6, 6, WithLibrary("OSU"))
	if err != nil {
		t.Fatal(err)
	}
	if osu.AreaUM2() >= amis.AreaUM2() {
		t.Error("OSU cells are smaller; area must be below AMIS")
	}
	n, m := amis.Dims()
	if n != 6 || m != 6 {
		t.Error("Dims wrong")
	}
}

func TestProteinEngineBLOSUM62(t *testing.T) {
	e, err := NewProteinEngine(4, 4, "BLOSUM62")
	if err != nil {
		t.Fatal(err)
	}
	same, err := e.Align("WARD", "WARD")
	if err != nil {
		t.Fatal(err)
	}
	diff, err := e.Align("WARD", "GCNP")
	if err != nil {
		t.Fatal(err)
	}
	if !same.Found || !diff.Found {
		t.Fatal("both alignments must complete")
	}
	if same.Score >= diff.Score {
		t.Errorf("identical strings must score lower (more similar): %d vs %d", same.Score, diff.Score)
	}
	if e.MatrixName() == "" {
		t.Error("MatrixName empty")
	}
	if n, m := e.Dims(); n != 4 || m != 4 {
		t.Error("Dims wrong")
	}
	if e.AreaUM2() <= 0 {
		t.Error("area must be positive")
	}
}

func TestProteinEnginePAM250AndOneHot(t *testing.T) {
	bin, err := NewProteinEngine(3, 3, "PAM250")
	if err != nil {
		t.Fatal(err)
	}
	oh, err := NewProteinEngine(3, 3, "PAM250", WithOneHotEncoding())
	if err != nil {
		t.Fatal(err)
	}
	a1, err := bin.Align("WAR", "WAR")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := oh.Align("WAR", "WAR")
	if err != nil {
		t.Fatal(err)
	}
	if a1.Score != a2.Score {
		t.Errorf("encodings disagree: %d vs %d", a1.Score, a2.Score)
	}
	if oh.AreaUM2() <= bin.AreaUM2() {
		t.Error("one-hot arrays must be larger for a wide dynamic range")
	}
}

func TestProteinEngineUnknownMatrix(t *testing.T) {
	if _, err := NewProteinEngine(3, 3, "BLOSUM80"); err == nil {
		t.Error("unknown matrix must error")
	}
}

func TestProteinEngineThreshold(t *testing.T) {
	e, err := NewProteinEngine(4, 4, "BLOSUM62", WithThreshold(20))
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Align("WWWW", "PPPP") // heavy mismatches: way over 20
	if err != nil {
		t.Fatal(err)
	}
	if a.Found {
		t.Error("dissimilar proteins must be cut off")
	}
}

func TestEditDistance(t *testing.T) {
	if EditDistance("kitten", "sitting") != 3 {
		t.Error("EditDistance wrong")
	}
	if EditDistance("", "") != 0 {
		t.Error("empty distance wrong")
	}
}

func TestGraphShortestLongest(t *testing.T) {
	g := NewGraph()
	s := g.AddNode("s")
	a := g.AddNode("a")
	b := g.AddNode("b")
	d := g.AddNode("d")
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(g.AddEdge(s, a, 1))
	check(g.AddEdge(s, b, 5))
	check(g.AddEdge(a, d, 1))
	check(g.AddEdge(b, d, 5))
	short, err := g.ShortestPath(d)
	check(err)
	if short != 2 {
		t.Errorf("shortest = %d, want 2", short)
	}
	long, err := g.LongestPath(d)
	check(err)
	if long != 10 {
		t.Errorf("longest = %d, want 10", long)
	}
}

func TestGraphNeverEdgeAndUnreachable(t *testing.T) {
	g := NewGraph()
	s := g.AddNode("s")
	x := g.AddNode("x")
	if err := g.AddEdge(s, x, Never); err != nil {
		t.Fatal(err)
	}
	got, err := g.ShortestPath(x)
	if err != nil {
		t.Fatal(err)
	}
	if got != Never {
		t.Errorf("unreachable node = %d, want Never", got)
	}
}

func TestGraphAddEdgeValidation(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a")
	if err := g.AddEdge(a, 99, 1); err == nil {
		t.Error("out-of-range edge must error")
	}
}

func TestLibraries(t *testing.T) {
	libs := Libraries()
	if len(libs) != 2 || libs[0] != "AMIS" || libs[1] != "OSU" {
		t.Errorf("Libraries = %v", libs)
	}
}
