package async

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"racelogic/internal/dag"
	"racelogic/internal/race"
	"racelogic/internal/temporal"
)

// agreeAcrossDomains races one DAG in all three simulation domains —
// the continuous-time analog model (this package), the cycle-accurate
// synchronous simulator, and the lanes synchronous backend — and
// requires identical arrival times everywhere.  With nominal delays the
// analog domain quantizes exactly onto cycles, so the three must agree
// node for node, and the two synchronous backends must also agree on
// cycle counts and the full activity report.
func agreeAcrossDomains(t *testing.T, g *dag.Graph, gateType race.GateType, kind NodeKind) {
	t.Helper()

	// Watch every node: the analog race runs to quiescence, so the
	// synchronous solvers must keep racing past the sinks too.
	watch := make([]dag.NodeID, g.NumNodes())
	for v := range watch {
		watch[v] = dag.NodeID(v)
	}

	cyc, err := race.FromDAG(g, gateType)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := cyc.Solve(watch...)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := race.FromDAG(g, gateType)
	if err != nil {
		t.Fatal(err)
	}
	ln.SetBackend(race.BackendLanes)
	lres, err := ln.Solve(watch...)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Cycles != lres.Cycles {
		t.Fatalf("%v: cycle count %d (cycle) vs %d (lanes)", gateType, cres.Cycles, lres.Cycles)
	}
	if !reflect.DeepEqual(cres.Arrival, lres.Arrival) {
		t.Fatalf("%v: arrivals differ between backends:\ncycle: %v\nlanes: %v", gateType, cres.Arrival, lres.Arrival)
	}
	if !reflect.DeepEqual(cres.Activity, lres.Activity) {
		t.Fatalf("%v: activity differs between backends:\ncycle: %+v\nlanes: %+v", gateType, cres.Activity, lres.Activity)
	}

	ac, _, err := FromDAG(g, kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := ac.Program(rand.New(rand.NewSource(1)), 0); err != nil {
		t.Fatal(err)
	}
	ares := ac.Race()
	for v := 0; v < g.NumNodes(); v++ {
		analog := ares.Arrival[v]
		sync := cres.Arrival[dag.NodeID(v)]
		if sync.IsNever() {
			if !math.IsInf(analog, 1) {
				t.Fatalf("%v node %d: synchronous never fires, analog fires at %v", gateType, v, analog)
			}
			continue
		}
		if analog != float64(sync) {
			t.Fatalf("%v node %d: analog %v vs synchronous %v", gateType, v, analog, sync)
		}
	}
}

// TestThreeDomainFig3 pins the paper's Fig. 3 example across all three
// simulation domains.
func TestThreeDomainFig3(t *testing.T) {
	g, _ := fig3Graph()
	agreeAcrossDomains(t, g, race.ORType, MinNode)
	agreeAcrossDomains(t, g, race.ANDType, MaxNode)
}

// positiveLayeredDAG builds a random layered DAG whose weights are all
// strictly positive — dag.RandomDAG's zero-weight source/sink wiring is
// not representable as an analog delay element, so the cross-domain
// fixtures roll their own.
func positiveLayeredDAG(rng *rand.Rand, layers, width int, density float64) *dag.Graph {
	g := dag.New()
	ids := make([][]dag.NodeID, layers)
	for l := range ids {
		ids[l] = make([]dag.NodeID, width)
		for w := range ids[l] {
			ids[l][w] = g.AddNode("")
		}
	}
	for l := 0; l < layers-1; l++ {
		for _, from := range ids[l] {
			connected := false
			for _, to := range ids[l+1] {
				if rng.Float64() < density {
					g.MustAddEdge(from, to, temporal.Time(1+rng.Intn(5)))
					connected = true
				}
			}
			if !connected {
				g.MustAddEdge(from, ids[l+1][rng.Intn(width)], temporal.Time(1+rng.Intn(5)))
			}
		}
	}
	return g
}

// TestThreeDomainRandomDAGs sweeps random layered DAGs through every
// domain pair, min and max semantics alike.
func TestThreeDomainRandomDAGs(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for seed := 0; seed < trials; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := positiveLayeredDAG(rng, 2+rng.Intn(3), 2+rng.Intn(3), 0.3+rng.Float64()*0.6)
		agreeAcrossDomains(t, g, race.ORType, MinNode)
		agreeAcrossDomains(t, g, race.ANDType, MaxNode)
	}
}

// TestThreeDomainSparseNeverEdges checks the unreachable-node contract —
// temporal.Never edges compile to missing devices in every domain, and
// AND-semantics nodes behind them never fire anywhere.
func TestThreeDomainSparseNeverEdges(t *testing.T) {
	g := dag.New()
	src := g.AddNode("src")
	mid := g.AddNode("mid")
	cut := g.AddNode("cut")
	dst := g.AddNode("dst")
	g.MustAddEdge(src, mid, 2)
	g.MustAddEdge(src, cut, temporal.Never)
	g.MustAddEdge(mid, dst, 3)
	g.MustAddEdge(cut, dst, 1)
	agreeAcrossDomains(t, g, race.ORType, MinNode)
	agreeAcrossDomains(t, g, race.ANDType, MaxNode)
}
