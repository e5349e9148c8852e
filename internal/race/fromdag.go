package race

import (
	"fmt"
	"sort"

	"racelogic/internal/circuit"
	"racelogic/internal/dag"
	"racelogic/internal/temporal"
)

// GateType selects which race the compiled circuit runs.
type GateType int

// The two Section 3 circuit families.
const (
	// ORType replaces nodes with OR gates: the first arriving edge wins,
	// computing shortest paths (min-plus).
	ORType GateType = iota
	// ANDType replaces nodes with AND gates: the last arriving edge
	// wins, computing longest paths (max-plus).  A node with an
	// unreachable predecessor never fires — the physical AND-gate
	// semantics.
	ANDType
)

// String names the gate type.
func (g GateType) String() string {
	if g == ORType {
		return "OR-type"
	}
	return "AND-type"
}

// Solver is a DAG compiled to a race circuit, ready to run.
type Solver struct {
	gateType GateType
	graph    *dag.Graph
	netlist  *circuit.Netlist
	backend  Backend
	inputs   map[dag.NodeID]circuit.Net // input pin per source node
	nodeNet  []circuit.Net              // output net of each node's gate
	bound    int                        // safe cycle bound for RunUntil
}

// FromDAG compiles g into a race circuit of the given type.  Sources
// (nodes with no incoming edges) become input pins; every other node
// becomes an OR or AND gate over its delayed incoming edges.  A
// temporal.Never edge weight compiles to no connection at all, exactly as
// the paper implements truly infinite weights.
func FromDAG(g *dag.Graph, gateType GateType) (*Solver, error) {
	if _, err := g.TopoSort(); err != nil {
		return nil, fmt.Errorf("race: %w", err)
	}
	n := circuit.New()
	s := &Solver{
		gateType: gateType,
		graph:    g,
		netlist:  n,
		inputs:   make(map[dag.NodeID]circuit.Net),
		nodeNet:  make([]circuit.Net, g.NumNodes()),
	}
	order, _ := g.TopoSort()
	var weightSum temporal.Time
	for _, v := range order {
		in := g.In(v)
		if len(in) == 0 {
			pin := n.Input(fmt.Sprintf("src_%d", v))
			s.inputs[v] = pin
			s.nodeNet[v] = pin
			continue
		}
		var terms []circuit.Net
		for _, e := range in {
			if e.Weight == temporal.Never {
				continue // an infinite weight is a missing edge
			}
			if e.Weight < 0 {
				return nil, fmt.Errorf("race: negative edge weight %v on %d->%d cannot be a delay",
					e.Weight, e.From, e.To)
			}
			weightSum = weightSum.Add(e.Weight)
			terms = append(terms, n.DelayChain(s.nodeNet[e.From], int(e.Weight)))
		}
		switch {
		case len(terms) == 0:
			// All edges were infinite: the node can never fire.
			s.nodeNet[v] = circuit.Zero
		case gateType == ORType:
			s.nodeNet[v] = n.Or(terms...)
		default:
			s.nodeNet[v] = n.And(terms...)
		}
	}
	if weightSum == temporal.Never || weightSum > 1<<30 {
		return nil, fmt.Errorf("race: total edge weight too large to race (%v cycles)", weightSum)
	}
	s.bound = int(weightSum) + 2
	return s, nil
}

// Netlist exposes the compiled circuit for area/energy accounting.
func (s *Solver) Netlist() *circuit.Netlist { return s.netlist }

// SetBackend selects the simulation engine future Solve calls run on.
func (s *Solver) SetBackend(b Backend) { s.backend = b.Resolve() }

// Result holds the outcome of one race.
type Result struct {
	// Arrival[v] is the cycle at which node v's gate fired, or
	// temporal.Never if it never did within the simulation bound.
	Arrival []temporal.Time
	// Cycles is the number of cycles simulated.
	Cycles int
	// Activity is the toggle/clock report for energy analysis.
	Activity circuit.Activity
}

// Solve injects a steady "1" at every source node and races until every
// watched node fires or the weight-sum bound is exhausted, returning
// per-node arrival times.  With no watch list it runs until the graph's
// sinks fire.
func (s *Solver) Solve(watch ...dag.NodeID) (*Result, error) {
	sim, err := compileBackend(s.netlist, s.backend, 1)
	if err != nil {
		return nil, fmt.Errorf("race: %w", err)
	}
	sources := make([]dag.NodeID, 0, len(s.inputs))
	for v := range s.inputs {
		sources = append(sources, v)
	}
	sort.Slice(sources, func(a, b int) bool { return sources[a] < sources[b] })
	for _, v := range sources {
		sim.SetInput(s.inputs[v], true)
	}
	if len(watch) == 0 {
		watch = s.graph.Sinks()
	}
	for _, v := range watch {
		if int(v) < 0 || int(v) >= len(s.nodeNet) {
			return nil, fmt.Errorf("race: watch node %d out of range", v)
		}
		sim.RunUntil(s.nodeNet[v], s.bound)
	}
	res := &Result{
		Arrival: make([]temporal.Time, len(s.nodeNet)),
		Cycles:  sim.Cycle(),
	}
	for v, net := range s.nodeNet {
		res.Arrival[v] = sim.Arrival(net)
	}
	res.Activity = sim.Activity()
	return res, nil
}

// ShortestPath races an OR-type circuit and returns the arrival time at
// dst — the shortest-path weight from the graph's sources — or
// temporal.Never if dst is unreachable.
func ShortestPath(g *dag.Graph, dst dag.NodeID) (temporal.Time, error) {
	s, err := FromDAG(g, ORType)
	if err != nil {
		return temporal.Never, err
	}
	res, err := s.Solve(dst)
	if err != nil {
		return temporal.Never, err
	}
	return res.Arrival[dst], nil
}

// LongestPath races an AND-type circuit and returns the arrival time at
// dst — the longest-path weight from the graph's sources under physical
// AND semantics (any unreachable ancestor keeps the gate from ever
// firing).
func LongestPath(g *dag.Graph, dst dag.NodeID) (temporal.Time, error) {
	s, err := FromDAG(g, ANDType)
	if err != nil {
		return temporal.Never, err
	}
	res, err := s.Solve(dst)
	if err != nil {
		return temporal.Never, err
	}
	return res.Arrival[dst], nil
}
