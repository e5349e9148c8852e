package racelogic

import (
	"fmt"

	"racelogic/internal/race"
	"racelogic/internal/score"
	"racelogic/internal/tech"
	"racelogic/internal/temporal"
)

// DNAEngine is the paper's synthesized design: the Fig. 4 synchronous
// Race Logic array for DNA global sequence alignment under the Fig. 2b
// score matrix with mismatches promoted to ∞ (match = 1, indel = 1).
// The score of an alignment is the number of matches plus indels on the
// optimal path; identical strings of length N score N, completely
// mismatched ones 2N.
//
// An engine compiles its array once and reuses the same simulator across
// Align calls, so it is not safe for concurrent use: build one engine
// per goroutine (Search does this internally).
type DNAEngine struct {
	cfg  *config
	arr  *race.Array // the Fig. 4 fabric, clock-gated under WithClockGating
	area float64
	n, m int
}

// NewDNAEngine builds an engine for strings of exactly lengths n and m
// (hardware arrays are fixed-size; build one per problem shape).  It
// rejects search-only options such as WithTopK and WithWorkers: a
// single-pair engine has nothing for them to apply to.
func NewDNAEngine(n, m int, opts ...Option) (*DNAEngine, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if name := cfg.firstApplied(searchOnlyOptions...); name != "" {
		return nil, fmt.Errorf("racelogic: %s is a search option; it has no effect on a single-pair DNA engine (use Search or Database.Search)", name)
	}
	arr, err := cfg.dnaArray(n, m)
	if err != nil {
		return nil, err
	}
	return &DNAEngine{cfg: cfg, arr: arr, area: cfg.library.AreaUM2(arr.Netlist()), n: n, m: m}, nil
}

// dnaArray builds the configured DNA fabric for strings of lengths n
// and m: the Fig. 4 array, clock-gated in regions under WithClockGating.
func (c *config) dnaArray(n, m int) (*race.Array, error) {
	if c.gateRegion > 0 {
		g, err := race.NewGatedArray(n, m, c.gateRegion)
		if err != nil {
			return nil, err
		}
		return c.configure(g.Array)
	}
	a, err := race.NewArray(n, m)
	if err != nil {
		return nil, err
	}
	return c.configure(a)
}

// proteinArray builds the Section 5 generalized array for strings of
// lengths n and m under a prepared matrix.
func (c *config) proteinArray(n, m int, mtx *score.Matrix, enc race.Encoding) (*race.Array, error) {
	g, err := race.NewGeneralArray(n, m, mtx, enc)
	if err != nil {
		return nil, err
	}
	return c.configure(g.Array)
}

// configure puts a new array on the configured backend and lane width.
func (c *config) configure(a *race.Array) (*race.Array, error) {
	a.SetBackend(c.backend)
	if c.laneWidth > 0 {
		if err := a.SetLaneWidth(c.laneWidth); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Dims returns the string lengths the engine was built for.
func (e *DNAEngine) Dims() (n, m int) { return e.n, e.m }

// AreaUM2 returns the engine's placed cell area under its library.
func (e *DNAEngine) AreaUM2() float64 { return e.area }

// Align races p against q and returns the alignment score with hardware
// metrics.  With WithThreshold set, dissimilar pairs return Found=false
// after only threshold+1 cycles.
func (e *DNAEngine) Align(p, q string) (*Alignment, error) {
	res, err := e.cfg.alignPair(e.arr, p, q)
	if err != nil {
		return nil, err
	}
	return toAlignment(e.cfg.library, e.area, res, p, q, score.DNAShortestInf())
}

// alignPair races one pair on a, under the Section 6 early exit when a
// threshold is set.  Gating never changes arrival times (a region's
// clock is cut only once every flip-flop inside already holds "1"), so
// the early exit composes with Section 4.3 gating freely.
func (c *config) alignPair(a *race.Array, p, q string) (*race.AlignResult, error) {
	if c.threshold >= 0 {
		return a.AlignThreshold(p, q, temporal.Time(c.threshold))
	}
	return a.Align(p, q)
}

// ProteinEngine is the Section 5 generalized Race Logic array: it
// executes an arbitrary score matrix (by default a race-prepared
// BLOSUM62) using binary saturating counters, per-symbol-pair weight
// selection and set-on-arrival latches in every cell.  Lower scores mean
// higher similarity (the matrix is transformed for the OR-type race).
//
// Like DNAEngine, a ProteinEngine reuses one compiled simulator across
// Align calls and is not safe for concurrent use.
type ProteinEngine struct {
	cfg    *config
	arr    *race.Array
	matrix *score.Matrix
	area   float64
	n, m   int
}

// preparedMatrix resolves a named protein matrix ("" and "BLOSUM62"
// select BLOSUM62, "PAM250" PAM250), prepares it for the OR-type race,
// and picks the delay encoding — shared by NewProteinEngine and Search.
func preparedMatrix(name string, oneHot bool) (*score.Matrix, race.Encoding, error) {
	var base *score.Matrix
	switch name {
	case "", "BLOSUM62":
		base = score.BLOSUM62()
	case "PAM250":
		base = score.PAM250()
	default:
		return nil, 0, fmt.Errorf("racelogic: unknown matrix %q (have BLOSUM62, PAM250)", name)
	}
	prepared, err := base.PrepareForRace()
	if err != nil {
		return nil, 0, err
	}
	enc := race.BinaryCounter
	if oneHot {
		enc = race.OneHot
	}
	return prepared, enc, nil
}

// NewProteinEngine builds a generalized engine for strings of lengths n
// and m under the named matrix: "BLOSUM62" (default) or "PAM250".  It
// rejects search-only options, and WithClockGating too: Section 4.3
// gating applies to the DNA array only.
func NewProteinEngine(n, m int, matrixName string, opts ...Option) (*ProteinEngine, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if name := cfg.firstApplied(searchOnlyOptions...); name != "" {
		return nil, fmt.Errorf("racelogic: %s is a search option; it has no effect on a single-pair protein engine (use Search or Database.Search)", name)
	}
	if cfg.gateRegion > 0 {
		return nil, fmt.Errorf("racelogic: clock gating applies to the DNA array only; it cannot be combined with the generalized protein array")
	}
	prepared, enc, err := preparedMatrix(matrixName, cfg.oneHot)
	if err != nil {
		return nil, err
	}
	arr, err := cfg.proteinArray(n, m, prepared, enc)
	if err != nil {
		return nil, err
	}
	return &ProteinEngine{
		cfg:    cfg,
		arr:    arr,
		matrix: prepared,
		area:   cfg.library.AreaUM2(arr.Netlist()),
		n:      n,
		m:      m,
	}, nil
}

// Dims returns the string lengths the engine was built for.
func (e *ProteinEngine) Dims() (n, m int) { return e.n, e.m }

// AreaUM2 returns the engine's placed cell area under its library.
func (e *ProteinEngine) AreaUM2() float64 { return e.area }

// MatrixName returns the name of the prepared score matrix in use.
func (e *ProteinEngine) MatrixName() string { return e.matrix.Name }

// Align races p against q.  Lower scores mean higher similarity.
func (e *ProteinEngine) Align(p, q string) (*Alignment, error) {
	res, err := e.cfg.alignPair(e.arr, p, q)
	if err != nil {
		return nil, err
	}
	return toAlignment(e.cfg.library, e.area, res, p, q, e.matrix)
}

// Graph is a weighted directed acyclic graph accepted by ShortestPath and
// LongestPath — the general Section 3 construction.
type Graph struct {
	g *dagGraph
}

// dagGraph aliases the internal graph so the public type stays opaque.
type dagGraph = graphImpl

// NewGraph returns an empty DAG builder.
func NewGraph() *Graph { return &Graph{g: newGraphImpl()} }

// AddNode adds a node and returns its ID.
func (gr *Graph) AddNode(name string) int { return gr.g.addNode(name) }

// AddEdge adds a directed edge with a non-negative integer weight.  Use
// Never for an infinite weight (equivalent to omitting the edge).
func (gr *Graph) AddEdge(from, to int, weight int64) error {
	return gr.g.addEdge(from, to, weight)
}

// ShortestPath compiles the graph to an OR-type race circuit, injects a
// rising edge at every source node, and returns the arrival time at dst —
// the shortest-path weight — or Never if dst is unreachable.
func (gr *Graph) ShortestPath(dst int) (int64, error) { return gr.g.solve(dst, race.ORType) }

// LongestPath races an AND-type circuit: the arrival time at dst is the
// longest-path weight, or Never if any of dst's ancestors can never fire.
func (gr *Graph) LongestPath(dst int) (int64, error) { return gr.g.solve(dst, race.ANDType) }

// Libraries returns the available standard-cell library names.
func Libraries() []string {
	names := make([]string, 0, 2)
	for _, l := range tech.Libraries() {
		names = append(names, l.Name)
	}
	return names
}
