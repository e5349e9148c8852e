// Package race implements Race Logic: computation by timing races through
// a circuit, the primary contribution of the paper.
//
// A value n is encoded as a rising edge appearing n clock cycles after the
// start of a computation.  Nodes of a weighted DAG become OR gates (min —
// the first edge wins) or AND gates (max — the last edge wins) and edge
// weights become D-flip-flop delay chains; the score of a node is simply
// the cycle at which its gate output rises.  The package provides four
// hardware models, all compiled to gate-level netlists and simulated
// cycle-accurately by internal/circuit:
//
//   - FromDAG/Solver — the general Section 3 construction for any DAG;
//   - Array — the Fig. 4 synchronous unit-cell array for DNA global
//     sequence alignment (score matrix Fig. 2b with mismatches promoted
//     to ∞);
//   - GatedArray — Array with the Section 4.3 data-dependent clock
//     gating in m×m multi-cell regions;
//   - GeneralArray — the Section 5 generalized cell (binary saturating
//     counter, per-symbol-pair weight select, set-on-arrival) for
//     arbitrary positive score matrices such as BLOSUM62.
//
// The three edit-graph arrays share one compiled-array core: Array is
// parameterised by its netlist, its symbol pins, a 256-entry symbol-code
// table and its cycle bound, and GatedArray and GeneralArray embed it.
// Align, AlignThreshold, SetBackend, SetLaneWidth, LaneWidth, AlignLanes
// and AlignLanesMulti are therefore defined once, and every fabric races
// lane packs under BackendLanes.  A pack loads its symbols through the
// lanes engine's tabulated plan when PlanSymbolLoad accepts the netlist
// (the plain and clock-gated arrays) and pin by pin otherwise (the
// generalized array, whose per-symbol decoders move with one symbol side
// and whose protein symbols are wider than the plan's tables).  Align
// and AlignThreshold race a pack of one under BackendLanes and read the
// timing matrix from its lane; on the cycle reference LaneWidth is 1
// and a pack is one race.
package race
