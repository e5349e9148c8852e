// Package circuit is a structural gate-level netlist builder and
// cycle-accurate simulator.
//
// The paper evaluates Race Logic by writing parameterized Verilog,
// synthesizing it with Synopsys Design Vision, and extracting per-net
// toggle activity with Modelsim for Primetime power analysis.  This
// package rebuilds that measurement pipeline in Go: circuits are
// constructed from the same primitive standard cells the paper's designs
// use (n-ary AND/OR, NOT, XOR, XNOR, 2:1 MUX, and D flip-flops with
// optional clock enable), simulated one clock cycle at a time, and
// instrumented with per-net toggle counts and per-kind gate counts that
// internal/tech converts to area, energy and power exactly as Primetime
// would (activity × capacitance × Vdd²).
//
// The builder half of the package (Netlist) is write-once: gates and nets
// are appended, then Compile levelizes the combinational logic (detecting
// combinational loops) and returns an immutable Simulator.
//
// Simulation is abstracted behind the Backend interface, which two
// engines implement: the Simulator in this package — the cycle-accurate
// reference, settling the whole netlist every clock edge exactly as the
// paper's Verilog/Modelsim loop did — and the bit-parallel engine in
// the circuit/lanes subpackage, which propagates only actual net
// changes, fast-forwards over quiescent stretches, and races up to 512
// candidates in one pass.  The two are contractually byte-identical in
// every observable (values, arrival times, toggle counts, clocked-cycle
// counts, the Activity report); the differential harness in
// internal/oracle enforces that contract with property tests and
// fuzzing, keeping this Simulator as the oracle and the lanes engine as
// the fast path.
package circuit
