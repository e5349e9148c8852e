package lanes

import (
	"fmt"
	"strings"
	"testing"

	"racelogic/internal/circuit"
)

// matchCell is the Eq. 2 matching condition of one Fig. 4b cell over a
// 2-pin row symbol p and column symbol q.
func matchCell(nl *circuit.Netlist, p, q []circuit.Net) circuit.Net {
	return nl.And(nl.Xnor(p[0], q[0]), nl.Xnor(p[1], q[1]))
}

// symbolGrid builds an n×m array of cells over 2-pin row and column
// symbol groups: cell (i, j) gates a start flip-flop, still 0 during the
// load, with cell(i, j)'s matching condition into a flip-flop of its
// own, as the edit-graph array gates its diagonal edge.
func symbolGrid(n, m int, cell func(nl *circuit.Netlist, i, j int, p, q []circuit.Net) circuit.Net) (*circuit.Netlist, [][]circuit.Net, [][]circuit.Net) {
	nl := circuit.New()
	start := nl.DFF(nl.Input("root"))
	rows := make([][]circuit.Net, n)
	for i := range rows {
		rows[i] = []circuit.Net{nl.Input(fmt.Sprintf("p%d_b0", i)), nl.Input(fmt.Sprintf("p%d_b1", i))}
	}
	cols := make([][]circuit.Net, m)
	for j := range cols {
		cols[j] = []circuit.Net{nl.Input(fmt.Sprintf("q%d_b0", j)), nl.Input(fmt.Sprintf("q%d_b1", j))}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			nl.DFF(nl.And(cell(nl, i, j, rows[i], cols[j]), start))
		}
	}
	return nl, rows, cols
}

// TestPlanSymbolLoadRules gives each plan rule a grid that breaks it and
// requires PlanSymbolLoad to refuse it with an error naming the rule.
func TestPlanSymbolLoadRules(t *testing.T) {
	uniform := func(nl *circuit.Netlist, i, j int, p, q []circuit.Net) circuit.Net {
		return matchCell(nl, p, q)
	}
	for _, tc := range []struct {
		name string
		cell func(nl *circuit.Netlist, i, j int, p, q []circuit.Net) circuit.Net
		// extra adds gates outside the cells.
		extra func(nl *circuit.Netlist, rows, cols [][]circuit.Net)
		want  string
	}{
		{name: "uniform grid plans", cell: uniform},
		{
			name: "gate reading two row groups",
			cell: uniform,
			extra: func(nl *circuit.Netlist, rows, cols [][]circuit.Net) {
				nl.Xnor(rows[0][0], rows[1][0])
			},
			want: "reads more than one row group",
		},
		{
			name: "one cell with a different template",
			cell: func(nl *circuit.Netlist, i, j int, p, q []circuit.Net) circuit.Net {
				if i == 2 && j == 1 {
					return nl.And(nl.Xnor(p[0], q[1]), nl.Xnor(p[1], q[0]))
				}
				return matchCell(nl, p, q)
			},
			want: "not every cell pair equally",
		},
		{
			name: "cone net low at baseline",
			cell: func(nl *circuit.Netlist, i, j int, p, q []circuit.Net) circuit.Net {
				return nl.And(nl.Xor(p[0], q[0]), nl.Xnor(p[1], q[1]))
			},
			want: "low at baseline",
		},
		{
			name: "gate moving with one side only",
			cell: uniform,
			extra: func(nl *circuit.Netlist, rows, cols [][]circuit.Net) {
				nl.Not(cols[2][1])
			},
			want: "one symbol side",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl, rows, cols := symbolGrid(3, 4, tc.cell)
			if tc.extra != nil {
				tc.extra(nl, rows, cols)
			}
			s, err := CompileWords(nl, 2)
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.PlanSymbolLoad(rows, cols)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("PlanSymbolLoad: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("PlanSymbolLoad accepted the grid, want an error containing %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("PlanSymbolLoad: %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestLoadSymbolsFirstDriveOnly pins LoadSymbols to the state its tables
// assume: the first drive after Reset.  After any other drive or a
// step it panics; Reset makes it legal again.
func TestLoadSymbolsFirstDriveOnly(t *testing.T) {
	nl, rows, cols := symbolGrid(2, 2, func(nl *circuit.Netlist, i, j int, p, q []circuit.Net) circuit.Net {
		return matchCell(nl, p, q)
	})
	s, err := Compile(nl)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.PlanSymbolLoad(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	slabs := make([]uint64, 8)
	for i := range slabs {
		slabs[i] = 0x5a5a5a5a5a5a5a5a >> uint(i)
	}
	load := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		s.LoadSymbols(plan, slabs)
		return false
	}
	if load() {
		t.Fatal("LoadSymbols right after Compile panicked")
	}
	if !load() {
		t.Fatal("a second LoadSymbols did not panic")
	}
	for _, tc := range []struct {
		name  string
		drive func()
	}{
		{"SetInputWords", func() { s.SetInputWord(cols[1][0], 1) }},
		{"Step", s.Step},
		{"Run", func() { s.Run(3) }},
	} {
		s.Reset()
		if load() {
			t.Fatalf("LoadSymbols after Reset panicked")
		}
		s.Reset()
		tc.drive()
		if !load() {
			t.Fatalf("LoadSymbols after %s did not panic", tc.name)
		}
	}
}
