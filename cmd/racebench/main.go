// Command racebench regenerates the paper's evaluation artifacts: every
// panel of Figs. 5 and 9, the Eq. 5 energy fits, the Eq. 6/7 gating
// study, the Fig. 6 wavefronts, the Section 5 encoding ablation, the
// Section 6 threshold study and the abstract's headline ratios.
//
// Usage:
//
//	racebench -fig 5a|5b|5c|eq5|6|9a|9b|9c|eq7|encoding|threshold|headline|lanefill|all
//	          [-lib AMIS|OSU|both] [-ns 5,10,20,...] [-csv|-json]
//	          [-backend cycle|event|lanes] [-lanewidth 64|128|256|512]
//
// Output is a text table per figure (CSV with -csv, JSON with -json),
// printing the same series the paper plots; EXPERIMENTS.md records how
// each compares to the published curves.  -backend selects the
// simulation engine the sweeps run on — the oracle suite proves the
// engines bit-identical, so the figures never change, only how long a
// long N sweep takes.  -lanewidth sets the lanes backend's pack width
// (64–512 candidates per race); the lanefill figure measures the
// resulting pack occupancy and records the configured width and mean
// fill ratio in its -json output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"racelogic"
	"racelogic/internal/eval"
	"racelogic/internal/tech"
)

func main() {
	figID := flag.String("fig", "all", "figure to regenerate: 5a 5b 5c eq5 6 9a 9b 9c eq7 encoding threshold headline all")
	libName := flag.String("lib", "AMIS", "standard-cell library: AMIS, OSU or both")
	nsFlag := flag.String("ns", "", "comma-separated N sweep (default: the paper's 5..100 grid)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit JSON instead of aligned tables")
	backendName := flag.String("backend", "cycle", "simulation engine: cycle (reference) or lanes (fast); event: alias of lanes")
	laneWidth := flag.Int("lanewidth", 0, "lanes backend pack width: 64, 128, 256, or 512 (0 = default 64)")
	n9c := flag.Int("n9c", 30, "string length for the Fig. 9c scatter")
	flag.Parse()

	if *csv && *jsonOut {
		fatal(fmt.Errorf("-csv and -json are mutually exclusive"))
	}
	backend, err := racelogic.ParseBackend(*backendName)
	if err != nil {
		fatal(err)
	}
	if err := eval.SetBackend(backend); err != nil {
		fatal(err)
	}
	if err := eval.SetLaneWidth(*laneWidth); err != nil {
		fatal(err)
	}
	ns := eval.DefaultNs
	if *nsFlag != "" {
		parsed, err := parseNs(*nsFlag)
		if err != nil {
			fatal(err)
		}
		ns = parsed
	}
	libs, err := pickLibs(*libName)
	if err != nil {
		fatal(err)
	}
	format := formatTable
	switch {
	case *csv:
		format = formatCSV
	case *jsonOut:
		format = formatJSON
	}
	for _, lib := range libs {
		if err := run(os.Stdout, *figID, lib, ns, format, *n9c); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "racebench:", err)
	os.Exit(1)
}

func parseNs(s string) ([]int, error) {
	var ns []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -ns entry %q: %w", part, err)
		}
		ns = append(ns, n)
	}
	return ns, nil
}

func pickLibs(name string) ([]*tech.Library, error) {
	if name == "both" {
		return tech.Libraries(), nil
	}
	l, err := tech.ByName(name)
	if err != nil {
		return nil, err
	}
	return []*tech.Library{l}, nil
}

// format selects one of the Figure renderers.
type format int

const (
	formatTable format = iota
	formatCSV
	formatJSON
)

func run(w io.Writer, figID string, lib *tech.Library, ns []int, fm format, n9c int) error {
	emit := func(f *eval.Figure, err error) error {
		if err != nil {
			return err
		}
		switch fm {
		case formatCSV:
			return f.WriteCSV(w)
		case formatJSON:
			return f.WriteJSON(w)
		}
		return f.WriteTable(w)
	}
	switch figID {
	case "5a", "5d", "area":
		return emit(eval.Fig5Area(lib, ns))
	case "5b", "5e", "latency":
		return emit(eval.Fig5Latency(lib, ns))
	case "5c", "5f", "energy":
		return emit(eval.Fig5Energy(lib, ns))
	case "eq5":
		return emit(eval.Eq5Fit(lib, ns))
	case "6", "wavefront":
		return writeFig6(w, 16, fm)
	case "9a", "throughput":
		return emit(eval.Fig9Throughput(lib, ns))
	case "9b", "powerdensity":
		return emit(eval.Fig9PowerDensity(lib, ns))
	case "9c", "energydelay":
		return emit(eval.Fig9EnergyDelay(lib, n9c))
	case "eq7", "gating":
		return emit(eval.GatingSweep(lib, 32, []int{1, 2, 4, 8, 16, 32}))
	case "encoding":
		return emit(eval.EncodingAblation(lib, 4))
	case "threshold":
		return emit(eval.ThresholdStudy(lib, 24, 16, 30))
	case "headline":
		return emit(eval.Headline(lib, 20))
	case "lanefill":
		return emit(eval.LaneFill(lib, 24, 400))
	case "all":
		ids := []string{"5a", "5b", "5c", "eq5", "6", "9a", "9b", "9c",
			"eq7", "encoding", "threshold", "headline"}
		if eval.Backend() == racelogic.BackendLanes {
			ids = append(ids, "lanefill")
		}
		for _, id := range ids {
			if err := run(w, id, lib, ns, fm, n9c); err != nil {
				return fmt.Errorf("fig %s: %w", id, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown figure %q", figID)
	}
}

func writeFig6(w io.Writer, n int, fm format) error {
	worst, best, err := eval.Fig6(n)
	if err != nil {
		return err
	}
	if fm == formatJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			ID          string   `json:"ID"`
			N           int      `json:"N"`
			Worst, Best []string // one frame per cycle
		}{"fig6", n, worst, best})
	}
	fmt.Fprintf(w, "== fig6: wavefront propagation at N = %d ==\n", n)
	fmt.Fprintf(w, "-- (a) worst case: %d frames; selected frames --\n", len(worst))
	for _, t := range []int{1, n / 2, n, 2 * n} {
		if t < len(worst) {
			fmt.Fprintf(w, "cycle %d:\n%s\n", t, worst[t])
		}
	}
	fmt.Fprintf(w, "-- (b) best case: %d frames; selected frames --\n", len(best))
	for _, t := range []int{1, n / 2, n} {
		if t < len(best) {
			fmt.Fprintf(w, "cycle %d:\n%s\n", t, best[t])
		}
	}
	return nil
}
