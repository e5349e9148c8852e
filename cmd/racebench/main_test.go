package main

import (
	"encoding/json"
	"strings"
	"testing"

	"racelogic"
	"racelogic/internal/eval"
	"racelogic/internal/tech"
)

func TestParseNs(t *testing.T) {
	ns, err := parseNs("5, 10,20")
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 3 || ns[0] != 5 || ns[2] != 20 {
		t.Errorf("parseNs = %v", ns)
	}
	if _, err := parseNs("5,x"); err == nil {
		t.Error("bad entry must error")
	}
}

func TestPickLibs(t *testing.T) {
	both, err := pickLibs("both")
	if err != nil || len(both) != 2 {
		t.Errorf("pickLibs(both) = %v, %v", both, err)
	}
	one, err := pickLibs("OSU")
	if err != nil || len(one) != 1 || one[0].Name != "OSU" {
		t.Errorf("pickLibs(OSU) = %v, %v", one, err)
	}
	if _, err := pickLibs("XFAB"); err == nil {
		t.Error("unknown library must error")
	}
}

func TestRunEachFigure(t *testing.T) {
	lib := tech.AMIS()
	ns := []int{5, 8}
	for _, id := range []string{"5a", "5b", "5c", "eq5", "6", "9a", "9b", "9c",
		"eq7", "encoding", "threshold", "headline"} {
		var b strings.Builder
		if err := run(&b, id, lib, ns, formatTable, 8); err != nil {
			t.Fatalf("fig %s: %v", id, err)
		}
		if b.Len() == 0 {
			t.Errorf("fig %s produced no output", id)
		}
	}
}

func TestRunCSVMode(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "5a", tech.OSU(), []int{5, 8}, formatCSV, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "N,") {
		t.Errorf("CSV output = %q", b.String()[:20])
	}
}

func TestRunJSONMode(t *testing.T) {
	for _, id := range []string{"5a", "6"} {
		var b strings.Builder
		if err := run(&b, id, tech.OSU(), []int{5, 8}, formatJSON, 8); err != nil {
			t.Fatal(err)
		}
		var decoded map[string]any
		if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
			t.Fatalf("fig %s: output is not one JSON object: %v\n%s", id, err, b.String())
		}
		if decoded["ID"] == "" || decoded["ID"] == nil {
			t.Errorf("fig %s: JSON output missing ID", id)
		}
	}
}

// TestRunBackendsAgree pins the -backend contract: a sweep regenerated
// on the lanes engine is byte-identical to the reference run.
func TestRunBackendsAgree(t *testing.T) {
	lib := tech.AMIS()
	render := func() string {
		var b strings.Builder
		if err := run(&b, "5c", lib, []int{5, 8}, formatCSV, 8); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := render()
	if err := eval.SetBackend(racelogic.BackendLanes); err != nil {
		t.Fatal(err)
	}
	if got := render(); got != want {
		t.Errorf("lanes: figure differs from reference:\n%s\nvs\n%s", got, want)
	}
	if err := eval.SetBackend(racelogic.BackendCycle); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "42z", tech.AMIS(), []int{5}, formatTable, 5); err == nil {
		t.Error("unknown figure must error")
	}
}

func TestRunAliases(t *testing.T) {
	var b strings.Builder
	for _, id := range []string{"area", "latency", "energy", "throughput",
		"powerdensity", "energydelay", "gating", "wavefront"} {
		if err := run(&b, id, tech.AMIS(), []int{5}, formatTable, 5); err != nil {
			t.Fatalf("alias %s: %v", id, err)
		}
	}
}
