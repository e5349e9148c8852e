package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"racelogic/internal/align"
	"racelogic/internal/score"
	"racelogic/internal/seqgen"
	"racelogic/internal/server"
)

// testInputs is a small read-only workload over a full-scan corpus.
func testInputs() *inputs {
	g := seqgen.NewDNA(7)
	return &inputs{corpus: g.Database(40, queryLen), dbOpts: engineOptions(64), fullScan: true, readOnly: true}
}

// referenceReply answers query with the DP reference ranking of corpus.
func referenceReply(t *testing.T, query string, corpus []string) *server.SearchResponse {
	t.Helper()
	resp := &server.SearchResponse{Query: query, TotalCycles: 100, TotalEnergyJ: 1e-9}
	for id, e := range corpus {
		ref, err := align.Global(query, e, score.DNAShortestInf())
		if err != nil {
			t.Fatal(err)
		}
		resp.Results = append(resp.Results, server.SearchResult{ID: uint64(id), Sequence: e, Score: int64(ref.Score)})
	}
	sort.Slice(resp.Results, func(i, j int) bool {
		a, b := resp.Results[i], resp.Results[j]
		return a.Score < b.Score || (a.Score == b.Score && a.ID < b.ID)
	})
	resp.Results = resp.Results[:topK]
	resp.Matched, resp.Scanned = len(corpus), len(corpus)
	return resp
}

func entriesOf(corpus []string) map[uint64]string {
	m := make(map[uint64]string, len(corpus))
	for i, e := range corpus {
		m[uint64(i)] = e
	}
	return m
}

func TestReferenceAcceptsCorrectReply(t *testing.T) {
	in := testInputs()
	q := in.corpus[3]
	if err := checkReference(q, referenceReply(t, q, in.corpus), entriesOf(in.corpus), true); err != nil {
		t.Fatal(err)
	}
}

func TestReferenceRejectsWrongScore(t *testing.T) {
	in := testInputs()
	q := in.corpus[3]
	resp := referenceReply(t, q, in.corpus)
	resp.Results[2].Score++
	err := checkReference(q, resp, entriesOf(in.corpus), false)
	if err == nil || !strings.Contains(err.Error(), "DP reference") {
		t.Fatalf("a wrong score passed the DP check: %v", err)
	}
}

func TestReferenceRejectsWrongRanking(t *testing.T) {
	in := testInputs()
	q := in.corpus[3]
	resp := referenceReply(t, q, in.corpus)
	// Dropping the best match keeps every returned score right but
	// the ranking wrong.
	resp.Results = resp.Results[1:]
	if err := checkReference(q, resp, entriesOf(in.corpus), true); err == nil {
		t.Fatal("a ranking that misses the best entry passed the full-scan check")
	}
}

func TestCheckRejectsNon200(t *testing.T) {
	in := testInputs()
	c := newChecker(in, nil)
	body, _ := json.Marshal(map[string]string{"error": "boom"})
	for _, status := range []int{400, 500, 503} {
		if _, err := c.check(searchRequest(in.corpus[0]), status, body); err == nil {
			t.Fatalf("status %d passed the check", status)
		}
	}
}

func TestCheckRejectsUndecodableReply(t *testing.T) {
	in := testInputs()
	c := newChecker(in, nil)
	for _, body := range []string{`{"query": 1}`, `{"query":"A","surprise":true}`, `[`} {
		if _, err := c.check(searchRequest("A"), 200, []byte(body)); err == nil {
			t.Fatalf("reply %s passed the check", body)
		}
	}
}

func TestCheckRejectsChangedRepeat(t *testing.T) {
	in := testInputs()
	c := newChecker(in, nil)
	q := in.corpus[5]
	resp := referenceReply(t, q, in.corpus)
	body, _ := json.Marshal(resp)
	if _, err := c.check(searchRequest(q), 200, body); err != nil {
		t.Fatal(err)
	}
	if _, err := c.check(searchRequest(q), 200, body); err != nil {
		t.Fatalf("an identical repeat failed: %v", err)
	}
	resp.TotalEnergyJ *= 1.0000001
	body, _ = json.Marshal(resp)
	if _, err := c.check(searchRequest(q), 200, body); err == nil {
		t.Fatal("a repeat with different energy passed the check")
	}
}

func TestCheckRejectsForeignEntry(t *testing.T) {
	in := testInputs()
	c := newChecker(in, nil)
	q := in.corpus[5]
	resp := referenceReply(t, q, in.corpus)
	resp.Results[0].Sequence = strings.Repeat("A", queryLen)
	body, _ := json.Marshal(resp)
	if _, err := c.check(searchRequest(q), 200, body); err == nil {
		t.Fatal("a result naming a sequence the corpus does not hold passed the check")
	}
}

// TestCrashImageIsDeterministic prepares the same small image twice and
// compares every file byte for byte.
func TestCrashImageIsDeterministic(t *testing.T) {
	g := seqgen.NewDNA(11)
	in := &inputs{corpus: g.Database(300, queryLen), dbOpts: engineOptions(64)}
	in.durable = &durableSpec{}
	for i := 0; i < 30; i++ {
		if i%3 == 2 {
			in.durable.tail = append(in.durable.tail, removeRequest(uint64(i)))
		} else {
			in.durable.tail = append(in.durable.tail, insertRequest(g.Random(queryLen)))
		}
	}
	dir := t.TempDir()
	var images [2]*crashImage
	for i := range images {
		img, err := prepareImage(in, filepath.Join(dir, string(rune('a'+i))))
		if err != nil {
			t.Fatal(err)
		}
		images[i] = img
	}
	for _, pick := range []func(*crashImage) string{
		func(c *crashImage) string { return c.base },
		func(c *crashImage) string { return c.tail },
	} {
		a, b := pick(images[0]), pick(images[1])
		ents, err := os.ReadDir(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) == 0 {
			t.Fatalf("%s is empty", a)
		}
		for _, e := range ents {
			x, err := os.ReadFile(filepath.Join(a, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			y, err := os.ReadFile(filepath.Join(b, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(x, y) {
				t.Errorf("%s differs between two preparations from one seed", e.Name())
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// and workloads this program reports in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{doc.EndToEnd, endToEndMetrics}, {doc.PerLayer, perLayerMetrics}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
