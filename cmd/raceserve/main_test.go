package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"racelogic"
	"racelogic/internal/server"
)

// TestBuildServerFASTA drives the FASTA path end to end: file on disk →
// Database → HTTP search.
func TestBuildServerFASTA(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.fasta")
	fasta := ">a\nACGTACGT\n>b split across lines\nACGT\nACCT\n>c\nTTTTTTTT\n"
	if err := os.WriteFile(path, []byte(fasta), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, db, err := buildServer(options{dbPath: path, seed: 42, lib: "AMIS", seedK: 4, cache: 16, top: 5})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Fatalf("loaded %d sequences, want 3", db.Len())
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/search", "application/json",
		bytes.NewBufferString(`{"query":"ACGTACGT"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var sr server.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 || sr.Results[0].Sequence != "ACGTACGT" {
		t.Errorf("top hit should be the exact match, got %+v", sr.Results)
	}
	// The all-T entry shares no 4-mer with the query.
	if sr.Skipped != 1 {
		t.Errorf("skipped %d entries, want 1 (seed index active)", sr.Skipped)
	}
}

// TestBuildServerGenerated covers the -gen demo path and /healthz.
func TestBuildServerGenerated(t *testing.T) {
	srv, db, err := buildServer(options{gen: 25, genLen: 8, seed: 7, lib: "OSU", top: 3})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 25 {
		t.Fatalf("generated %d sequences, want 25", db.Len())
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health server.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Entries != 25 {
		t.Errorf("healthz = %+v", health)
	}
}

func TestBuildServerErrors(t *testing.T) {
	if _, _, err := buildServer(options{lib: "AMIS"}); err == nil {
		t.Error("no -db and no -gen must error")
	}
	if _, _, err := buildServer(options{dbPath: "somewhere.fasta", gen: 10, genLen: 8, lib: "AMIS"}); err == nil {
		t.Error("-db with -gen must error")
	}
	if _, _, err := buildServer(options{gen: 10, genLen: 8, lib: "XFAB"}); err == nil {
		t.Error("unknown library must error")
	}
	if _, _, err := buildServer(options{gen: 10, genLen: 8, lib: "AMIS", matrix: "BLOSUM80"}); err == nil {
		t.Error("unknown matrix must error")
	}
	if _, _, err := buildServer(options{dbPath: filepath.Join(t.TempDir(), "missing.fasta"), lib: "AMIS"}); err == nil {
		t.Error("missing database file must error")
	}
}

// TestWALLifecycle is the -wal flow in-process: bootstrap a durable
// directory from -gen, mutate over HTTP, then simulate a crash by
// reopening the directory WITHOUT any close or save — the journal alone
// must carry the mutations into the next start.
func TestWALLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	o := options{gen: 12, genLen: 8, seed: 9, lib: "AMIS", seedK: 4, cache: 8, top: 5,
		walDir: dir, snapEvery: 0, snapInterval: 0}

	// Cold start bootstraps the directory.
	srv, db, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Durable() {
		t.Fatal("-wal database must be durable")
	}
	ts := httptest.NewServer(srv)
	resp, err := http.Post(ts.URL+"/entries", "application/json",
		bytes.NewBufferString(`{"entries":["ACGTACGTACGT"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var mut server.MutationResponse
	if err := json.NewDecoder(resp.Body).Decode(&mut); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/entries/bulk", "text/plain",
		bytes.NewBufferString(">x\nTTTTCCCCAAAA\n>y\nGGGGAAAA\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	// Crash: no db.Close(), no snapshot — drop everything on the floor.

	srv2, db2, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 15 || db2.Version() != db.Version() || db2.SeedK() != 4 {
		t.Fatalf("recovery: len=%d version=%d seedk=%d, want 15/%d/4",
			db2.Len(), db2.Version(), db2.SeedK(), db.Version())
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	resp, err = http.Post(ts2.URL+"/search", "application/json",
		bytes.NewBufferString(`{"query":"ACGTACGTACGT"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr server.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) == 0 || sr.Results[0].ID != mut.IDs[0] {
		t.Errorf("the entry inserted before the crash must survive with its ID %d: %+v", mut.IDs[0], sr.Results)
	}
}

// TestWALFlagConflicts pins the flag contract around -wal: a corrupt
// durable directory must refuse to start, never cold-load over it.
func TestWALFlagConflicts(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "state")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, racelogic.ManifestName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildServer(options{gen: 5, genLen: 8, lib: "AMIS", walDir: bad}); err == nil {
		t.Error("corrupt -wal state must error, not fall back to -gen")
	}
}

// TestBackendFlag pins the -backend plumbing end to end: the gauge in
// GET /stats names the engine the database runs on (lanes for its alias
// event), and a server on lanes answers /search byte-for-byte like the
// cycle reference (modulo the per-request timing fields).
func TestBackendFlag(t *testing.T) {
	base := options{gen: 15, genLen: 8, seed: 11, lib: "AMIS", cache: 0, top: 5}

	var responses []server.SearchResponse
	for _, c := range []struct{ set, backend racelogic.Backend }{
		{racelogic.BackendCycle, racelogic.BackendCycle},
		{racelogic.BackendLanes, racelogic.BackendLanes},
		{racelogic.BackendEvent, racelogic.BackendLanes},
	} {
		backend := c.backend
		o := base
		o.backend = c.set
		srv, db, err := buildServer(o)
		if err != nil {
			t.Fatal(err)
		}
		if db.Backend() != backend {
			t.Fatalf("-backend %v: database backend %v, want %v", c.set, db.Backend(), backend)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()

		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats server.StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if stats.Backend != backend.String() {
			t.Fatalf("/stats backend %q, want %q", stats.Backend, backend)
		}

		resp, err = http.Post(ts.URL+"/search", "application/json",
			bytes.NewBufferString(`{"query":"ACGTACGT","top_k":5}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search status %d, want 200", resp.StatusCode)
		}
		var sr server.SearchResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		sr.ElapsedUS, sr.Cached, sr.EnginesBuilt = 0, false, 0
		responses = append(responses, sr)
		if !reflect.DeepEqual(responses[0], sr) {
			t.Fatalf("-backend %v answered differently from cycle:\ncycle: %+v\ngot:   %+v", c.set, responses[0], sr)
		}
	}
}

// TestBackendWithWarmStarts pins that -backend composes with the warm
// path: a durable -wal directory written by the cycle backend and
// reopened on lanes.
func TestBackendWithWarmStarts(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "state")
	durable := options{gen: 10, genLen: 8, seed: 13, lib: "AMIS", top: 5, walDir: walDir}
	_, ddb, err := buildServer(durable)
	if err != nil {
		t.Fatal(err)
	}
	if err := ddb.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := durable
	reopened.backend = racelogic.BackendLanes
	_, rdb, err := buildServer(reopened)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if rdb.Backend() != racelogic.BackendLanes || rdb.Len() != ddb.Len() {
		t.Fatalf("wal warm start: backend %v len %d, want lanes and %d", rdb.Backend(), rdb.Len(), ddb.Len())
	}
}
