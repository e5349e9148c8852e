// Package server is the long-running search service of the subsystem:
// an HTTP JSON API that serves concurrent similarity queries against one
// loaded racelogic.Database — the million-user, many-queries-one-database
// scenario the paper's Section 1 workload implies at system scale.
//
// The endpoints:
//
//   - POST /search races a query against the database and returns the
//     ranked report with per-request hardware metrics (cycles, energy,
//     latency, area, power density — the paper's Section 4.1 accounting)
//     and the database version it reflects;
//   - POST /entries inserts sequences into the live database, returning
//     their stable IDs; DELETE /entries/{id} removes one by stable ID
//     (404 when unknown) — the service never restarts to change corpus;
//   - POST /entries/bulk streams a whole corpus upload — NDJSON (one
//     JSON string per line) or FASTA/plain text, auto-detected — into
//     the database in journaled batches without buffering the body, the
//     live-import path for large collections;
//   - POST /compact is the manual admin trigger for a dense rebuild; it
//     returns the old→new slot remap so clients holding slot indices can
//     rebind (entry IDs are the stable handle and never change);
//   - GET /healthz is the liveness probe;
//   - GET /stats reports the database version, live entry and tombstone
//     counts, durability state (journal size in records and bytes,
//     snapshot age and save counts), cumulative service counters
//     (searches, mutations and compactions served, engines compiled and
//     pooled, cache hits, uptime), and a shards[] array with one gauge
//     set per partition — entries, tombstones, wal_records, wal_bytes
//     (the shard's one journal file), snapshot_age_seconds — so skew
//     and per-shard replay debt are visible at a glance.
//
// The handler is safe for concurrent requests because Database.Search
// is: each in-flight race checks a compiled simulator out of a per-shape
// engine pool, and runs against one immutable snapshot even while
// mutations land.  A bounded LRU cache short-circuits repeated identical
// queries — the common case when many users search for the same new
// sequence — returning a private copy of the cached report with
// Cached=true.  Cache keys embed the database version, so every
// mutation implicitly invalidates all older cached reports.
package server
