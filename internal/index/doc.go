// Package index is the k-mer seed index of the search subsystem: a
// BLAST-style seed-and-extend pre-filter that makes database search
// sublinear in database size.
//
// The paper's array makes one alignment cheap; the Section 1 workload
// ("for every new sequence obtained, a search for similar sequences is
// performed across known databases") still races the query against every
// entry.  Real search pipelines never do that: they first look up which
// entries share at least one exact k-length substring (a k-mer, the
// "seed") with the query, and run the expensive alignment — here, the
// race — only on those candidates.  Two sequences with no common k-mer
// are necessarily dissimilar for any useful similarity threshold, so the
// skipped entries cost zero cycles and zero energy.
//
// The index is an inverted map from every k-mer to the ascending list of
// entries containing it, built once per database and grown incrementally
// (copy-on-write, see Grow) as entries are inserted.  It is derived
// entirely from the entries, so it is never serialized: a database
// reopened from its snapshots rebuilds it with New.  The map is split
// into a fixed directory of buckets selected by a hash of the k-mer, so
// a Grow copies the directory and only the buckets its new k-mers land
// in, each holding about 1/1024 of the index's k-mers, instead of the
// whole map; WAL replay, which re-applies inserts through the same
// Grow, pays the same per record.  The sharded database keeps
// one Index instance per shard, over that shard's local slots, so
// inserts landing on different shards grow their indexes in parallel.
// Candidate lookup is a union over the query's k-mers, run per shard
// and merged by the pipeline's scatter-gather search.  Entries shorter than k carry no k-mer
// and can never be filtered soundly, so they are always candidates;
// likewise a query shorter than k disables filtering for that search.
// The candidate set is deterministic, so seeded searches compose with the
// deterministic top-K ranking and the Section 6 threshold pre-filter of
// internal/pipeline.
package index
