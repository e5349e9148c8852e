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
// reopened from its snapshots rebuilds it with New.
//
// # Layout
//
// The map is split into a fixed directory of 1024 buckets selected by a
// seedless hash of the k-mer, so bucket placement is the same in every
// process.  A bucket holds no pointer per k-mer: its distinct k-mers
// sit in ascending byte order as packed uint64 keys (the first
// min(k, 8) bytes, big-endian, so integer order is byte order), with
// the k−8 bytes past each key in one byte string when k > 8, so any k
// and any byte value stay exact.  The postings are compressed sparse
// rows: one array of int32 entry slots, ascending per k-mer, and one
// array of offsets into it.  A shard past math.MaxInt32 slots fails
// loudly instead of wrapping.
//
// New lists every k-mer occurrence in slot order and orders them by
// k-mer with a stable least-significant-digit radix sort, one counting
// pass per k-mer byte (prefix bytes read from the packed key, tail
// bytes from the entry, so every k takes one path), with no comparison
// sort.  The sorted occurrences arrive grouped by k-mer in byte order,
// slots ascending, so New sizes every bucket and then fills each one
// directly, repeats within an entry dropped.  Candidates binary-searches
// each of the query's k-mers in its bucket and unions their ascending
// posting lists, plus the entries shorter than k, by merging them pair
// by pair.  Grow builds fresh buckets from the new entries exactly as
// New does, copies the 8 KiB directory, installs each fresh bucket
// whose slot was empty and replaces each one that held k-mers with a
// merge of the two, sharing every other bucket with the parent, so it
// costs O(fanout + the k-mers and postings of the touched buckets + the
// new entries' k-mers) and never writes memory an older version reads.
// WAL replay grows each shard once for all the inserts between two
// journaled compactions.  A k-mer that most entries share keeps one
// long posting list, which every Grow touching its bucket copies.
//
// The sharded database keeps one Index instance per shard, over that
// shard's local slots, so inserts landing on different shards grow
// their indexes in parallel.  Candidate lookup runs per shard and is
// merged by the pipeline's scatter-gather search.  Entries shorter than
// k carry no k-mer and can never be filtered soundly, so they are
// always candidates; likewise a query shorter than k disables filtering
// for that search.  The candidate set is deterministic, so seeded
// searches compose with the deterministic top-K ranking and the
// Section 6 threshold pre-filter of internal/pipeline.
package index
