package index

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
)

// fanout is the number of buckets in an index's postings directory.
// 1024 keeps buckets at ~64 k-mers for the 65536 possible DNA 8-mers,
// so the buckets a Grow copies stay small next to the 8 KiB directory.
const fanout = 1024

// bucketOf selects a k-mer's directory bucket by its 32-bit FNV-1a hash.
// The hash is seedless, so bucket placement — and with it every
// derived index — is the same in every process.
func bucketOf(kmer string) int {
	h := uint32(2166136261)
	for i := 0; i < len(kmer); i++ {
		h ^= uint32(kmer[i])
		h *= 16777619
	}
	return int(h % fanout)
}

// Stats is a shared sink of seed-lookup counters.  One Stats may be
// attached to many indexes (every shard of one database, every Grow
// generation), so the totals describe the database's seed index as a
// whole across copy-on-write versions.
type Stats struct {
	// Lookups counts Candidates calls.
	Lookups atomic.Int64
	// Candidates counts the total candidate slots those calls returned.
	Candidates atomic.Int64
	// FullCover counts the lookups that could not rule anything out
	// (query shorter than the seed length).
	FullCover atomic.Int64
}

// Index is an inverted k-mer index over a sequence database: for every
// length-k substring, the ascending list of entries containing it.  An
// Index is immutable after construction and safe for concurrent use;
// Grow derives an extended Index copy-on-write instead of mutating.
//
//racelint:cow
type Index struct {
	k int
	n int
	// dir is the postings directory: the map from every k-mer to its
	// ascending entry list, split into fanout buckets by bucketOf.  A
	// bucket is nil exactly when no k-mer hashes to it.  Versions of one
	// lineage share every bucket a Grow did not touch.
	dir []map[string][]int
	// kmers is the number of distinct k-mers across all buckets.
	kmers int
	// always holds the entries shorter than k: they carry no k-mer, so
	// seed lookup can never rule them out.
	always []int
	// stats, when attached, receives lookup counters.  Grow propagates
	// the pointer, so one sink spans a database's whole index lineage.
	stats *Stats
}

// SetStats attaches a counter sink.  Attach before the index is shared
// between goroutines — the derived indexes Grow produces inherit the
// sink automatically.
//
//racelint:cowsafe
func (ix *Index) SetStats(s *Stats) { ix.stats = s }

// New builds the index over entries with seed length k ≥ 1.  Entries are
// identified by their slice position, matching pipeline candidate
// indices.
//
//racelint:cowsafe
func New(entries []string, k int) (*Index, error) {
	if k < 1 {
		return nil, fmt.Errorf("index: seed length %d must be ≥ 1", k)
	}
	return (&Index{k: k}).Grow(entries), nil
}

// Grow returns a new Index covering the old entries plus entries
// appended at slots [ix.Len(), ix.Len()+len(entries)) — the incremental
// update for a database insert.  It copies the postings directory and
// each bucket the new entries' k-mers land in, and shares every other
// bucket with the parent, so its cost is O(fanout + touched buckets +
// the new entries' own k-mers) rather than O(every indexed k-mer).
//
// Posting lists are shared with the parent too: new slot numbers exceed
// every indexed one, so appends land past the length of every older
// Index and readers of those keep an intact view.  That copy-on-write
// argument requires growth to be linear — derive each Grow from the
// most recently derived Index (one serialized writer), never fork two
// children off one parent.
//
//racelint:cowsafe
func (ix *Index) Grow(entries []string) *Index {
	nx := &Index{
		k:      ix.k,
		n:      ix.n + len(entries),
		dir:    make([]map[string][]int, fanout),
		kmers:  ix.kmers,
		always: ix.always,
		stats:  ix.stats,
	}
	copy(nx.dir, ix.dir)
	// owned marks the buckets already copied away from the parent.
	var owned [fanout]bool
	for j, entry := range entries {
		i := ix.n + j
		if len(entry) < ix.k {
			nx.always = append(nx.always, i)
			continue
		}
		for o := 0; o+ix.k <= len(entry); o++ {
			kmer := entry[o : o+ix.k]
			b := bucketOf(kmer)
			bucket := nx.dir[b]
			if !owned[b] {
				owned[b] = true
				if bucket == nil {
					bucket = make(map[string][]int)
				} else {
					bucket = maps.Clone(bucket)
				}
				nx.dir[b] = bucket
			}
			post := bucket[kmer]
			if len(post) == 0 {
				nx.kmers++
			}
			// Consecutive windows of one entry often repeat a k-mer;
			// the ascending slot order makes dedup a tail check.
			if len(post) == 0 || post[len(post)-1] != i {
				bucket[kmer] = append(post, i)
			}
		}
	}
	return nx
}

// K returns the seed length.
func (ix *Index) K() int { return ix.k }

// Len returns the number of indexed entries.
func (ix *Index) Len() int { return ix.n }

// Kmers returns the number of distinct k-mers in the database.
func (ix *Index) Kmers() int { return ix.kmers }

// postings returns the ascending entry list of one k-mer, nil when no
// entry contains it.
func (ix *Index) postings(kmer string) []int { return ix.dir[bucketOf(kmer)][kmer] }

// Candidates returns the ascending indices of every entry sharing at
// least one k-mer with query, plus the entries too short to index.  A
// query shorter than k has no seeds to look up, so every entry is a
// candidate.  The result is never nil: an empty candidate set is an
// empty slice, distinct from the nil "scan everything" convention of
// pipeline.Request.
func (ix *Index) Candidates(query string) []int {
	if ix.stats != nil {
		ix.stats.Lookups.Add(1)
	}
	if len(query) < ix.k {
		all := make([]int, ix.n)
		for i := range all {
			all[i] = i
		}
		if ix.stats != nil {
			ix.stats.FullCover.Add(1)
			ix.stats.Candidates.Add(int64(len(all)))
		}
		return all
	}
	// Gather the postings of the query's distinct k-mers plus the short
	// entries, then sort and dedupe: O(hits log hits), never O(slots).
	kmers := make([]string, 0, len(query)-ix.k+1)
	for j := 0; j+ix.k <= len(query); j++ {
		kmers = append(kmers, query[j:j+ix.k])
	}
	slices.Sort(kmers)
	kmers = slices.Compact(kmers)
	hits := len(ix.always)
	for _, kmer := range kmers {
		hits += len(ix.postings(kmer))
	}
	cands := make([]int, 0, hits)
	for _, kmer := range kmers {
		cands = append(cands, ix.postings(kmer)...)
	}
	cands = append(cands, ix.always...)
	slices.Sort(cands)
	cands = slices.Compact(cands)
	if ix.stats != nil {
		ix.stats.Candidates.Add(int64(len(cands)))
	}
	return cands
}
