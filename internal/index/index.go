package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
)

// fanoutBits is log2 of fanout.
const fanoutBits = 10

// fanout is the number of buckets in an index's postings directory.
// 1024 keeps buckets at ~64 k-mers for the 65536 possible DNA 8-mers,
// so the buckets a Grow rebuilds stay small next to the 8 KiB directory.
const fanout = 1 << fanoutBits

// prefixLen is the number of a k-mer's leading bytes packed into its
// uint64 key; the k−prefixLen bytes past them, when k > prefixLen, are
// its tail.
const prefixLen = 8

// bucketOf selects the directory bucket of the k-mer with packed prefix
// key and tail bytes.  The hash is seedless, so bucket placement — and
// with it every derived index — is the same in every process.
func bucketOf(key uint64, tail string) int {
	h := key
	for i := 0; i < len(tail); i++ {
		h = (h ^ uint64(tail[i])) * 0x100000001b3
	}
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	return int(h >> (64 - fanoutBits))
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
// length-k substring, the ascending list of entries containing it.  The
// k-mers are split into fanout buckets by a hash; each bucket keeps its
// k-mers sorted as packed integer keys with their postings in
// compressed sparse rows, so a lookup is a binary search and the whole
// index holds a handful of pointer-free arrays per bucket.  An Index is
// immutable after construction and safe for concurrent use; Grow
// derives an extended Index copy-on-write instead of mutating.
//
//racelint:cow
type Index struct {
	k int
	n int
	// dir is the postings directory: one bucket per hash value, nil
	// exactly when no k-mer hashes to it.  Versions of one lineage share
	// every bucket a Grow did not touch.
	dir []*bucket
	// kmers is the number of distinct k-mers across all buckets.
	kmers int
	// always holds the entries shorter than k: they carry no k-mer, so
	// seed lookup can never rule them out.
	always []int
	// stats, when attached, receives lookup counters.  Grow propagates
	// the pointer, so one sink spans a database's whole index lineage.
	stats *Stats
}

// bucket holds the k-mers of one directory slot in ascending byte
// order.  A bucket is never written once an Index points at it; Grow
// replaces a bucket it touches with a merged copy.
//
//racelint:cow
type bucket struct {
	// keys are the k-mers' packed prefixes: the first min(k, prefixLen)
	// bytes, big-endian, so integer order is byte order.
	keys []uint64
	// tails holds the bytes past each prefix, k−prefixLen per k-mer in
	// key order; it is empty when k ≤ prefixLen.
	tails string
	// offs and slots are the postings: the ascending entry slots of
	// k-mer i are slots[offs[i]:offs[i+1]].
	offs  []int32
	slots []int32
}

// tail returns the tail bytes of k-mer i, tl bytes long.
func (b *bucket) tail(i, tl int) string { return b.tails[i*tl : (i+1)*tl] }

// search returns the position of the first k-mer at or after from that
// is not ordered before the k-mer (key, tail).
func (b *bucket) search(from int, key uint64, tail string) int {
	tl := len(tail)
	lo, hi := from, len(b.keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.keys[m] < key || b.keys[m] == key && b.tail(m, tl) < tail {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// find returns the position of the k-mer (key, tail) in b, or -1 when b
// does not hold it.
func (b *bucket) find(key uint64, tail string) int {
	if b == nil {
		return -1
	}
	if i := b.search(0, key, tail); i < len(b.keys) && b.keys[i] == key && b.tail(i, len(tail)) == tail {
		return i
	}
	return -1
}

// postings returns the ascending entry slots of k-mer i.
func (b *bucket) postings(i int) []int32 { return b.slots[b.offs[i]:b.offs[i+1]] }

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
	if err := checkSlots(0, entries); err != nil {
		return nil, err
	}
	return (&Index{k: k}).Grow(entries), nil
}

// checkSlots returns an error when entries appended at slot base would
// overflow the int32 slots and window offsets the index stores.
func checkSlots(base int, entries []string) error {
	if len(entries) > math.MaxInt32-base {
		return fmt.Errorf("index: %d entries past slot %d overflow int32 slots", len(entries), base)
	}
	for i, e := range entries {
		if len(e) > math.MaxInt32 {
			return fmt.Errorf("index: entry %d is %d bytes, past int32 offsets", base+i, len(e))
		}
	}
	return nil
}

// window is one k-mer occurrence in a sequence: its packed prefix, its
// directory bucket and its offset.
type window struct {
	key    uint64
	bucket int
	off    int
}

// windows appends every k-mer window of s to ws, rolling the packed
// prefix one byte per window.
func (ix *Index) windows(ws []window, s string) []window {
	if len(s) < ix.k {
		return ws
	}
	w := min(ix.k, prefixLen)
	mask := ^uint64(0) >> (64 - 8*w)
	var key uint64
	for i := 0; i < w-1; i++ {
		key = key<<8 | uint64(s[i])
	}
	for o := 0; o+ix.k <= len(s); o++ {
		key = (key<<8 | uint64(s[o+w-1])) & mask
		ws = append(ws, window{key: key, bucket: bucketOf(key, s[o+w:o+ix.k]), off: o})
	}
	return ws
}

// Grow returns a new Index covering the old entries plus entries
// appended at slots [ix.Len(), ix.Len()+len(entries)) — the incremental
// update for a database insert.  It copies the postings directory,
// counting-sorts the new entries' k-mers into their buckets, and
// replaces each bucket they land in with a merge of the old bucket and
// its sorted new k-mers; every other bucket is shared with the parent.
// Its cost is O(fanout + the k-mers and postings of the touched buckets
// + the new entries' k-mers), never O(every indexed k-mer).  No memory
// the parent reads is written, so any number of Grows may derive from
// one Index.  Grow panics when the slots outgrow int32 (New reports
// that as an error instead).
//
//racelint:cowsafe
func (ix *Index) Grow(entries []string) *Index {
	if err := checkSlots(ix.n, entries); err != nil {
		panic(err)
	}
	nx := &Index{
		k:      ix.k,
		n:      ix.n + len(entries),
		dir:    make([]*bucket, fanout),
		kmers:  ix.kmers,
		always: slices.Clip(ix.always),
		stats:  ix.stats,
	}
	copy(nx.dir, ix.dir)
	// Counting sort: size each bucket's run of new occurrences, then
	// place them, so each bucket sorts only its own run.
	var start [fanout + 1]int
	var ws []window
	for j, e := range entries {
		if len(e) < ix.k {
			nx.always = append(nx.always, ix.n+j)
			continue
		}
		ws = ix.windows(ws[:0], e)
		for _, w := range ws {
			start[w.bucket+1]++
		}
	}
	for b := 0; b < fanout; b++ {
		start[b+1] += start[b]
	}
	occ := make([]occurrence, start[fanout])
	next := start
	for j, e := range entries {
		ws = ix.windows(ws[:0], e)
		for _, w := range ws {
			occ[next[w.bucket]] = occurrence{key: w.key, slot: int32(ix.n + j), off: int32(w.off)}
			next[w.bucket]++
		}
	}
	g := &grower{k: ix.k, w: min(ix.k, prefixLen), tl: max(ix.k-prefixLen, 0), base: ix.n, entries: entries}
	for b := 0; b < fanout; b++ {
		run := occ[start[b]:start[b+1]]
		if len(run) == 0 {
			continue
		}
		slices.SortFunc(run, g.compare)
		var added int
		nx.dir[b], added = g.merge(nx.dir[b], run)
		nx.kmers += added
	}
	return nx
}

// occurrence is one k-mer window of an entry being added: its packed
// prefix, its entry slot and the window's offset in the entry.
type occurrence struct {
	key       uint64
	slot, off int32
}

// grower resolves the tails of one Grow's occurrences: the new entries,
// the slot the first of them takes, and the k-mer geometry.
type grower struct {
	k, w, tl int // seed length, packed prefix bytes, tail bytes
	base     int
	entries  []string
}

// tail returns the bytes of o's k-mer past its packed prefix.
func (g *grower) tail(o occurrence) string {
	return g.entries[int(o.slot)-g.base][int(o.off)+g.w : int(o.off)+g.k]
}

// compare orders occurrences by k-mer, then slot.
func (g *grower) compare(a, b occurrence) int {
	if a.key != b.key {
		return cmp.Compare(a.key, b.key)
	}
	if g.tl > 0 {
		if c := strings.Compare(g.tail(a), g.tail(b)); c != 0 {
			return c
		}
	}
	return cmp.Compare(a.slot, b.slot)
}

// sameKmer reports whether two occurrences are windows of one k-mer.
func (g *grower) sameKmer(a, b occurrence) bool {
	return a.key == b.key && (g.tl == 0 || g.tail(a) == g.tail(b))
}

// merge returns a new bucket uniting old (nil when empty) with occ, the
// bucket's new occurrences sorted by compare, and the number of k-mers
// occ adds.  The old k-mers between two new ones move as one run of
// each array.  Every new slot exceeds every slot in old, so appending a
// k-mer's new slots after its old ones keeps its postings ascending.
func (g *grower) merge(old *bucket, occ []occurrence) (*bucket, int) {
	// Drop the repeats of a k-mer within one entry, and count the
	// distinct new k-mers to size the arrays.
	kept, kmers := 0, 0
	for _, o := range occ {
		if kept > 0 && g.sameKmer(occ[kept-1], o) {
			if occ[kept-1].slot == o.slot {
				continue
			}
		} else {
			kmers++
		}
		occ[kept] = o
		kept++
	}
	occ = occ[:kept]
	if old == nil {
		old = new(bucket)
	}
	if len(old.slots)+len(occ) > math.MaxInt32 {
		panic(fmt.Sprintf("index: %d postings in one bucket overflow int32 offsets", len(old.slots)+len(occ)))
	}
	size := len(old.keys) + kmers
	keys := make([]uint64, 0, size)
	offs := make([]int32, 1, size+1)
	slots := make([]int32, 0, len(old.slots)+len(occ))
	var tails strings.Builder
	tails.Grow(size * g.tl)
	// run appends old k-mers [i, end) with their postings.
	run := func(i, end int) {
		keys = append(keys, old.keys[i:end]...)
		tails.WriteString(old.tails[i*g.tl : end*g.tl])
		n, delta := len(offs), int32(len(slots))-old.offs[i]
		offs = append(offs, old.offs[i+1:end+1]...)
		for x := n; x < len(offs); x++ {
			offs[x] += delta
		}
		slots = append(slots, old.slots[old.offs[i]:old.offs[end]]...)
	}
	added, i := 0, 0
	for j := 0; j < len(occ); {
		tail := g.tail(occ[j])
		at := old.search(i, occ[j].key, tail)
		if at > i {
			run(i, at)
		}
		if at < len(old.keys) && old.keys[at] == occ[j].key && old.tail(at, g.tl) == tail {
			run(at, at+1)
			at++
		} else {
			keys = append(keys, occ[j].key)
			tails.WriteString(tail)
			offs = append(offs, int32(len(slots)))
			added++
		}
		for first := occ[j]; j < len(occ) && g.sameKmer(first, occ[j]); j++ {
			slots = append(slots, occ[j].slot)
		}
		offs[len(offs)-1] = int32(len(slots))
		i = at
	}
	if i < len(old.keys) {
		run(i, len(old.keys))
	}
	return &bucket{keys: keys, tails: tails.String(), offs: offs, slots: slots}, added
}

// K returns the seed length.
func (ix *Index) K() int { return ix.k }

// Len returns the number of indexed entries.
func (ix *Index) Len() int { return ix.n }

// Kmers returns the number of distinct k-mers in the database.
func (ix *Index) Kmers() int { return ix.kmers }

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
	// Binary-search each window's k-mer in its bucket.  A hit packs the
	// (bucket, position) of an indexed k-mer into one word, so sorting
	// the hits drops the query's repeated k-mers.  Then gather their
	// postings plus the short entries, sort and dedupe:
	// O(hits log hits), never O(slots).
	var wbuf [32]window
	var hbuf [32]uint64
	w := min(ix.k, prefixLen)
	hits := hbuf[:0]
	for _, win := range ix.windows(wbuf[:0], query) {
		if i := ix.dir[win.bucket].find(win.key, query[win.off+w:win.off+ix.k]); i >= 0 {
			hits = append(hits, uint64(win.bucket)<<32|uint64(i))
		}
	}
	slices.Sort(hits)
	hits = slices.Compact(hits)
	n := len(ix.always)
	for _, h := range hits {
		n += len(ix.dir[h>>32].postings(int(uint32(h))))
	}
	cands := make([]int, 0, n)
	for _, h := range hits {
		for _, slot := range ix.dir[h>>32].postings(int(uint32(h))) {
			cands = append(cands, int(slot))
		}
	}
	cands = append(cands, ix.always...)
	slices.Sort(cands)
	cands = slices.Compact(cands)
	if ix.stats != nil {
		ix.stats.Candidates.Add(int64(len(cands)))
	}
	return cands
}
