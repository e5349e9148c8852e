package index

import (
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
// indices.  Every bucket starts empty, so New fills each one directly
// from its sorted k-mers (see builder.fill); no bucket is merged.
//
//racelint:cowsafe
func New(entries []string, k int) (*Index, error) {
	if k < 1 {
		return nil, fmt.Errorf("index: seed length %d must be ≥ 1", k)
	}
	if err := checkSlots(0, entries); err != nil {
		return nil, err
	}
	g := newBuilder(k, 0, entries)
	occ, short := g.occurrences()
	ix := &Index{k: k, n: len(entries), dir: make([]*bucket, fanout), always: short}
	ix.kmers = g.fill(ix.dir, g.sortByKmer(occ))
	return ix, nil
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
// sorts the new entries' k-mers into fresh buckets as New does, and
// replaces each bucket they land in that already held k-mers with a
// merge of the two; every other bucket is shared with the parent.  Its
// cost is O(fanout + the k-mers and postings of the touched buckets +
// the new entries' k-mers), never O(every indexed k-mer).  No memory
// the parent reads is written, so any number of Grows may derive from
// one Index.  Grow panics when the slots outgrow int32 (New reports
// that as an error instead).
//
//racelint:cowsafe
func (ix *Index) Grow(entries []string) *Index {
	if err := checkSlots(ix.n, entries); err != nil {
		panic(err)
	}
	g := newBuilder(ix.k, ix.n, entries)
	occ, short := g.occurrences()
	nx := &Index{
		k:      ix.k,
		n:      ix.n + len(entries),
		dir:    make([]*bucket, fanout),
		kmers:  ix.kmers,
		always: append(slices.Clip(ix.always), short...),
		stats:  ix.stats,
	}
	copy(nx.dir, ix.dir)
	nx.kmers += g.fill(nx.dir, g.sortByKmer(occ))
	return nx
}

// occurrence is one k-mer window of an entry being indexed: its packed
// prefix, its entry slot and the window's offset in the entry.
type occurrence struct {
	key       uint64
	slot, off int32
}

// builder indexes one batch of entries appended at slot base: it lists
// their k-mer occurrences, sorts them by k-mer and fills buckets.
type builder struct {
	k, w, tl int // seed length, packed prefix bytes, tail bytes
	base     int
	entries  []string
}

func newBuilder(k, base int, entries []string) *builder {
	return &builder{k: k, w: min(k, prefixLen), tl: max(k-prefixLen, 0), base: base, entries: entries}
}

// tail returns the bytes of o's k-mer past its packed prefix.
func (g *builder) tail(o occurrence) string {
	if g.tl == 0 {
		return ""
	}
	return g.entries[int(o.slot)-g.base][int(o.off)+g.w : int(o.off)+g.k]
}

// sameKmer reports whether two occurrences are windows of one k-mer.
func (g *builder) sameKmer(a, b occurrence) bool {
	return a.key == b.key && (g.tl == 0 || g.tail(a) == g.tail(b))
}

// occurrences lists every k-mer window of the entries in slot order,
// offsets ascending within an entry, and returns the slots of the
// entries shorter than k (nil when there are none).
func (g *builder) occurrences() ([]occurrence, []int) {
	total := 0
	var short []int
	for j, e := range g.entries {
		if len(e) < g.k {
			short = append(short, g.base+j)
			continue
		}
		total += len(e) - g.k + 1
	}
	occ := make([]occurrence, 0, total)
	mask := ^uint64(0) >> (64 - 8*g.w)
	for j, e := range g.entries {
		if len(e) < g.k {
			continue
		}
		slot := int32(g.base + j)
		var key uint64
		for i := 0; i < g.w-1; i++ {
			key = key<<8 | uint64(e[i])
		}
		for o := 0; o+g.k <= len(e); o++ {
			key = (key<<8 | uint64(e[o+g.w-1])) & mask
			occ = append(occ, occurrence{key: key, slot: slot, off: int32(o)})
		}
	}
	return occ, short
}

// sortByKmer stable-sorts occ by k-mer with a least-significant-digit
// radix sort: one counting pass per k-mer byte, from the last byte to
// the first, skipping a byte every occurrence shares.  A byte inside
// the packed prefix is read from the key, a tail byte from the entry,
// so every k takes the same path.  Stability keeps the occurrences of
// one k-mer in the order occurrences listed them, so the result is
// grouped by k-mer in byte order with each group's slots ascending.
func (g *builder) sortByKmer(occ []occurrence) []occurrence {
	if len(occ) < 2 {
		return occ
	}
	buf := make([]occurrence, len(occ))
	digits := make([]byte, len(occ))
	var start [256]int
	for j := g.k - 1; j >= 0; j-- {
		clear(start[:])
		if j < g.w {
			shift := 8 * uint(g.w-1-j)
			for i, o := range occ {
				d := byte(o.key >> shift)
				digits[i] = d
				start[d]++
			}
		} else {
			for i, o := range occ {
				d := g.entries[int(o.slot)-g.base][int(o.off)+j]
				digits[i] = d
				start[d]++
			}
		}
		if start[digits[0]] == len(occ) {
			continue
		}
		pos := 0
		for d, n := range start {
			start[d] = pos
			pos += n
		}
		for i, o := range occ {
			d := digits[i]
			buf[start[d]] = o
			start[d]++
		}
		occ, buf = buf, occ
	}
	return occ
}

// fill adds the k-mers of occ, sorted by sortByKmer, to dir and returns
// how many of them dir did not hold.  The first walk counts the new
// k-mers and postings each bucket receives; the second writes every
// distinct k-mer, dropping its repeats within one entry, into its
// bucket's windows of arrays shared by the whole batch.  The k-mers
// arrive in byte order, so each bucket's do too.  A bucket dir left
// empty takes its fresh bucket as is; one that held k-mers is replaced
// by a merge of the two.
//
//racelint:cowsafe
func (g *builder) fill(dir []*bucket, occ []occurrence) int {
	// groups[x] is the bucket of the x-th distinct k-mer.
	var groups []uint16
	var cur [fanout]struct{ key, off, post, first int }
	for i := 0; i < len(occ); {
		b := bucketOf(occ[i].key, g.tail(occ[i]))
		groups = append(groups, uint16(b))
		cur[b].key++
		cur[b].post++
		j := i + 1
		for ; j < len(occ) && g.sameKmer(occ[i], occ[j]); j++ {
			if occ[j].slot != occ[j-1].slot {
				cur[b].post++
			}
		}
		i = j
	}
	if len(groups) == 0 {
		return 0
	}
	// Turn the counts into window starts.  A bucket's offsets take one
	// more element than its k-mers, the leading zero.
	keyAt, postAt, touched := 0, 0, 0
	for b := range cur {
		c := &cur[b]
		if c.key == 0 {
			continue
		}
		if c.post > math.MaxInt32 {
			panic(fmt.Sprintf("index: %d postings in one bucket overflow int32 offsets", c.post))
		}
		nk, np := c.key, c.post
		c.key, c.off, c.post, c.first = keyAt, keyAt+touched+1, postAt, postAt
		keyAt += nk
		postAt += np
		touched++
	}
	keys := make([]uint64, keyAt)
	offs := make([]int32, keyAt+touched)
	slots := make([]int32, postAt)
	tails := make([]byte, keyAt*g.tl)
	for i, x := 0, 0; i < len(occ); x++ {
		c := &cur[groups[x]]
		keys[c.key] = occ[i].key
		copy(tails[c.key*g.tl:], g.tail(occ[i]))
		slots[c.post] = occ[i].slot
		c.post++
		j := i + 1
		for ; j < len(occ) && g.sameKmer(occ[i], occ[j]); j++ {
			if occ[j].slot != occ[j-1].slot {
				slots[c.post] = occ[j].slot
				c.post++
			}
		}
		offs[c.off] = int32(c.post - c.first)
		c.key++
		c.off++
		i = j
	}
	// Cut the windows in bucket order: each ends where its cursors
	// stopped, and the next starts there.
	tailStr := string(tails)
	added := 0
	keyAt, postAt = 0, 0
	for b := range cur {
		c := &cur[b]
		if c.post == c.first {
			continue // no new k-mer: untouched
		}
		o := keyAt + (c.off - c.key) - 1
		fresh := bucket{
			keys:  keys[keyAt:c.key:c.key],
			tails: tailStr[keyAt*g.tl : c.key*g.tl],
			offs:  offs[o:c.off:c.off],
			slots: slots[postAt:c.post:c.post],
		}
		if dir[b] == nil {
			installed := fresh
			dir[b] = &installed
			added += len(fresh.keys)
		} else {
			var n int
			dir[b], n = merge(dir[b], &fresh, g.tl)
			added += n
		}
		keyAt, postAt = c.key, c.post
	}
	return added
}

// merge returns a new bucket uniting old with fresh, a bucket of k-mers
// that all sit in later slots than old's, and the number of k-mers
// fresh adds.  The old k-mers between two fresh ones move as one run of
// each array, and a k-mer both hold lists old's slots, then fresh's,
// which keeps its postings ascending.
func merge(old, fresh *bucket, tl int) (*bucket, int) {
	if len(old.slots)+len(fresh.slots) > math.MaxInt32 {
		panic(fmt.Sprintf("index: %d postings in one bucket overflow int32 offsets", len(old.slots)+len(fresh.slots)))
	}
	size := len(old.keys) + len(fresh.keys)
	keys := make([]uint64, 0, size)
	offs := make([]int32, 1, size+1)
	slots := make([]int32, 0, len(old.slots)+len(fresh.slots))
	var tails strings.Builder
	tails.Grow(size * tl)
	// run appends old k-mers [i, end) with their postings.
	run := func(i, end int) {
		keys = append(keys, old.keys[i:end]...)
		tails.WriteString(old.tails[i*tl : end*tl])
		n, delta := len(offs), int32(len(slots))-old.offs[i]
		offs = append(offs, old.offs[i+1:end+1]...)
		for x := n; x < len(offs); x++ {
			offs[x] += delta
		}
		slots = append(slots, old.slots[old.offs[i]:old.offs[end]]...)
	}
	added, i := 0, 0
	for j, key := range fresh.keys {
		tail := fresh.tail(j, tl)
		at := old.search(i, key, tail)
		if at > i {
			run(i, at)
		}
		keys = append(keys, key)
		tails.WriteString(tail)
		if at < len(old.keys) && old.keys[at] == key && old.tail(at, tl) == tail {
			slots = append(slots, old.postings(at)...)
			at++
		} else {
			added++
		}
		slots = append(slots, fresh.postings(j)...)
		offs = append(offs, int32(len(slots)))
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
// pipeline.ShardScan.Candidates.
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
	// the hits drops the query's repeated k-mers.  Each hit's postings
	// and the short entries are ascending runs without repeats; gather
	// them and union them by merging: O(postings · log hits), never
	// O(slots).
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
	// The runs and the merge scratch sit on the stack unless the lookup
	// is large; only the union is copied out.
	var abuf, bbuf [128]int
	runs, scratch := abuf[:0], bbuf[:]
	if n > len(abuf) {
		runs, scratch = make([]int, 0, n), make([]int, n)
	}
	var ebuf [33]int
	ends := ebuf[:0]
	for _, h := range hits {
		for _, slot := range ix.dir[h>>32].postings(int(uint32(h))) {
			runs = append(runs, int(slot))
		}
		ends = append(ends, len(runs))
	}
	if len(ix.always) > 0 {
		runs = append(runs, ix.always...)
		ends = append(ends, len(runs))
	}
	union := unionRuns(runs, scratch, ends)
	cands := make([]int, len(union))
	copy(cands, union)
	if ix.stats != nil {
		ix.stats.Candidates.Add(int64(len(cands)))
	}
	return cands
}

// unionRuns unions the ascending runs of a that end at ends, each free
// of repeats, into one ascending run without repeats: rounds of pairwise
// merges, ping-ponging between a and scratch, which must be as long.
// The result aliases a or scratch.
func unionRuns(a, scratch []int, ends []int) []int {
	total := len(a)
	a, scratch = a[:total], scratch[:total]
	for len(ends) > 1 {
		out, lo := 0, 0
		next := ends[:0] // a round writes end r/2 after reading ends r and r+1
		for r := 0; r < len(ends); r += 2 {
			mid, hi := ends[r], ends[r]
			if r+1 < len(ends) {
				hi = ends[r+1]
			}
			out = mergeUnion(scratch, out, a[lo:mid], a[mid:hi])
			next = append(next, out)
			lo = hi
		}
		ends = next
		total = out
		a, scratch = scratch, a
	}
	return a[:total:total]
}

// mergeUnion writes the union of the ascending runs x and y into dst
// from out on, once per value, and returns where it stopped.
func mergeUnion(dst []int, out int, x, y []int) int {
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		a, b := x[i], y[j]
		dst[out] = min(a, b)
		out++
		i += b2i(a <= b)
		j += b2i(b <= a)
	}
	out += copy(dst[out:], x[i:])
	return out + copy(dst[out:], y[j:])
}

// b2i is 1 for true and 0 for false; the compiler makes it a SETcc, so
// the merge step above does not branch on the data.
func b2i(b bool) int {
	var x int
	if b {
		x = 1
	}
	return x
}
