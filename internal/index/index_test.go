package index

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"racelogic/internal/seqgen"
)

// naiveCandidates is the brute-force reference: entries sharing at least
// one k-mer with the query, plus entries shorter than k.
func naiveCandidates(entries []string, query string, k int) []int {
	cands := make([]int, 0, len(entries))
	qmers := make(map[string]bool)
	for j := 0; j+k <= len(query); j++ {
		qmers[query[j:j+k]] = true
	}
	for i, entry := range entries {
		if len(entry) < k || len(query) < k {
			cands = append(cands, i)
			continue
		}
		hit := false
		for j := 0; j+k <= len(entry); j++ {
			if qmers[entry[j:j+k]] {
				hit = true
				break
			}
		}
		if hit {
			cands = append(cands, i)
		}
	}
	return cands
}

func TestNewRejectsBadK(t *testing.T) {
	for _, k := range []int{0, -3} {
		if _, err := New([]string{"ACGT"}, k); err == nil {
			t.Errorf("k=%d must error", k)
		}
	}
}

// byteAlphabet mixes the protein letters with bytes no sequence
// alphabet holds, 0x00 and 0xFF among them, so packed prefixes must
// order arbitrary bytes.
const byteAlphabet = "ARNDCQEGHILKMFPSTWYV\x00\x01\x7f\x80\xfe\xff"

// byteStem opens every other entry of a byte corpus.  It is exactly a
// packed prefix long, so at k > 8 the first windows of those entries
// share their prefix and differ only in the tail.
const byteStem = "\xffMK\x00\x80VL\xff"

// corpus is a test database and the queries run against it.
type corpus struct {
	name             string
	entries, queries []string
}

// corpora returns a DNA and a byte database holding count entries of
// each length in lens, each queried with random strings, with mutated
// entries, and with entries whose byte 8, 11 or 19 is changed — the
// last tail byte of the first window at k = 9, 12 and 20, so the
// window's prefix is indexed but the k-mer is not.
func corpora(seed int64, count int, lens []int) []corpus {
	var out []corpus
	for _, c := range []struct {
		name string
		g    *seqgen.Generator
	}{
		{"dna", seqgen.NewDNA(seed)},
		{"bytes", seqgen.New(byteAlphabet, seed)},
	} {
		var entries []string
		for _, n := range lens {
			for i := 0; i < count; i++ {
				e := c.g.Random(n)
				if c.name == "bytes" && i%2 == 0 {
					e = (byteStem + e)[:n]
				}
				entries = append(entries, e)
			}
		}
		var queries []string
		for trial := 0; trial < 10; trial++ {
			queries = append(queries, c.g.Random(4+3*trial))
			e := entries[(trial*37)%len(entries)]
			if m, err := c.g.Mutate(e, min(1, len(e)), 0, 0); err == nil {
				queries = append(queries, m)
			}
		}
		alphabet := c.g.Alphabet()
		for trial, p := range []int{8, 11, 19, 8, 11, 19} {
			e := []byte(entries[len(entries)-1-2*trial])
			if len(e) > p {
				e[p] = alphabet[(strings.IndexByte(alphabet, e[p])+1)%len(alphabet)]
				queries = append(queries, string(e))
			}
		}
		out = append(out, corpus{c.name, entries, queries})
	}
	return out
}

// TestCandidatesMatchBruteForce cross-checks the inverted index against
// the naive all-pairs k-mer scan on mixed-length random databases, DNA
// and arbitrary bytes, at seed lengths on both sides of the packed
// prefix.
func TestCandidatesMatchBruteForce(t *testing.T) {
	for _, c := range corpora(31, 15, []int{3, 6, 9, 12, 24, 40}) {
		for _, k := range []int{2, 4, 5, 9, 12, 20} {
			ix, err := New(c.entries, k)
			if err != nil {
				t.Fatal(err)
			}
			checkLayout(t, ix)
			for _, q := range c.queries {
				got := ix.Candidates(q)
				want := naiveCandidates(c.entries, q, k)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, k=%d query %q: got %v, want %v", c.name, k, q, got, want)
				}
			}
		}
	}
}

// TestCandidatesExactCases pins the structural cases by hand.
func TestCandidatesExactCases(t *testing.T) {
	entries := []string{
		"ACGTACGT", // shares ACGT with the query
		"TTTTTTTT", // no 4-mer in common
		"GT",       // shorter than k: always a candidate
		"CCACGTCC", // ACGT embedded mid-entry
	}
	ix, err := New(entries, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix.Candidates("AACGTA"), []int{0, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("candidates = %v, want %v", got, want)
	}
	// A query with no matching seed keeps only the unfilterable entry.
	if got, want := ix.Candidates("GGGGGG"), []int{2}; !reflect.DeepEqual(got, want) {
		t.Errorf("no-seed query: candidates = %v, want %v", got, want)
	}
	// A query shorter than k cannot be filtered at all.
	if got := ix.Candidates("ACG"); len(got) != len(entries) {
		t.Errorf("short query: candidates = %v, want all %d entries", got, len(entries))
	}
	// An empty candidate set must still be non-nil (pipeline treats nil
	// as "scan everything").
	empty, err := New([]string{"AAAA"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.Candidates("CCCC"); got == nil || len(got) != 0 {
		t.Errorf("empty candidate set must be non-nil empty, got %#v", got)
	}
	// Past the packed prefix the tail decides.  These 10-mers share
	// their first 8 bytes, 0x00 and 0xFF among them, and their tails
	// are picked to share one bucket, so only the tail compare tells
	// them apart.
	stem := "\x00\xff\x00\xff\x00\xff\x00\xff"
	tails := collidingTails(binary.BigEndian.Uint64([]byte(stem)), 3)
	long, err := New([]string{stem + tails[0], stem + tails[2]}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string][]int{
		stem + tails[0]:              {0},
		stem + tails[1]:              {},
		stem + tails[2]:              {1},
		"\x01" + stem + tails[0][:1]: {},
	} {
		if got := long.Candidates(q); !reflect.DeepEqual(got, want) {
			t.Errorf("k=10 query %q: candidates %v, want %v", q, got, want)
		}
	}
}

// collidingTails returns n ascending 2-byte tails that put the k-mers
// with packed prefix key into one bucket.
func collidingTails(key uint64, n int) []string {
	byBucket := make(map[int][]string)
	for v := 0; v < 1<<16; v++ {
		tail := string([]byte{byte(v >> 8), byte(v)})
		b := bucketOf(key, tail)
		if byBucket[b] = append(byBucket[b], tail); len(byBucket[b]) == n {
			return byBucket[b]
		}
	}
	panic("no bucket holds n tails")
}

func TestStats(t *testing.T) {
	ix, err := New([]string{"ACGT", "ACGA", "AC"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ix.K() != 3 || ix.Len() != 3 {
		t.Errorf("K=%d Len=%d, want 3 and 3", ix.K(), ix.Len())
	}
	// Distinct 3-mers: ACG, CGT, CGA.
	if ix.Kmers() != 3 {
		t.Errorf("Kmers=%d, want 3", ix.Kmers())
	}
}

// TestGrowMatchesFromScratch is the incremental-update property: growing
// an index batch by batch must leave it bit-identical (k-mers, postings,
// unfilterable short entries) to a from-scratch New over the same
// entries, on DNA and on arbitrary bytes, at seed lengths below, at and
// above the packed prefix.  New fills empty buckets directly and Grow
// merges into held ones, so this pins the two paths to one layout.
// Every Grow must rebuild only the buckets its k-mers land in and leave
// its parent untouched (checkGrowShares).  The one-entry lineage is the
// shape database inserts and WAL replay produce.
func TestGrowMatchesFromScratch(t *testing.T) {
	mixed := corpora(37, 6, []int{2, 5, 8, 11, 16, 24})
	lineage := corpora(41, 60, []int{3, 12, 24, 40})
	for ci := range mixed {
		for _, tc := range []struct {
			name       string
			c          corpus
			base, step int
		}{
			{"batches of 7", mixed[ci], 5, 7},
			{"one-entry lineage", lineage[ci], 30, 1},
		} {
			all := tc.c.entries
			for _, k := range []int{3, 4, 6, 7, 8, 9, 12, 20} {
				ix, err := New(all[:tc.base], k)
				if err != nil {
					t.Fatal(err)
				}
				for at := tc.base; at < len(all); at += tc.step {
					end := min(at+tc.step, len(all))
					parent, before := ix, deepCopy(ix)
					ix = ix.Grow(all[at:end])
					if !checkGrowShares(t, parent, before, ix, all[at:end]) {
						t.Fatalf("%s %s, k=%d: Grow at slot %d broke copy-on-write", tc.c.name, tc.name, k, at)
					}
					if ix.Len() != end {
						t.Fatalf("%s %s, k=%d: grown Len=%d, want %d", tc.c.name, tc.name, k, ix.Len(), end)
					}
				}
				fresh, err := New(all, k)
				if err != nil {
					t.Fatal(err)
				}
				checkLayout(t, fresh)
				if !reflect.DeepEqual(ix, fresh) {
					t.Errorf("%s %s, k=%d: incrementally grown index differs from from-scratch build", tc.c.name, tc.name, k)
				}
				for _, q := range tc.c.queries {
					if got, want := ix.Candidates(q), naiveCandidates(all, q, k); !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s, k=%d query %q: grown candidates %v, brute force %v", tc.c.name, tc.name, k, q, got, want)
					}
				}
			}
		}
	}
}

// checkGrowShares asserts the copy-on-write shape of child =
// parent.Grow(entries): the child shares, by bucket pointer, every
// bucket the entries' k-mers miss, holds its own copy of every bucket
// they hit — a new bucket sharing no array with the parent's — and the
// parent still deep-equals before, a copy taken ahead of the Grow.
func checkGrowShares(t *testing.T, parent, before, child *Index, entries []string) bool {
	t.Helper()
	touched := make(map[int]bool)
	for _, e := range entries {
		for _, w := range parent.windows(nil, e) {
			touched[w.bucket] = true
		}
	}
	ok := true
	for b := range child.dir {
		same := child.dir[b] == parent.dir[b]
		if touched[b] && same {
			t.Errorf("bucket %d: written in place, shared with the parent", b)
			ok = false
		}
		if !touched[b] && !same {
			t.Errorf("bucket %d: copied, though no new k-mer lands in it", b)
			ok = false
		}
		if touched[b] && sharesArrays(child.dir[b], parent.dir[b]) {
			t.Errorf("bucket %d: rebuilt over the parent's arrays", b)
			ok = false
		}
	}
	if !reflect.DeepEqual(parent, before) {
		t.Error("Grow mutated its parent")
		ok = false
	}
	return ok
}

// sharesArrays reports whether two buckets share a backing array.  The
// tails are a string, immutable, so sharing them could never expose a
// write.
func sharesArrays(a, b *bucket) bool {
	if a == nil || b == nil {
		return false
	}
	return &a.keys[0] == &b.keys[0] || &a.offs[0] == &b.offs[0] || &a.slots[0] == &b.slots[0]
}

// checkLayout asserts the sorted-bucket invariants every lookup relies
// on: each k-mer sits in the bucket its hash selects, in strictly
// ascending byte order, with a non-empty, strictly ascending posting
// list, and Kmers counts them.
func checkLayout(t *testing.T, ix *Index) {
	t.Helper()
	w, tl := min(ix.k, prefixLen), max(ix.k-prefixLen, 0)
	kmers := 0
	for b, bk := range ix.dir {
		if bk == nil {
			continue
		}
		if len(bk.keys) == 0 || len(bk.offs) != len(bk.keys)+1 || len(bk.tails) != len(bk.keys)*tl ||
			bk.offs[0] != 0 || int(bk.offs[len(bk.keys)]) != len(bk.slots) {
			t.Fatalf("bucket %d: malformed arrays", b)
		}
		prev := ""
		for i, key := range bk.keys {
			var prefix [prefixLen]byte
			binary.BigEndian.PutUint64(prefix[:], key<<(64-8*w))
			s := string(prefix[:w]) + bk.tail(i, tl)
			if got := bucketOf(key, bk.tail(i, tl)); got != b {
				t.Fatalf("bucket %d holds k-mer %q, which hashes to %d", b, s, got)
			}
			if i > 0 && s <= prev {
				t.Fatalf("bucket %d: k-mer %q after %q breaks byte order", b, s, prev)
			}
			prev = s
			post := bk.postings(i)
			if len(post) == 0 || !slices.IsSorted(post) || len(slices.Compact(slices.Clone(post))) != len(post) {
				t.Fatalf("bucket %d k-mer %q: postings %v not strictly ascending", b, s, post)
			}
		}
		kmers += len(bk.keys)
	}
	if kmers != ix.Kmers() {
		t.Fatalf("Kmers() = %d, buckets hold %d", ix.Kmers(), kmers)
	}
}

// deepCopy returns a copy of ix sharing no bucket or slice with it.
func deepCopy(ix *Index) *Index {
	cp := *ix
	cp.always = slices.Clone(ix.always)
	cp.dir = make([]*bucket, len(ix.dir))
	for b, bk := range ix.dir {
		if bk == nil {
			continue
		}
		cp.dir[b] = &bucket{
			keys:  slices.Clone(bk.keys),
			tails: strings.Clone(bk.tails),
			offs:  slices.Clone(bk.offs),
			slots: slices.Clone(bk.slots),
		}
	}
	return &cp
}

// TestConcurrentCandidatesDuringGrow races seed lookups on published
// versions against the growth of later ones.  Versions of one lineage
// share bucket maps and posting arrays, so under -race this checks that
// a Grow never writes memory an earlier version reads.  One goroutine
// grows, as the shard lock serializes writers; the readers check every
// published version against the answer recorded when it was published.
func TestConcurrentCandidatesDuringGrow(t *testing.T) {
	g := seqgen.NewDNA(47)
	entries := g.Database(400, 16)
	queries := []string{entries[3], entries[250], entries[399], g.Random(16), g.Random(9), "AC"}
	type version struct {
		ix   *Index
		want [][]int
	}
	answers := func(ix *Index) [][]int {
		want := make([][]int, len(queries))
		for q, query := range queries {
			want[q] = ix.Candidates(query)
		}
		return want
	}
	ix, err := New(entries[:100], 5)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	published := []version{{ix, answers(ix)}}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// One last full pass after the writer stops, so every
				// version is checked at least once.
				var last bool
				select {
				case <-done:
					last = true
				default:
				}
				mu.Lock()
				vs := published
				mu.Unlock()
				// Newest first: the version the writer just grew from is
				// the one whose memory the next Grow shares most.
				for v := len(vs) - 1; v >= 0; v-- {
					for q, query := range queries {
						if got := vs[v].ix.Candidates(query); !reflect.DeepEqual(got, vs[v].want[q]) {
							t.Errorf("version %d query %q: candidates %v, %v at publish", v, query, got, vs[v].want[q])
							return
						}
					}
				}
				if last {
					return
				}
			}
		}()
	}
	for _, e := range entries[100:] {
		ix = ix.Grow([]string{e})
		v := version{ix, answers(ix)}
		mu.Lock()
		published = append(published, v)
		mu.Unlock()
	}
	close(done)
	wg.Wait()
}

// TestGrowEmptyAndShort pins the edge cases: growing by nothing is an
// identical copy, and entries shorter than k land in the unfilterable
// set.
func TestGrowEmptyAndShort(t *testing.T) {
	ix, err := New([]string{"ACGTACGT"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := ix.Grow(nil)
	if !reflect.DeepEqual(same, ix) {
		t.Error("Grow(nil) must be an identical copy")
	}
	grown := ix.Grow([]string{"AC", "TTTTT"})
	if grown.Len() != 3 {
		t.Fatalf("Len = %d, want 3", grown.Len())
	}
	if got := grown.Candidates("GGGGG"); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("short entry must stay unfilterable, candidates = %v", got)
	}
	if got := grown.Candidates("TTTT"); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("grown entry must be seed-reachable, candidates = %v", got)
	}
}

// TestGrowForks pins that Grow writes nothing its parent reads: two
// children grown from one parent each equal a from-scratch build of
// their own entries.  The parent's posting list for ACGT and its short
// entries both have spare capacity, and the children put their short
// entry and their ACGT entry at opposite slots, so an append into
// either shared array would rewrite the other child's view.
func TestGrowForks(t *testing.T) {
	base := []string{"ACGTAA", "AC", "CACGTC", "GT", "TACGTT", "TG"}
	parent, err := New(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	forks := [][]string{{"TT", "ACGTA"}, {"ACGTC", "GG"}}
	var children []*Index
	for _, more := range forks {
		children = append(children, parent.Grow(more))
	}
	for i, more := range forks {
		fresh, err := New(append(slices.Clip(base), more...), 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(children[i], fresh) {
			t.Errorf("child grown by %q differs from a from-scratch build", more)
		}
	}
}

// TestGrowPastInt32Slots pins the loud failure of a shard outgrowing
// the index's int32 slots: Grow panics instead of wrapping a slot.
func TestGrowPastInt32Slots(t *testing.T) {
	full := &Index{k: 4, n: math.MaxInt32, dir: make([]*bucket, fanout)}
	defer func() {
		if recover() == nil {
			t.Error("a Grow past math.MaxInt32 slots must panic")
		}
	}()
	full.Grow([]string{"ACGTACGT"})
}

// FuzzIndexMatchesBruteForce checks, on arbitrary entries, queries and
// k in 1..24, that New, a one-entry Grow lineage and naiveCandidates
// agree: the lineage deep-equals the from-scratch build, the build
// keeps the sorted-bucket layout, and every lookup returns exactly the
// brute-force candidates.  Entries are the corpus split at sep, so any
// byte but the separator can appear in them.
func FuzzIndexMatchesBruteForce(f *testing.F) {
	f.Add([]byte("ACGTACGT\nTTACGTAA\nAC\nGGACGTACGTTT"), []byte("GACGTA"), byte('\n'), uint8(3))
	f.Add([]byte("\x00\xff\x00\xff\x00\xff\x00\xff\x00\xff,\xff\x00\xff\x00\xff\x00\xff\x00\xff\x00,\x00\xff\x00\xff\x00\xff\x00\xff\xff"),
		[]byte("\xff\x00\xff\x00\xff\x00\xff\x00\xff\x00\xff"), byte(','), uint8(8))
	f.Add([]byte(byteStem+"MKVLA;"+byteStem+"QQ;"+byteStem+"MKVLB;MKVLA"), []byte(byteStem+"MKVLB"), byte(';'), uint8(15))
	f.Fuzz(func(t *testing.T, corpus, query []byte, sep byte, k uint8) {
		entries := strings.Split(string(corpus), string([]byte{sep}))
		if len(entries) > 64 {
			entries = entries[:64]
		}
		kk := 1 + int(k)%24
		ix, err := New(entries, kk)
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, ix)
		grown, err := New(nil, kk)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			grown = grown.Grow([]string{e})
		}
		if !reflect.DeepEqual(grown, ix) {
			t.Fatalf("k=%d: one-entry Grow lineage differs from New", kk)
		}
		for _, q := range append([]string{string(query)}, entries...) {
			if got, want := ix.Candidates(q), naiveCandidates(entries, q, kk); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d query %q: candidates %v, brute force %v", kk, q, got, want)
			}
		}
	})
}

var sinkIndex *Index

// BenchmarkNew times the from-scratch build of one 10k-entry shard of
// length-24 DNA at k = 8: the rebuild each shard's Open, reshard and
// Compact pay.
func BenchmarkNew(b *testing.B) {
	entries := seqgen.NewDNA(61).Database(10000, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := New(entries, 8)
		if err != nil {
			b.Fatal(err)
		}
		sinkIndex = ix
	}
}

// BenchmarkGrow measures one-entry Grows on a 10k-entry DNA index at
// k=8, derived linearly as database inserts and WAL replay derive them.
// In "distinct" the entries are random; in "shared-kmer" every entry
// starts with one common 8-mer, so every Grow rebuilds the bucket whose
// posting list names every entry — the worst case for a layout that
// copies the postings of the buckets it touches.
func BenchmarkGrow(b *testing.B) {
	for _, tc := range []struct{ name, shared string }{
		{"distinct", ""},
		{"shared-kmer", "ACGTACGT"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := seqgen.NewDNA(61)
			db := func(count int) []string {
				entries := g.Database(count, 24-len(tc.shared))
				for i := range entries {
					entries[i] = tc.shared + entries[i]
				}
				return entries
			}
			ix, err := New(db(10000), 8)
			if err != nil {
				b.Fatal(err)
			}
			extra := db(1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(extra)
				ix = ix.Grow(extra[j : j+1])
			}
			sinkIndex = ix
		})
	}
}

var sinkCandidates []int

// BenchmarkCandidates times one seed lookup of the mixed-durable shape:
// a 10k-entry shard of length-24 entries at k = 8, queried with entries
// carrying two substitutions, so a lookup returns a few dozen of the
// shard's slots.
func BenchmarkCandidates(b *testing.B) {
	g := seqgen.NewDNA(61)
	entries := g.Database(10000, 24)
	ix, err := New(entries, 8)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]string, 64)
	for i := range queries {
		if queries[i], err = g.Mutate(entries[(i*157)%len(entries)], 2, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	hits := 0
	for _, q := range queries {
		hits += len(ix.Candidates(q))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCandidates = ix.Candidates(queries[i%len(queries)])
	}
	b.ReportMetric(float64(hits)/float64(len(queries)), "cands/op")
}
