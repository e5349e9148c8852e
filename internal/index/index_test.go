package index

import (
	"reflect"
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

// TestCandidatesMatchBruteForce cross-checks the inverted index against
// the naive all-pairs k-mer scan on a mixed-length random database.
func TestCandidatesMatchBruteForce(t *testing.T) {
	g := seqgen.NewDNA(31)
	var entries []string
	for _, n := range []int{3, 6, 9, 12} {
		entries = append(entries, g.Database(15, n)...)
	}
	for _, k := range []int{2, 4, 5} {
		ix, err := New(entries, k)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			q := g.Random(4 + trial)
			got := ix.Candidates(q)
			want := naiveCandidates(entries, q, k)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("k=%d query %q: got %v, want %v", k, q, got, want)
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
// entries.  Every Grow must copy only the buckets its k-mers land in and
// leave its parent untouched (checkGrowShares).  The one-entry lineage
// is the shape database inserts and WAL replay produce.
func TestGrowMatchesFromScratch(t *testing.T) {
	g := seqgen.NewDNA(37)
	var mixed []string
	for _, n := range []int{2, 5, 8, 11} {
		mixed = append(mixed, g.Database(6, n)...)
	}
	var lineage []string
	for i := 0; i < 330; i++ {
		lineage = append(lineage, g.Random([]int{3, 12, 24}[i%3]))
	}
	for _, tc := range []struct {
		name       string
		all        []string
		base, step int
	}{
		{"batches of 7", mixed, 5, 7},
		{"one-entry lineage", lineage, 30, 1},
	} {
		for _, k := range []int{3, 4, 6} {
			ix, err := New(tc.all[:tc.base], k)
			if err != nil {
				t.Fatal(err)
			}
			for at := tc.base; at < len(tc.all); at += tc.step {
				end := min(at+tc.step, len(tc.all))
				parent, before := ix, deepCopy(ix)
				ix = ix.Grow(tc.all[at:end])
				if !checkGrowShares(t, parent, before, ix, tc.all[at:end]) {
					t.Fatalf("%s, k=%d: Grow at slot %d broke copy-on-write", tc.name, k, at)
				}
				if ix.Len() != end {
					t.Fatalf("%s, k=%d: grown Len=%d, want %d", tc.name, k, ix.Len(), end)
				}
			}
			fresh, err := New(tc.all, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ix, fresh) {
				t.Errorf("%s, k=%d: incrementally grown index differs from from-scratch build", tc.name, k)
			}
			for trial := 0; trial < 8; trial++ {
				q := g.Random(3 + trial)
				if got, want := ix.Candidates(q), fresh.Candidates(q); !reflect.DeepEqual(got, want) {
					t.Errorf("%s, k=%d query %q: grown candidates %v, fresh %v", tc.name, k, q, got, want)
				}
			}
		}
	}
}

// checkGrowShares asserts the copy-on-write shape of child =
// parent.Grow(entries): the child shares, by map pointer, every bucket
// the entries' k-mers miss, holds its own copy of every bucket they hit,
// and the parent still deep-equals before, a copy taken ahead of the
// Grow.
func checkGrowShares(t *testing.T, parent, before, child *Index, entries []string) bool {
	t.Helper()
	touched := make(map[int]bool)
	for _, e := range entries {
		for o := 0; o+parent.k <= len(e); o++ {
			touched[bucketOf(e[o:o+parent.k])] = true
		}
	}
	ok := true
	for b := range child.dir {
		same := reflect.ValueOf(child.dir[b]).Pointer() == reflect.ValueOf(parent.dir[b]).Pointer()
		if touched[b] && same {
			t.Errorf("bucket %d: written in place, shared with the parent", b)
			ok = false
		}
		if !touched[b] && !same {
			t.Errorf("bucket %d: copied, though no new k-mer lands in it", b)
			ok = false
		}
	}
	if !reflect.DeepEqual(parent, before) {
		t.Error("Grow mutated its parent")
		ok = false
	}
	return ok
}

// deepCopy returns a copy of ix sharing no map or slice with it.
func deepCopy(ix *Index) *Index {
	cp := *ix
	cp.always = append([]int(nil), ix.always...)
	cp.dir = make([]map[string][]int, len(ix.dir))
	for b, bucket := range ix.dir {
		if bucket == nil {
			continue
		}
		cp.dir[b] = make(map[string][]int, len(bucket))
		for kmer, post := range bucket {
			cp.dir[b][kmer] = append([]int(nil), post...)
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

var sinkIndex *Index

// BenchmarkGrow measures one-entry Grows on a 10k-entry DNA index at
// k=8, derived linearly as database inserts and WAL replay derive them.
func BenchmarkGrow(b *testing.B) {
	g := seqgen.NewDNA(61)
	ix, err := New(g.Database(10000, 24), 8)
	if err != nil {
		b.Fatal(err)
	}
	extra := g.Database(1024, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(extra)
		ix = ix.Grow(extra[j : j+1])
	}
	sinkIndex = ix
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
