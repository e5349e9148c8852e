package racelogic

import (
	"container/list"
	"strings"
	"sync"
	"unsafe"

	"racelogic/internal/pipeline"
)

// memoBudget bounds the memory the outcome memo holds, counted in
// outcome records across all its queries, not in queries, so neither
// many small scans, nor one full scan of a large database, nor a stream
// of long queries that each score a few entries can grow it without
// limit.  Each entry is charged its outcomes plus its query bytes and
// bookkeeping (see memoCharge).
const memoBudget = 1 << 16

// outcomeBytes is the size of one pointer-free pipeline.Outcome, the
// memo's unit of account.
const outcomeBytes = int(unsafe.Sizeof(pipeline.Outcome{}))

// memoEntryOverhead is what one memo entry holds beside its outcomes
// and query bytes: the list element, the memoEntry, the key's map slot,
// and the string and slice headers, with allocator rounding.
const memoEntryOverhead = 160

// memoCharge is what an entry for key holding n outcomes counts against
// memoBudget: its outcomes, and its query bytes and bookkeeping rounded
// up to whole records.
func memoCharge(key memoKey, n int) int {
	return n + (len(key.query)+memoEntryOverhead+outcomeBytes-1)/outcomeBytes
}

// memoKey names one memoized search: the query and its threshold, with
// every negative threshold (no pre-filter) as one key.
type memoKey struct {
	query     string
	threshold int64
}

func newMemoKey(query string, threshold int64) memoKey {
	return memoKey{query: query, threshold: max(threshold, -1)}
}

type memoEntry struct {
	key  memoKey
	outs []pipeline.Outcome // ascending by ID; a stored slice is never modified
}

// outcomeMemo is the database's memo of race outcomes per (query,
// threshold), keyed inside each query by stable entry ID.  An outcome is
// a pure function of query, entry and threshold on the database's fixed
// fabric and library, and IDs are never reused, so a memoized outcome
// stays exact across inserts, removes and compactions: a repeated query
// races only the candidates its last search did not score.  The memo is
// an LRU over queries whose charged total (memoCharge) stays within
// budget; it is empty when a database is built or opened.
type outcomeMemo struct {
	mu       sync.Mutex
	budget   int
	charged  int        // memoCharge summed over entries, at most budget
	outcomes int        // outcome records across entries
	ll       *list.List // front = most recently used
	entries  map[memoKey]*list.Element
}

func newOutcomeMemo(budget int) *outcomeMemo {
	return &outcomeMemo{budget: budget, ll: list.New(), entries: make(map[memoKey]*list.Element)}
}

// get returns the outcomes last stored for key, nil when there are
// none.  The slice is shared and read-only.
func (m *outcomeMemo) get(key memoKey) []pipeline.Outcome {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		return nil
	}
	m.ll.MoveToFront(el)
	return el.Value.(*memoEntry).outs
}

// put replaces key's outcomes with outs, the full set a successful
// search just scored, evicting least recently used queries past the
// budget.  An empty set, or one whose charge exceeds the whole budget,
// leaves the key unmemoized.
func (m *outcomeMemo) put(key memoKey, outs []pipeline.Outcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	c := memoCharge(key, len(outs))
	if len(outs) == 0 || c > m.budget {
		if ok {
			m.drop(el)
		}
		return
	}
	if ok {
		e := el.Value.(*memoEntry)
		m.charged += c - memoCharge(e.key, len(e.outs))
		m.outcomes += len(outs) - len(e.outs)
		e.outs = outs
		m.ll.MoveToFront(el)
	} else {
		// A private copy, so the key pins only its own bytes, never a
		// larger string the caller sliced the query from.
		key.query = strings.Clone(key.query)
		m.entries[key] = m.ll.PushFront(&memoEntry{key: key, outs: outs})
		m.charged += c
		m.outcomes += len(outs)
	}
	for m.charged > m.budget {
		m.drop(m.ll.Back())
	}
}

// drop removes one entry and its charge.
func (m *outcomeMemo) drop(el *list.Element) {
	e := m.ll.Remove(el).(*memoEntry)
	delete(m.entries, e.key)
	m.charged -= memoCharge(e.key, len(e.outs))
	m.outcomes -= len(e.outs)
}

// size returns the memoized queries and the outcome records they hold.
func (m *outcomeMemo) size() (queries, outcomes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len(), m.outcomes
}
