// Package fix exercises detmapiter: order-dependent effects inside
// range-over-map loops are flagged; the repo's legal idioms are not.
package fix

import "sort"

// sortedKeys is the canonical collect-then-sort idiom: legal.
func sortedKeys(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// collectNoSort appends the keys but never sorts them: flagged.
func collectNoSort(m map[int]bool) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // want `collects into keys, which is never sorted`
	}
	return keys
}

// report collects values through a struct field and sorts afterwards:
// legal (the trace-report idiom).
type report struct {
	rows []int
}

func collectField(m map[string]int) *report {
	rep := &report{}
	for _, v := range m {
		rep.rows = append(rep.rows, v)
	}
	sort.Ints(rep.rows)
	return rep
}

// collectFieldNoSort does the same without the sort: flagged.
func collectFieldNoSort(m map[string]int) *report {
	rep := &report{}
	for _, v := range m {
		rep.rows = append(rep.rows, v) // want `collects into rep.rows, which is never sorted`
	}
	return rep
}

// countAll accumulates integers: commutative, legal.
func countAll(m map[string][]int) int {
	total := 0
	for _, post := range m {
		total += len(post)
	}
	return total
}

// sumFloats folds floats across iteration order: flagged.
func sumFloats(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `non-integer accumulation`
	}
	return total
}

// lastValue keeps the last-visited value: flagged.
func lastValue(m map[string]int) int {
	var last int
	for _, v := range m {
		last = v // want `keeps the last-visited value`
	}
	return last
}

// found stores a loop-independent constant: idempotent, legal.
func found(m map[string]int) bool {
	ok := false
	for _, v := range m {
		if v > 10 {
			ok = true
		}
	}
	return ok
}

// maxValue selects under an ordered guard: legal.
func maxValue(m map[string]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// partition buckets by the range key itself: each bucket completes in
// one iteration, legal (the partitioning idiom).
func partition(m map[string][]int, shards int) []map[string][]int {
	out := make([]map[string][]int, shards)
	for i := range out {
		out[i] = make(map[string][]int)
	}
	for kmer, post := range m {
		out[len(kmer)%shards][kmer] = append(out[len(kmer)%shards][kmer], post...)
	}
	return out
}

// regroup appends into buckets keyed by a derived value: order leaks
// into each bucket, flagged.
func regroup(m map[string][]int) map[int][]int {
	out := make(map[int][]int)
	for k, post := range m {
		out[len(k)] = append(out[len(k)], post...) // want `accumulates in map iteration order`
	}
	return out
}

// plainStore writes each key once: legal.
func plainStore(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// netlist stands in for a circuit builder: every gate call appends to
// the receiver, so the call order is the gate order.
type netlist struct{ gates []string }

func (nl *netlist) And(in ...int) int { nl.gates = append(nl.gates, "and"); return len(nl.gates) - 1 }
func (nl *netlist) Or(in ...int) int  { nl.gates = append(nl.gates, "or"); return len(nl.gates) - 1 }
func (nl *netlist) Not(in int) int    { nl.gates = append(nl.gates, "not"); return len(nl.gates) - 1 }

// regionEnables builds one gate per map key in map order, so every build
// numbers the gates differently: flagged.
func regionEnables(nl *netlist, regionFFs map[int][]int, activity []int) map[int]int {
	enables := make(map[int]int, len(regionFFs))
	for key, qs := range regionFFs {
		enables[key] = nl.And(nl.Or(activity...), nl.Not(nl.And(qs...))) // want `store into enables\[key\] calls nl.And`
	}
	return enables
}

// convertedStore stores builtin and conversion results only: legal.
func convertedStore(m map[string][]int) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, post := range m {
		out[k] = int64(len(post)) + int64(cap(post))
	}
	return out
}

// deferredStore stores a closure without calling it: legal.
func deferredStore(m map[string]int, sink func(int)) map[string]func() {
	out := make(map[string]func(), len(m))
	for k, v := range m {
		out[k] = func() { sink(v) }
	}
	return out
}

// sortBuckets sorts each element in place: commutes, legal.
func sortBuckets(m map[string][]int) {
	for _, post := range m {
		sort.Ints(post)
	}
}

// pruneEmpty deletes during iteration: legal.
func pruneEmpty(m map[string][]int) {
	for k, post := range m {
		if len(post) == 0 {
			delete(m, k)
		}
	}
}

// firstKey returns an arbitrary element: flagged.
func firstKey(m map[string]int) string {
	for k := range m {
		return k // want `returning a value derived from map iteration`
	}
	return ""
}

// emit sends effects downstream in map order: flagged.
func emit(m map[string]int, sink func(string)) {
	for k := range m {
		sink(k) // want `call inside map iteration has order-dependent effects`
	}
}

// spawn launches goroutines in map order: flagged.
func spawn(m map[string]int, ch chan string) {
	for k := range m {
		go func(s string) { ch <- s }(k) // want `statement with order-dependent effects`
	}
}

// intended documents a deliberately order-dependent walk: suppressed.
func intended(m map[string]int, sink func(string)) {
	for k := range m {
		//lint:ignore racelint/detmapiter the sink is an unordered set
		sink(k)
	}
}

// bareIgnore has an ignore without a reason: still flagged.
func bareIgnore(m map[string]int, sink func(string)) {
	for k := range m {
		//lint:ignore racelint/detmapiter
		sink(k) // want `call inside map iteration has order-dependent effects`
	}
}
