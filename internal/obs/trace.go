package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Trace records one search's passage through the pipeline — a single
// query or a whole batch: named phase spans plus one per-shard record
// of the hardware-native dimensions (candidates scanned and skipped,
// cycles raced, joules spent) and the engine-checkout and race
// wall-clock behind them.
//
// All methods are safe on a nil *Trace and do nothing, so instrumented
// code can call them unconditionally; the uninstrumented hot path pays
// one nil check.  Span methods must be called sequentially (they follow
// the query's phase order); shard methods may be called from concurrent
// workers.
type Trace struct {
	start time.Time

	mu     sync.Mutex
	spans  []Span
	shards map[int]*ShardTrace
}

// Span is one completed phase of the query with its wall-clock cost.
type Span struct {
	Name       string `json:"name"`
	DurationUS int64  `json:"duration_us"`
}

// ShardTrace is one shard's share of the search, summed over its
// queries when the trace covers a batch.  Scanned counts the entries
// scored, and Memoized those of them whose outcome the database's
// outcome memo already held, so only Scanned − Memoized were raced.  A
// chunk of the race may span shards: Chunks, EngineCheckouts,
// EnginesBuilt, CheckoutWaitUS and RaceUS are attributed to the shard
// of the chunk's first pair.  The count fields are deterministic for a
// fixed corpus, queries, worker count and memo state; only the _us
// fields vary across reruns.
type ShardTrace struct {
	Shard           int     `json:"shard"`
	Scanned         int     `json:"scanned"`
	Memoized        int     `json:"memoized"`
	Skipped         int     `json:"skipped"`
	Chunks          int     `json:"chunks"`
	EngineCheckouts int     `json:"engine_checkouts"`
	EnginesBuilt    int     `json:"engines_built"`
	CheckoutWaitUS  int64   `json:"checkout_wait_us"`
	RaceUS          int64   `json:"race_us"`
	Cycles          int     `json:"cycles"`
	EnergyJ         float64 `json:"energy_j"`
}

// TraceReport is the JSON-ready flattening of a Trace.  Spans appear in
// recording order and shards sorted by partition number, so two runs of
// the same query over the same immutable corpus differ only in the
// duration fields.
type TraceReport struct {
	DurationUS int64        `json:"duration_us"`
	Spans      []Span       `json:"spans"`
	Shards     []ShardTrace `json:"shards"`
}

type traceKey struct{}

// NewTrace starts a trace clocked from now.
func NewTrace() *Trace {
	return &Trace{start: time.Now(), shards: make(map[int]*ShardTrace)}
}

// WithTrace attaches t to the context for the layers below to find.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the trace carried by ctx, or nil when the query is
// untraced.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// StartSpan opens a named phase and returns the closure that ends it.
func (t *Trace) StartSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		d := time.Since(begin)
		t.mu.Lock()
		t.spans = append(t.spans, Span{Name: name, DurationUS: d.Microseconds()})
		t.mu.Unlock()
	}
}

// shard returns the record for one partition, creating it on first use.
// Callers hold t.mu.
func (t *Trace) shard(n int) *ShardTrace {
	st, ok := t.shards[n]
	if !ok {
		st = &ShardTrace{Shard: n}
		t.shards[n] = st
	}
	return st
}

// AddEngineCheckout records one pool acquire on a shard: how long the
// worker waited and whether the pool had to compile a fresh engine.
func (t *Trace) AddEngineCheckout(shard int, wait time.Duration, built bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	st := t.shard(shard)
	st.EngineCheckouts++
	st.CheckoutWaitUS += wait.Microseconds()
	if built {
		st.EnginesBuilt++
	}
	t.mu.Unlock()
}

// AddRace accumulates race-simulation wall-clock on a shard.
func (t *Trace) AddRace(shard int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.shard(shard).RaceUS += d.Microseconds()
	t.mu.Unlock()
}

// RecordShardScan sets a shard's deterministic race dimensions:
// candidates scanned, chunks raced, total cycles, and joules spent,
// each already summed over every query of the search.
func (t *Trace) RecordShardScan(shard, scanned, chunks, cycles int, energyJ float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	st := t.shard(shard)
	st.Scanned = scanned
	st.Chunks = chunks
	st.Cycles = cycles
	st.EnergyJ = energyJ
	t.mu.Unlock()
}

// AddShardMemoized adds to the scanned entries of a shard whose outcome
// was served from the outcome memo instead of raced.
func (t *Trace) AddShardMemoized(shard, memoized int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.shard(shard).Memoized += memoized
	t.mu.Unlock()
}

// AddShardSkipped adds to the entries the seed index let a shard skip —
// known to the database layer, not the race pipeline.  A batch trace
// sums the skips of all its queries.
func (t *Trace) AddShardSkipped(shard, skipped int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.shard(shard).Skipped += skipped
	t.mu.Unlock()
}

// Report flattens the trace.  The total duration is measured here, so
// call it once when the query is done.
func (t *Trace) Report() *TraceReport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rep := &TraceReport{
		DurationUS: time.Since(t.start).Microseconds(),
		Spans:      append([]Span(nil), t.spans...),
		Shards:     make([]ShardTrace, 0, len(t.shards)),
	}
	for _, st := range t.shards {
		rep.Shards = append(rep.Shards, *st)
	}
	sort.Slice(rep.Shards, func(a, b int) bool { return rep.Shards[a].Shard < rep.Shards[b].Shard })
	return rep
}
