// Package obs is the hardware-native observability layer: a
// dependency-free metrics registry with Prometheus text-format
// exposition, a per-query Trace carried through context.Context, and a
// size-bounded structured slow-query log.
//
// The paper's core pitch is that race logic makes computation
// physically measurable — every alignment has a cycle count and an
// energy budget — so the observability layer treats cycles and joules
// as first-class dimensions next to wall-clock seconds: search
// histograms exist in all three units, traces carry per-shard cycle and
// energy totals, and the slow-query log can trigger on an energy budget
// as well as a latency deadline.
//
// # Metrics
//
// A Registry owns metric families created through Counter, Gauge,
// CounterFunc, GaugeFunc, and Histogram.  Families are identified by
// name; per-series constant labels (e.g. backend="lanes", shard="3")
// distinguish series within one family, so the cycle and lanes
// simulation backends land in one scrape side by side.  Histograms use
// fixed exponential buckets (ExpBuckets) so a long-running service's
// memory never grows with its traffic.  WritePrometheus renders the
// whole registry in the Prometheus text exposition format; Handler
// serves any number of registries at GET /metrics.
//
// Instruments are safe for concurrent use and are plain atomics on the
// hot path: a Counter.Add is one atomic add, a Histogram.Observe is a
// bucket search plus three atomic updates.
//
// # Traces
//
// A Trace records one search's passage through the pipeline — a single
// query or a batch, whose shard dimensions sum over its queries:
// sequential phase spans (seed lookup, plan, race, merge) and one
// ShardTrace per partition holding the hardware-native dimensions —
// candidates scanned and skipped, cycles raced, joules spent — plus
// engine-checkout waits and race wall-clock.  Traces travel via
// context.Context (WithTrace / TraceFrom) so only the layers that
// record into one ever see it; a nil *Trace is a valid no-op receiver,
// which keeps the uninstrumented hot path free of branches beyond one
// nil check.  Report flattens a Trace into a deterministic, JSON-ready
// TraceReport: shards sorted by partition number, spans in recording
// order, every non-duration field byte-stable across reruns of the
// same immutable corpus.
//
// # Slow-query log
//
// SlowLog is a bounded ring of structured SlowQuery entries.  The
// serving layer appends one entry whenever a query exceeds a
// configured latency or energy threshold; the ring keeps the newest N
// so a burst of slow queries can never grow memory, and Entries
// returns them oldest-first for the admin endpoint.
package obs
