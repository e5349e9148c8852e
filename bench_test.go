package racelogic

// This file is the benchmark harness: one testing.B benchmark per paper
// table/figure, each regenerating the artifact through internal/eval on
// a reduced sweep (cmd/racebench runs the full paper grids), plus the
// batch-search benchmarks proving engine reuse beats a build-per-pair
// loop.  Reported custom metrics carry the headline quantities so
// `go test -bench . -benchmem` prints the same numbers the tables hold.

import (
	"fmt"
	"testing"

	"racelogic/internal/align"
	"racelogic/internal/async"
	"racelogic/internal/eval"
	"racelogic/internal/score"
	"racelogic/internal/seqgen"
	"racelogic/internal/systolic"
	"racelogic/internal/tech"
)

// benchNs keeps per-iteration work bounded; the shapes (quadratic area,
// cubic energy, crossovers) are already visible on this grid.
var benchNs = []int{5, 10, 20, 30}

func benchLib(b *testing.B) *tech.Library {
	b.Helper()
	return tech.AMIS()
}

// BenchmarkFig5Area regenerates Fig. 5a/5d (area vs N).
func BenchmarkFig5Area(b *testing.B) {
	lib := benchLib(b)
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig5Area(lib, benchNs)
		if err != nil {
			b.Fatal(err)
		}
		last := len(fig.Series[0].Y) - 1
		b.ReportMetric(fig.Series[0].Y[last], "race-area-um2@N30")
		b.ReportMetric(fig.Series[1].Y[last], "systolic-area-um2@N30")
	}
}

// BenchmarkFig5Latency regenerates Fig. 5b/5e (latency vs N).
func BenchmarkFig5Latency(b *testing.B) {
	lib := benchLib(b)
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig5Latency(lib, benchNs)
		if err != nil {
			b.Fatal(err)
		}
		last := len(fig.Series[0].Y) - 1
		b.ReportMetric(fig.Series[0].Y[last], "race-best-ns@N30")
		b.ReportMetric(fig.Series[2].Y[last], "systolic-ns@N30")
	}
}

// BenchmarkFig5Energy regenerates Fig. 5c/5f (energy vs N, six series).
func BenchmarkFig5Energy(b *testing.B) {
	lib := benchLib(b)
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig5Energy(lib, benchNs)
		if err != nil {
			b.Fatal(err)
		}
		last := len(fig.Series[0].Y) - 1
		b.ReportMetric(fig.Series[1].Y[last]*1e12, "race-worst-pJ@N30")
		b.ReportMetric(fig.Series[2].Y[last]*1e12, "systolic-pJ@N30")
	}
}

// BenchmarkEq5Fit regenerates the Eq. 5 fitted coefficients.
func BenchmarkEq5Fit(b *testing.B) {
	lib := benchLib(b)
	for i := 0; i < b.N; i++ {
		fig, err := eval.Eq5Fit(lib, benchNs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Series[0].Y[0], "best-N3-coef-pJ")
		b.ReportMetric(fig.Series[1].Y[0], "worst-N3-coef-pJ")
	}
}

// BenchmarkFig6Wavefront regenerates the Fig. 6 wavefront frames.
func BenchmarkFig6Wavefront(b *testing.B) {
	for i := 0; i < b.N; i++ {
		worst, best, err := eval.Fig6(16)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(worst)), "worst-frames")
		b.ReportMetric(float64(len(best)), "best-frames")
	}
}

// BenchmarkEq6Eq7Gating regenerates the Eq. 6 granularity sweep and the
// Eq. 7 optimum.
func BenchmarkEq6Eq7Gating(b *testing.B) {
	lib := benchLib(b)
	for i := 0; i < b.N; i++ {
		fig, err := eval.GatingSweep(lib, 16, []int{1, 2, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lib.OptimalGranularity(16, lib.CellClockCapPF(1)), "eq7-mstar@N16")
		_ = fig
	}
}

// BenchmarkFig9aThroughput regenerates Fig. 9a (throughput/area vs N).
func BenchmarkFig9aThroughput(b *testing.B) {
	lib := benchLib(b)
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig9Throughput(lib, benchNs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Series[0].Y[0]/fig.Series[2].Y[0], "race-vs-systolic@N5")
	}
}

// BenchmarkFig9bPowerDensity regenerates Fig. 9b (W/cm² vs N).
func BenchmarkFig9bPowerDensity(b *testing.B) {
	lib := benchLib(b)
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig9PowerDensity(lib, benchNs)
		if err != nil {
			b.Fatal(err)
		}
		last := len(fig.Series[0].Y) - 1
		b.ReportMetric(fig.Series[2].Y[last]/fig.Series[0].Y[last], "systolic-over-race@N30")
	}
}

// BenchmarkFig9cEnergyDelay regenerates the Fig. 9c scatter at N = 30.
func BenchmarkFig9cEnergyDelay(b *testing.B) {
	lib := benchLib(b)
	for i := 0; i < b.N; i++ {
		fig, err := eval.Fig9EnergyDelay(lib, 30)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(fig.Series)), "design-points")
	}
}

// BenchmarkHeadline regenerates the abstract's N = 20 comparison ratios.
func BenchmarkHeadline(b *testing.B) {
	lib := benchLib(b)
	for i := 0; i < b.N; i++ {
		fig, err := eval.Headline(lib, 20)
		if err != nil {
			b.Fatal(err)
		}
		y := fig.Series[0].Y
		b.ReportMetric(y[0], "latency-x")
		b.ReportMetric(y[1], "throughput-x")
		b.ReportMetric(y[2], "power-density-x")
		b.ReportMetric(y[4], "energy-gated-x")
	}
}

// BenchmarkEncodingAblation regenerates the Section 5 one-hot vs binary
// cell-cost comparison.
func BenchmarkEncodingAblation(b *testing.B) {
	lib := benchLib(b)
	for i := 0; i < b.N; i++ {
		fig, err := eval.EncodingAblation(lib, 3)
		if err != nil {
			b.Fatal(err)
		}
		last := len(fig.Series[0].Y) - 1
		b.ReportMetric(fig.Series[0].Y[last]/fig.Series[1].Y[last], "onehot-over-binary-DFFs")
	}
}

// BenchmarkThresholdStudy regenerates the Section 6 early-termination
// scan comparison.
func BenchmarkThresholdStudy(b *testing.B) {
	lib := benchLib(b)
	for i := 0; i < b.N; i++ {
		fig, err := eval.ThresholdStudy(lib, 16, 8, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Series[0].Y[2], "scan-speedup-x")
	}
}

// BenchmarkAlignDNA measures the end-to-end public API on the paper's
// example pair — the per-alignment cost of the whole simulation pipeline.
func BenchmarkAlignDNA(b *testing.B) {
	e, err := NewDNAEngine(7, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Align("ACTGAGA", "GATTCGA"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlignProtein measures the generalized-array public API.
func BenchmarkAlignProtein(b *testing.B) {
	e, err := NewProteinEngine(4, 4, "BLOSUM62")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Align("WARD", "DRAW"); err != nil {
			b.Fatal(err)
		}
	}
}

// searchBenchDB builds the shared ≥1k-sequence database for the Search
// benchmarks: one dominant length bucket plus two smaller ones, the shape
// a real fixed-array installation would see.
func searchBenchDB() (query string, db []string) {
	g := seqgen.NewDNA(42)
	query = g.Random(12)
	db = g.Database(900, 12)
	db = append(db, g.Database(62, 10)...)
	db = append(db, g.Database(62, 14)...)
	return query, db
}

// BenchmarkSearchBatch measures the batch pipeline: length-bucketed
// engines compiled once and reset between races.
func BenchmarkSearchBatch(b *testing.B) {
	query, db := searchBenchDB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Search(query, db)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.EnginesBuilt), "engines")
	}
}

// BenchmarkSearchBatchThreshold adds the Section 6 pre-filter on top of
// engine reuse: dissimilar entries cost only threshold+1 cycles.
func BenchmarkSearchBatchThreshold(b *testing.B) {
	query, db := searchBenchDB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Search(query, db, WithThreshold(14), WithTopK(10))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Rejected), "rejected")
	}
}

// BenchmarkSearchNaive is the loop the pipeline replaces: a fresh
// NewDNAEngine per pair, netlist rebuilt and recompiled every time.
func BenchmarkSearchNaive(b *testing.B) {
	query, db := searchBenchDB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, entry := range db {
			e, err := NewDNAEngine(len(query), len(entry))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Align(query, entry); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(db)), "engines")
	}
}

// searchBench10k builds the 10k-entry database of the warm-vs-one-shot
// comparison: one dominant length bucket with planted near-matches so the
// seed index has genuine hits to keep.
func searchBench10k() (query string, db []string) {
	g := seqgen.NewDNA(43)
	query = g.Random(12)
	db = g.Database(10000, 12)
	for _, at := range []int{123, 4567, 8910} {
		mut, err := g.Mutate(query, 1, 0, 0)
		if err != nil {
			panic(err)
		}
		db[at] = mut
	}
	return query, db
}

// BenchmarkDatabaseSearchWarm10k measures the persistent subsystem on a
// 10k-entry database: engines pre-compiled and pooled, k-mer seed index
// skipping the entries that share no 8-mer with the query.  Compare
// against BenchmarkSearchOneShot10k for the amortization headline.  The
// database's memo stores nothing, so every repeat races its candidates
// rather than serving them from the outcome memo.
func BenchmarkDatabaseSearchWarm10k(b *testing.B) {
	query, db := searchBench10k()
	d, err := NewDatabase(db, WithSeedIndex(8))
	if err != nil {
		b.Fatal(err)
	}
	d.memo = newOutcomeMemo(0)
	if _, err := d.Search(query); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := d.Search(query)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Scanned), "scanned")
		b.ReportMetric(float64(rep.Skipped), "skipped")
	}
}

// BenchmarkDatabaseSearchWarmFullScan10k isolates the engine-pooling win
// from the index win: the warm database races all 10k entries, its memo
// storing nothing.
func BenchmarkDatabaseSearchWarmFullScan10k(b *testing.B) {
	query, db := searchBench10k()
	d, err := NewDatabase(db)
	if err != nil {
		b.Fatal(err)
	}
	d.memo = newOutcomeMemo(0)
	if _, err := d.Search(query); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := d.Search(query)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.EnginesBuilt), "engines")
	}
}

// BenchmarkSearchOneShot10k is the baseline the Database replaces: the
// one-shot path re-shards the collection and recompiles engines for
// every query, then races all 10k entries.
func BenchmarkSearchOneShot10k(b *testing.B) {
	query, db := searchBench10k()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Search(query, db)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.EnginesBuilt), "engines")
	}
}

// BenchmarkBackendFullScan races an identical warm full-scan workload
// on each simulation backend, then on the lanes backend again at the
// wider 128- and 256-lane pack widths.  The sub-benchmarks are the
// input to scripts/benchcompare.sh, the CI guard that fails when the
// lanes backend stops clearing its speedup floor over the
// cycle-accurate reference, or when a wider pack gets slower per
// candidate than the 64-lane default.  Each database keeps a memo that
// stores nothing, so every search races all 400 entries rather than
// serving the repeated query from its outcome memo.
func BenchmarkBackendFullScan(b *testing.B) {
	gen := seqgen.NewDNA(77)
	query := gen.Random(24)
	entries := gen.Database(400, 24)
	scan := func(b *testing.B, opts ...Option) {
		d, err := NewDatabase(entries, opts...)
		if err != nil {
			b.Fatal(err)
		}
		d.memo = newOutcomeMemo(0)
		if _, err := d.Search(query); err != nil { // warm the pools
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := d.Search(query)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(rep.TotalCycles), "cycles")
		}
	}
	for _, backend := range []Backend{BackendCycle, BackendLanes} {
		b.Run(backend.String(), func(b *testing.B) {
			scan(b, WithBackend(backend))
		})
	}
	for _, width := range []int{128, 256} {
		b.Run(fmt.Sprintf("lanes%d", width), func(b *testing.B) {
			scan(b, WithBackend(BackendLanes), WithLaneWidth(width))
		})
	}
}

// BenchmarkMultiQueryBatch races 16 queries as one SearchBatch call
// versus the same 16 as sequential Search calls, per lane width.  The
// corpus spans three length buckets each too small to fill a wide pack
// from one query, so cross-query coalescing is what reaches the pack
// width; the batch/sequential gap is the payoff of the batch API.  The
// database's memo stores nothing, so every repeat races again.
func BenchmarkMultiQueryBatch(b *testing.B) {
	gen := seqgen.NewDNA(78)
	var entries []string
	for _, m := range []int{23, 24, 25} {
		for i := 0; i < 40; i++ {
			entries = append(entries, gen.Random(m))
		}
	}
	queries := make([]string, 16)
	for i := range queries {
		queries[i] = gen.Random(24)
	}
	for _, width := range []int{64, 256} {
		d, err := NewDatabase(entries, WithBackend(BackendLanes), WithLaneWidth(width))
		if err != nil {
			b.Fatal(err)
		}
		d.memo = newOutcomeMemo(0)
		if _, err := d.SearchBatch(queries); err != nil { // warm the pools
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("batch%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.SearchBatch(queries); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sequential%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := d.Search(q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSystolicCompare measures the baseline's comparison pipeline.
func BenchmarkSystolicCompare(b *testing.B) {
	arr, err := systolic.New(20, DNAAlphabet)
	if err != nil {
		b.Fatal(err)
	}
	g := seqgen.NewDNA(1)
	p, q := g.RandomPair(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arr.Compare(p, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsyncEditGraph measures the Section 6 clockless simulator on
// an N = 20 alignment race.
func BenchmarkAsyncEditGraph(b *testing.B) {
	g := seqgen.NewDNA(2)
	p, q := g.RandomPair(20)
	eg, _, sink, err := align.EditGraph(p, q, score.DNAShortestInf())
	if err != nil {
		b.Fatal(err)
	}
	c, ids, err := async.FromDAG(eg, async.MinNode)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := c.Race()
		if res.Arrival[ids[sink]] <= 0 {
			b.Fatal("race failed")
		}
	}
}

// BenchmarkGraphShortestPath measures the public DAG-to-race pipeline on
// a fresh Fig. 3-shaped problem per iteration.
func BenchmarkGraphShortestPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := NewGraph()
		in0 := g.AddNode("in0")
		a := g.AddNode("a")
		out := g.AddNode("out")
		if err := g.AddEdge(in0, a, 1); err != nil {
			b.Fatal(err)
		}
		if err := g.AddEdge(a, out, 1); err != nil {
			b.Fatal(err)
		}
		if err := g.AddEdge(in0, out, 3); err != nil {
			b.Fatal(err)
		}
		d, err := g.ShortestPath(out)
		if err != nil || d != 2 {
			b.Fatalf("d=%d err=%v", d, err)
		}
	}
}
