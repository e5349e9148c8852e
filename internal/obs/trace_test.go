package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	tr.StartSpan("seed lookup")()
	tr.AddEngineCheckout(0, time.Millisecond, true)
	tr.AddRace(0, time.Millisecond)
	tr.RecordShardScan(0, 1, 2, 3, 4)
	tr.AddShardSkipped(0, 5)
	if tr.Report() != nil {
		t.Fatal("nil trace should report nil")
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("TraceFrom on bare context = %v, want nil", got)
	}
	if ctx := WithTrace(context.Background(), nil); TraceFrom(ctx) != nil {
		t.Fatal("WithTrace(nil) should not attach anything")
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace lost in context round trip")
	}
}

func TestTraceReportShape(t *testing.T) {
	tr := NewTrace()
	done := tr.StartSpan("seed lookup")
	done()
	tr.StartSpan("race")()
	// Record shards out of order; report must sort by partition.
	tr.RecordShardScan(2, 10, 2, 1000, 0.5)
	tr.AddShardSkipped(2, 5)
	tr.RecordShardScan(0, 20, 3, 2000, 1.25)
	tr.AddEngineCheckout(2, 3*time.Millisecond, true)
	tr.AddEngineCheckout(2, time.Millisecond, false)
	tr.AddRace(0, 2*time.Millisecond)
	rep := tr.Report()
	if len(rep.Spans) != 2 || rep.Spans[0].Name != "seed lookup" || rep.Spans[1].Name != "race" {
		t.Fatalf("spans = %+v", rep.Spans)
	}
	if len(rep.Shards) != 2 || rep.Shards[0].Shard != 0 || rep.Shards[1].Shard != 2 {
		t.Fatalf("shards not sorted by partition: %+v", rep.Shards)
	}
	s2 := rep.Shards[1]
	if s2.Scanned != 10 || s2.Skipped != 5 || s2.Chunks != 2 || s2.Cycles != 1000 || s2.EnergyJ != 0.5 {
		t.Fatalf("shard 2 dimensions: %+v", s2)
	}
	if s2.EngineCheckouts != 2 || s2.EnginesBuilt != 1 || s2.CheckoutWaitUS < 4000 {
		t.Fatalf("shard 2 checkout stats: %+v", s2)
	}
	if rep.Shards[0].RaceUS < 2000 {
		t.Fatalf("shard 0 race time: %+v", rep.Shards[0])
	}
}

// zeroDurations clears every field that legitimately varies between
// reruns, leaving only the deterministic dimensions.
func zeroDurations(rep *TraceReport) {
	rep.DurationUS = 0
	for i := range rep.Spans {
		rep.Spans[i].DurationUS = 0
	}
	for i := range rep.Shards {
		rep.Shards[i].CheckoutWaitUS = 0
		rep.Shards[i].RaceUS = 0
	}
}

func TestTraceDeterministicModuloDurations(t *testing.T) {
	run := func() *TraceReport {
		tr := NewTrace()
		tr.StartSpan("seed lookup")()
		tr.StartSpan("race")()
		tr.StartSpan("merge")()
		var wg sync.WaitGroup
		for shard := 0; shard < 4; shard++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				tr.AddEngineCheckout(n, time.Microsecond, n == 0)
				tr.AddRace(n, time.Microsecond)
				tr.RecordShardScan(n, 10+n, 1, 100*n, float64(n)/4)
				tr.AddShardSkipped(n, n)
			}(shard)
		}
		wg.Wait()
		return tr.Report()
	}
	a, b := run(), run()
	zeroDurations(a)
	zeroDurations(b)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("trace not byte-stable modulo durations:\n%s\n%s", ja, jb)
	}
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(3)
	if l.Len() != 0 {
		t.Fatalf("fresh log Len = %d", l.Len())
	}
	for i := 0; i < 5; i++ {
		l.Add(SlowQuery{Query: string(rune('a' + i))})
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	got := l.Entries()
	if len(got) != 3 || got[0].Query != "c" || got[1].Query != "d" || got[2].Query != "e" {
		t.Fatalf("entries = %+v, want newest three oldest-first", got)
	}
}

func TestSlowLogMinimumSize(t *testing.T) {
	l := NewSlowLog(0)
	l.Add(SlowQuery{Query: "x"})
	l.Add(SlowQuery{Query: "y"})
	got := l.Entries()
	if len(got) != 1 || got[0].Query != "y" {
		t.Fatalf("entries = %+v, want just the newest", got)
	}
}
