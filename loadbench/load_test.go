package main

import (
	"testing"
	"time"
)

// tailWindow is a window of n requests of which the last ten take
// 50 ms and the rest 10 ms.
func tailWindow(n int) *window {
	w := &window{elapsed: time.Second}
	for i := 0; i < n; i++ {
		lat := 10 * time.Millisecond
		if i >= n-10 {
			lat = 50 * time.Millisecond
		}
		w.lat = append(w.lat, lat)
	}
	return w
}

func TestP99NeedsTenBeyond(t *testing.T) {
	if v, ok := tailWindow(1000).percentile(0.99); !ok || v != 10 {
		t.Fatalf("p99 of 1000 requests = %.1f ms (ok %v), want 10 with ten beyond", v, ok)
	}
	if _, ok := tailWindow(999).percentile(0.99); ok {
		t.Fatal("p99 of 999 requests was reported; fewer than ten lie beyond it")
	}
}

func TestP99CountsFailuresBeyond(t *testing.T) {
	w := tailWindow(1000)
	w.failed = 20
	v, ok := w.percentile(0.99)
	if !ok || v != float64(clientTimeout.Milliseconds()) {
		t.Fatalf("p99 with 20 failures in 1020 = %.1f ms (ok %v), want the client timeout", v, ok)
	}
}
