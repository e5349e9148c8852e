package store

// Timings carries optional wall-clock observers for the journal hot
// path: Append sees every record append (frame, write, unwind) and
// Sync every group-commit fsync the leader issues.  Nil fields cost
// nothing; durations are reported in seconds to land directly in a
// metrics histogram.
type Timings struct {
	Append func(seconds float64)
	Sync   func(seconds float64)
}

// SetTimings installs observers on this journal.  Call it before
// concurrent traffic.
func (w *WAL) SetTimings(t Timings) {
	w.mu.Lock()
	w.timings = t
	w.mu.Unlock()
}
