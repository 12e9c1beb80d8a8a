package metrics

// Sink receives a run's live stage events and its final snapshot. Sinks
// attached to analyses that fan out across servers are shared between
// runs and must be safe for concurrent use; the sinks in this package all
// are.
type Sink interface {
	// Event receives one live stage event.
	Event(ev StageEvent)
	// Flush receives the final RunStats when the run completes. A
	// returned error propagates out of the analysis.
	Flush(stats *RunStats) error
}
