package thermal

// PropagatorStats are the network's lifetime cache-and-ladder counters,
// fed into the run-metrics registry (internal/obs) by rack.MetricsInto.
// They are plain ints bumped from the single goroutine that steps the
// network, so reading them is only safe after the stepping fan-out's
// barrier.
type PropagatorStats struct {
	// Hits counts propagator lookup successes — fast generation-stamp
	// matches plus slow float-walk re-stamps.
	Hits int
	// Misses counts lookup failures; every miss triggers a build.
	Misses int
	// Builds is the lifetime propagator build count (rebuilds included).
	Builds int
	// DriftStops counts macro doubling ladders cut short by the drift cap
	// rather than the window bound — each one forces the caller to
	// re-anchor its linearization sooner than the event kernel asked for.
	DriftStops int
}

// PropagatorStats returns the lifetime counters. Unlike ResetAccounting's
// energy rails these are never reset: they describe the run's whole cache
// behaviour, stabilization included.
func (n *Network) PropagatorStats() PropagatorStats {
	return PropagatorStats{
		Hits:       n.propHits,
		Misses:     n.propMisses,
		Builds:     n.propBuilds,
		DriftStops: n.driftStops,
	}
}
