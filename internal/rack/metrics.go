package rack

import "repro/internal/obs"

// MetricsInto folds the rack's lifetime observability counters — the
// per-slot thermal propagator cache and macro-step attribution plus the
// rack-level fault edges — into reg, in slot index order, additively.
//
// The fold is the serial, post-barrier half of the internal/obs contract:
// the underlying counters are plain ints written only by the goroutine
// stepping each slot, so MetricsInto must run after Step/Advance returned
// (never concurrently with them). Counters accumulate since construction
// and are never reset, so call it once per rack, at the end of a run; the
// trace runner (sched.RunTraceCfg) does exactly that when a registry is
// attached. A nil registry (the default) makes it a no-op.
func (r *Rack) MetricsInto(reg *obs.Registry) {
	if r == nil || reg == nil {
		return
	}
	ms := r.MetricsRollup()
	reg.Counter("rack.prop.hits").Add(int64(ms.PropHits))
	reg.Counter("rack.prop.misses").Add(int64(ms.PropMisses))
	reg.Counter("rack.prop.builds").Add(int64(ms.PropBuilds))
	reg.Counter("rack.macro.drift_stops").Add(int64(ms.DriftStops))
	reg.Counter("rack.macro.anchors").Add(int64(ms.Anchors))
	reg.Counter("rack.macro.collapsed_steps").Add(int64(ms.CollapsedSteps))
	reg.Counter("rack.macro.plain.integrator").Add(int64(ms.PlainIntegrator))
	reg.Counter("rack.macro.plain.slew").Add(int64(ms.PlainSlew))
	reg.Counter("rack.macro.plain.trip_band").Add(int64(ms.PlainTripBand))
	reg.Counter("rack.macro.plain.drift").Add(int64(ms.PlainDrift))
	reg.Counter("rack.macro.plain.tail").Add(int64(ms.PlainTail))
	reg.Counter("rack.fault.applied").Add(int64(r.faultsApplied))
	reg.Counter("rack.fault.cleared").Add(int64(r.faultsCleared))
}

// MetricsRollup is the rack-wide sum of the per-slot counters MetricsInto
// folds, exposed for tests and custom drivers that want the numbers
// without a registry.
type MetricsRollup struct {
	PropHits, PropMisses, PropBuilds, DriftStops int
	Anchors, CollapsedSteps                      int
	PlainIntegrator, PlainSlew                   int
	PlainTripBand, PlainDrift, PlainTail         int
}

// MetricsRollup returns the rack-wide sums (see MetricsInto for the
// serial-read requirement).
func (r *Rack) MetricsRollup() MetricsRollup {
	var ms MetricsRollup
	for _, st := range r.servers {
		ps := st.srv.PropagatorStats()
		ms.PropHits += ps.Hits
		ms.PropMisses += ps.Misses
		ms.PropBuilds += ps.Builds
		ms.DriftStops += ps.DriftStops
		mst := st.srv.MacroStats()
		ms.Anchors += mst.Anchors
		ms.CollapsedSteps += mst.CollapsedSteps
		ms.PlainIntegrator += mst.PlainIntegrator
		ms.PlainSlew += mst.PlainSlew
		ms.PlainTripBand += mst.PlainTripBand
		ms.PlainDrift += mst.PlainDrift
		ms.PlainTail += mst.PlainTail
	}
	return ms
}
