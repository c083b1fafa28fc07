package room

import "repro/internal/obs"

// pinReason labels why one rack advanced exactly one grid step instead of
// a macro window — the room-scope mirror of internal/sched's taxonomy,
// with the same names so evalctl can render one breakdown table for both
// scopes. Exactly one reason is charged per single-step advance, so the
// per-reason counts sum to (rack advances − macro windows) by
// construction, per rack and room-wide, in both stepping modes.
type pinReason int

const (
	// pinFixedDt: the fixed-dt reference kernel — every step of every rack
	// is pinned by mode.
	pinFixedDt pinReason = iota
	// pinBacklog: non-empty backlog collapsed the global segment to one
	// step; the FIFO head retries every step.
	pinBacklog
	// pinTripGuard: a fault run (or a backlog-crossing segment) with some
	// live server inside the trip-guard band — trips must latch on their
	// exact step, so every rack single-steps.
	pinTripGuard
	// pinArrival: the next job arrival bounds the segment at one step.
	pinArrival
	// pinCompletion: a running job completes at the next step.
	pinCompletion
	// pinFaultEdge: a pinned fault inject/clear fires at the next step.
	pinFaultEdge
	// pinController: this rack's own fan-controller promise expires at the
	// next step (holdoff or poll boundary), fans settled — charged by the
	// rack's sub-kernel, not the global segment.
	pinController
	// pinFanSlew: as pinController, but some powered slot's fans are still
	// slewing.
	pinFanSlew
	// pinNoPromise: some controller on this rack implements no quiet
	// horizon, collapsing its every window to one step.
	pinNoPromise
	// pinSample: the TraceConfig.SampleEvery telemetry grid bounds the
	// segment.
	pinSample
	// pinHorizonEnd: the trace window itself ends at the next step.
	pinHorizonEnd
	pinReasons // count
)

// pinNames maps reasons to the "room.pin.<reason>" metric suffixes,
// byte-identical to internal/sched's suffixes for the shared taxonomy.
var pinNames = [pinReasons]string{
	pinFixedDt:    "fixed-dt",
	pinBacklog:    "backlog",
	pinTripGuard:  "trip-guard",
	pinArrival:    "arrival",
	pinCompletion: "completion",
	pinFaultEdge:  "fault-edge",
	pinController: "controller",
	pinFanSlew:    "fan-slew",
	pinNoPromise:  "no-promise",
	pinSample:     "sample",
	pinHorizonEnd: "horizon-end",
}

// windowLenBounds are the room.window.len histogram buckets, shared with
// the rack kernel's: powers of two up to 16384 steps.
func windowLenBounds() []float64 { return obs.ExpBuckets(1, 2, 15) }

// runMetrics carries one room trace run's metric handles, fetched once at
// run start. With no registry attached every handle is nil and every call
// is a nil-receiver no-op. The chunk path is charged from inside the
// per-rack fan-out jobs — obs handles are atomic and commutative, so the
// dump stays byte-identical for every worker count.
type runMetrics struct {
	segments  *obs.Counter // room.segments: global segments processed
	gridSteps *obs.Counter // room.grid.steps: fixed-dt steps crossed (Σ segment lengths)
	rackSteps *obs.Counter // room.rack.steps.total: per-rack advances (chunks)
	macroWins *obs.Counter // room.windows.macro: chunks with window > 1
	winLen    *obs.Histogram
	pins      [pinReasons]*obs.Counter

	submitted  *obs.Counter
	placements *obs.Counter
	completed  *obs.Counter
	requeued   *obs.Counter
	dropped    *obs.Counter
	backlogHW  *obs.Gauge
}

func newRunMetrics(reg *obs.Registry) runMetrics {
	if reg == nil {
		return runMetrics{}
	}
	m := runMetrics{
		segments:   reg.Counter("room.segments"),
		gridSteps:  reg.Counter("room.grid.steps"),
		rackSteps:  reg.Counter("room.rack.steps.total"),
		macroWins:  reg.Counter("room.windows.macro"),
		winLen:     reg.Histogram("room.window.len", windowLenBounds()),
		submitted:  reg.Counter("room.jobs.submitted"),
		placements: reg.Counter("room.placements"),
		completed:  reg.Counter("room.jobs.completed"),
		requeued:   reg.Counter("room.kills.requeued"),
		dropped:    reg.Counter("room.kills.dropped"),
		backlogHW:  reg.Gauge("room.backlog.highwater"),
	}
	for i := range m.pins {
		m.pins[i] = reg.Counter("room.pin." + pinNames[i])
	}
	return m
}

// chunk charges one rack advance spanning `window` grid steps, pinned by
// `reason` when the window is a single step. Safe to call concurrently
// from the segment fan-out.
func (m *runMetrics) chunk(window int, reason pinReason) {
	m.rackSteps.Inc()
	m.winLen.Observe(float64(window))
	if window > 1 {
		m.macroWins.Inc()
	} else {
		m.pins[reason].Inc()
	}
}
