package sched

import "repro/internal/obs"

// pinReason labels why a rack advanced exactly one grid step instead of a
// macro window — the attribution that says which fixed-dt cliffs remain.
// One taxonomy serves both scopes: a rack run charges each single-step
// advance of its rack, a room run each single-step chunk of each rack.
// Exactly one reason is charged per single-step advance, at the moment the
// kernel declines the window, so the per-reason counts always sum to (rack
// advances − macro windows) by construction, in both stepping modes, per
// rack and room-wide.
type pinReason int

const (
	// pinFixedDt: the fixed-dt reference kernel — every step is pinned by
	// mode, keeping the sum identity meaningful without event stepping.
	pinFixedDt pinReason = iota
	// pinBacklog: non-empty backlog; the FIFO head retries every step.
	pinBacklog
	// pinTripGuard: a fault run (or a backlog-crossing window) with some
	// live server inside the trip-guard band — trips must latch on their
	// exact step.
	pinTripGuard
	// pinArrival: the next job arrival lands on the very next step.
	pinArrival
	// pinCompletion: a running job completes at the next step.
	pinCompletion
	// pinFaultEdge: a pinned fault inject/clear fires at the next step.
	pinFaultEdge
	// pinController: a fan controller's quiet-horizon promise expires at
	// the next step (holdoff or poll boundary), fans settled.
	pinController
	// pinFanSlew: as pinController, but some powered slot's fans are still
	// slewing — the window is held shut while conductances move.
	pinFanSlew
	// pinNoPromise: some controller implements no quiet horizon
	// (control.HorizonPromiser), collapsing every window to one step.
	pinNoPromise
	// pinSample: the TraceConfig.SampleEvery telemetry grid.
	pinSample
	// pinHorizonEnd: the trace window itself ends at the next step.
	pinHorizonEnd
	pinReasons // count
)

// pinNames maps reasons to the "<scope>.pin.<reason>" metric suffixes (the
// README's pin-reason taxonomy table mirrors these).
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

// PinReasonNames returns the metric suffixes of the pin-reason taxonomy,
// in attribution-priority order: "kernel.pin." + name counts a rack run's
// single-step advances, "room.pin." + name a room run's single-step rack
// chunks, and RackKernelStats.Pins is indexed the same way. Exported for
// evalctl's breakdown table and the identity tests.
func PinReasonNames() []string {
	out := make([]string, pinReasons)
	copy(out, pinNames[:])
	return out
}

// scope names the errors and metrics of one kind of trace run: a rack run
// reports kernel.* and sched.*, a room run room.*. A scope registers only
// the counters its runs can move.
type scope struct {
	name     string // prefix of errors and of the scheduling metrics
	kernel   string // prefix of the advance, window and pin metrics
	steps    string // the rack-advance counter
	segments string // the segment counter; "" where each segment is one advance
	capped   bool   // registers the wall-cap deferral and backfill counters
}

var (
	rackScope = scope{name: "sched", kernel: "kernel", steps: "kernel.steps.total", capped: true}
	roomScope = scope{name: "room", kernel: "room", steps: "room.rack.steps.total", segments: "room.segments"}
)

// windowLenBounds are the <scope>.window.len histogram buckets: powers of
// two up to 16384 steps (a 1 s grid's 4.5-hour window), +Inf implicit.
func windowLenBounds() []float64 { return obs.ExpBuckets(1, 2, 15) }

// runMetrics carries one trace run's metric handles, fetched once at run
// start so the per-step hot path never touches the registry's lock. With
// no registry attached every handle is nil and every call below is a
// nil-receiver no-op — the zero-cost default the golden tables pin. The
// chunk path is charged from inside a room's per-rack fan-out jobs; obs
// handles are atomic and commutative, so the dump stays byte-identical for
// every worker count.
type runMetrics struct {
	segments  *obs.Counter // room.segments: segments crossed (nil for a rack run)
	gridSteps *obs.Counter // <kernel>.grid.steps: fixed-dt steps crossed (Σ segment lengths)
	steps     *obs.Counter // rack advances: kernel.steps.total (== RackSteps), room.rack.steps.total
	macroWins *obs.Counter // <kernel>.windows.macro: advances with window > 1
	winLen    *obs.Histogram
	pins      [pinReasons]*obs.Counter

	submitted  *obs.Counter
	placements *obs.Counter // placement events (a requeued job counts again)
	backfills  *obs.Counter // placements past a blocked head (subset of placements)
	deferrals  *obs.Counter
	completed  *obs.Counter
	requeued   *obs.Counter
	dropped    *obs.Counter
	backlogHW  *obs.Gauge
}

func newRunMetrics(reg *obs.Registry, sc *scope) runMetrics {
	if reg == nil {
		// All-nil handles. Returning before the name concatenations keeps
		// the uninstrumented run's allocation profile untouched.
		return runMetrics{}
	}
	m := runMetrics{
		gridSteps:  reg.Counter(sc.kernel + ".grid.steps"),
		steps:      reg.Counter(sc.steps),
		macroWins:  reg.Counter(sc.kernel + ".windows.macro"),
		winLen:     reg.Histogram(sc.kernel+".window.len", windowLenBounds()),
		submitted:  reg.Counter(sc.name + ".jobs.submitted"),
		placements: reg.Counter(sc.name + ".placements"),
		completed:  reg.Counter(sc.name + ".jobs.completed"),
		requeued:   reg.Counter(sc.name + ".kills.requeued"),
		dropped:    reg.Counter(sc.name + ".kills.dropped"),
		backlogHW:  reg.Gauge(sc.name + ".backlog.highwater"),
	}
	if sc.segments != "" {
		m.segments = reg.Counter(sc.segments)
	}
	if sc.capped {
		m.backfills = reg.Counter(sc.name + ".backfills")
		m.deferrals = reg.Counter(sc.name + ".deferrals")
	}
	for i := range m.pins {
		m.pins[i] = reg.Counter(sc.kernel + ".pin." + pinNames[i])
	}
	return m
}

// segment charges one segment spanning `window` grid steps.
func (m *runMetrics) segment(window int) {
	m.segments.Inc()
	m.gridSteps.Add(int64(window))
}

// chunk charges one rack advance spanning `window` grid steps, pinned by
// `reason` when the window is a single step. Safe to call concurrently.
func (m *runMetrics) chunk(window int, reason pinReason) {
	m.steps.Inc()
	m.winLen.Observe(float64(window))
	if window > 1 {
		m.macroWins.Inc()
	} else {
		m.pins[reason].Inc()
	}
}
