package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/units"
)

// Plant is the physics a trace run steps, plus the placement it offers the
// FIFO head: one rack (RunTraceCfg) or a room of racks (RunPlant). The
// kernel numbers the racks' server slots consecutively in Racks order;
// loads, placements and running jobs all use that global slot index. A
// plant may implement LoadOnlyRefuser for the whole of its placement.
//
// Between two advances the kernel reads and writes the plant through
// these methods only, never a server: a room answers Health, TripRisk and
// StateSum from what each rack's fan-out job recorded after its last
// advance, and applies the loads inside those jobs, so the serial phase
// touches rack-level state only.
type Plant interface {
	// Racks lists the racks in slot order, fixed for a run: the kernel
	// validates fault schedules against them, plans each rack's chunks
	// (Segment.Chunk) and rolls up their metrics after the run.
	Racks() []*rack.Rack
	Now() float64 // the plant clock, seconds: the run's grid starts there
	// SetLoads commits the dispatcher's per-slot loads: the next Cross runs
	// under them. The slice stays the kernel's; the plant reads it until
	// the next SetLoads.
	SetLoads(loads []units.Percent)
	// Cross advances the whole plant across a segment, charging every rack
	// advance it takes (see Segment.Chunk).
	Cross(s *Segment)
	// ApplyFault and ClearFault fire one pinned fault edge on rack i.
	ApplyFault(i int, ev fault.Event) error
	ClearFault(i int, ev fault.Event) error
	// Place is the head-placement hook: the global slot the plant's policy
	// picks for job j at the committed per-slot loads, validated, or -1
	// when it refuses. A refusal changes no state the next Place reads.
	Place(j Job, loads []units.Percent) (int, error)
	// Health reports the health of slot `slot` of rack i (rack.Health),
	// TripRisk whether any live slot sits inside the trip-guard band
	// (rack.TripRisk), and StateSum the divergence guard's fold of every
	// rack's rack.StateSum in rack order — each as of the last advance or
	// fault edge.
	Health(i, slot int) rack.Health
	TripRisk() bool
	StateSum() float64
}

// Segment is the stretch of grid steps [K, End), Dt seconds each, that the
// kernel crosses between two decision steps — a single step on fixed-dt.
// Plant.Cross advances every rack across it.
type Segment struct {
	K, End int
	Dt     float64

	e     *traceRun
	cause pinReason // the bound that ended the segment
}

// Chunk plans rack i's next advance inside the segment, from grid step k:
// it ticks the rack's fan controllers (at tickAt's instant) and returns how
// many steps the rack may cross in one rack.Advance — to the segment's
// end, or sooner to the step its controllers' quiet horizon reaches. A
// one-step chunk asks for no horizon, which could not shorten it. The
// chunk is charged to rack i's RackKernelStats and pin counters, a single
// step to the bound that ended it (the segment's on a tie). Cross may
// chunk different racks concurrently; each rack's chunks run in order.
func (s *Segment) Chunk(i, k int) int {
	e := s.e
	r := e.racks[i]
	now := e.tickAt(r, k)
	r.TickControllers(now)
	w, cause := s.End-k, s.cause
	if w > 1 {
		if q, qc := r.QuietHorizonCause(now, e.dt); !math.IsInf(q, 1) {
			if kq := max(e.stepAtOrAfter(q), k+1); kq-k < w {
				w, cause = kq-k, quietPin(r, qc)
			}
		}
	}
	e.charge(i, w, cause)
	return w
}

// RackKernelStats is one rack's advance accounting over a run. The pin
// identity Advances − MacroWindows == Σ Pins holds by construction.
type RackKernelStats struct {
	Advances     int   // rack.Advance calls
	MacroWindows int   // advances spanning more than one grid step
	Pins         []int // single-step advances by reason, indexed as PinReasonNames
}

// active is a placed job with its completion time. The original Job and
// the placement instant ride along so a fault-kill can requeue it and
// account the discarded progress.
type active struct {
	end    float64
	slot   int // global slot
	demand units.Percent
	job    Job
	start  float64 // elapsed (trace-relative) placement instant
}

// faultAction is one pinned fault edge: apply or clear ev on rack `rack` at
// grid step k.
type faultAction struct {
	k     int
	rack  int
	apply bool
	ev    fault.Event
}

// traceRun is the state of one trace execution on the one decision loop
// (runEvents), for either kernel, a rack and a room alike.
type traceRun struct {
	plant  Plant
	racks  []*rack.Rack
	first  []int // first global slot of each rack, then the slot count
	rackOf []int // rack of each global slot; nil for a single rack
	sc     *scope

	// A rack run's rack, policy and placement views (its plant is the run
	// itself, see rackPlant); r is nil for a room. A rack run's controller
	// horizon bounds the global window, and the wall cap, the deferral proof
	// and checkpoints are features of rack runs only.
	r     *rack.Rack
	p     Policy
	views []ServerView

	jobs []Job
	tc   TraceConfig
	dt   float64
	res  Result
	// kstats is each rack's advance accounting for RunPlant, nil for the
	// runs that do not report it; fan-out job i writes only kstats[i].
	kstats []RackKernelStats
	loads  []units.Percent
	// pendingDC tracks, per slot, the DC increments of placements admitted
	// earlier in the current step: the rack's measured draw lags behind by
	// one step (loads apply at the next Step), so cap admission must count
	// same-step placements or several jobs could jointly breach the cap.
	// nil without a cap.
	pendingDC []units.Watts
	pending   []Job
	running   []active
	totalWait float64
	nextJob   int
	start     float64
	steps     int

	// Run control: k0 is the first grid step to process (non-zero only on
	// resume), nextCkpt the next periodic-checkpoint instant in elapsed
	// seconds, hooks whether boundary() needs to run at all — one branch
	// per decision step when disabled.
	k0       int
	nextCkpt float64
	hooks    bool

	// loadOnly records that the plant's placement opted into
	// LoadOnlyRefuser. crossBlocked, fixed at run start, allows the event
	// kernel to grant macro windows over a refused FIFO head; a
	// cap-deferred head is crossed whenever backfill is off (see runEvents
	// and foldBlocked). capExtra is the wall-floor query's scratch: the
	// head's DC increment per slot, +Inf where it cannot go. models holds
	// each slot's power model for cap admission, read once at run start
	// under a cap.
	loadOnly     bool
	crossBlocked bool
	capExtra     []units.Watts
	models       []power.ServerModel

	// Pinned fault edges in application order (k ascending, clears before
	// applies at a shared step, then rack and declaration order), the
	// cursor into them, and the sorted wake steps the event kernel must
	// not cross.
	actions    []faultAction
	nextAction int
	faultSteps []int

	seg Segment // the segment Plant.Cross is crossing
	m   runMetrics
}

// gridSteps validates a run's time grid and returns its step count. A
// non-finite or non-positive Dt or Horizon would otherwise run zero steps,
// and a non-finite SampleEvery pin every one, without an error; a negative
// SampleEvery would silently read as 0. Past 2^53 steps a float64 no
// longer holds every step index exactly.
func gridSteps(dt, horizon, sampleEvery float64) (int, error) {
	switch {
	case !(dt > 0) || math.IsInf(dt, 1):
		return 0, fmt.Errorf("Dt must be positive and finite, got %g", dt)
	case !(horizon > 0) || math.IsInf(horizon, 1):
		return 0, fmt.Errorf("Horizon must be positive and finite, got %g", horizon)
	case !(sampleEvery >= 0) || math.IsInf(sampleEvery, 1):
		return 0, fmt.Errorf("SampleEvery must be zero or positive and finite, got %g", sampleEvery)
	}
	n := math.Ceil(horizon/dt - 1e-9)
	if n > 1<<53 {
		return 0, fmt.Errorf("Horizon %g over Dt %g gives %g grid steps, more than 2^53", horizon, dt, n)
	}
	return int(n), nil
}

// checkJob validates one job of a trace: a finite arrival, a duration
// that is not NaN or negative (+Inf never completes), and a demand in
// (0, 100], the rule loadgen.PoissonTraceConfig.Validate applies — a job
// no slot can ever fit would block the FIFO head for the rest of the run.
func checkJob(j Job) error {
	switch {
	case math.IsNaN(j.Arrival) || math.IsInf(j.Arrival, 0):
		return fmt.Errorf("job %d: arrival %g is not finite", j.ID, j.Arrival)
	case !(j.Duration >= 0):
		return fmt.Errorf("job %d: duration %g is NaN or negative", j.ID, j.Duration)
	case !(j.Demand > 0) || j.Demand > 100:
		return fmt.Errorf("job %d: demand %v outside (0,100]", j.ID, j.Demand)
	}
	return nil
}

// init validates what every run shares — the time grid, the jobs and
// their order, and the fault schedules, one per rack — and fills in the
// run state for plant pl, keeping the rack-run fields already set.
func (e *traceRun) init(pl Plant, jobs []Job, tc TraceConfig, faults []*fault.Schedule, sc *scope) error {
	steps, err := gridSteps(tc.Dt, tc.Horizon, tc.SampleEvery)
	if err != nil {
		return fmt.Errorf("%s: %w", sc.name, err)
	}
	for i, j := range jobs {
		if i > 0 && j.Arrival < jobs[i-1].Arrival {
			return fmt.Errorf("%s: jobs must be sorted by arrival time", sc.name)
		}
		if err := checkJob(j); err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
	}
	racks := pl.Racks()
	if len(faults) > 0 && len(faults) != len(racks) {
		return fmt.Errorf("%s: %d fault schedules for %d racks (one per rack, nil entries allowed)", sc.name, len(faults), len(racks))
	}
	e.plant, e.racks, e.sc = pl, racks, sc
	e.jobs, e.tc, e.dt, e.steps = jobs, tc, tc.Dt, steps
	e.res = Result{Submitted: len(jobs)}
	e.start = pl.Now()
	e.hooks = tc.Ctx != nil || tc.CheckpointSink != nil
	e.m = newRunMetrics(tc.Metrics, sc)
	e.seg = Segment{Dt: tc.Dt, e: e}
	e.first = make([]int, len(racks)+1)
	for i, r := range racks {
		e.first[i+1] = e.first[i] + r.NumServers()
	}
	n := e.first[len(racks)]
	if len(racks) > 1 {
		e.rackOf = make([]int, n)
		for i := range racks {
			for s := e.first[i]; s < e.first[i+1]; s++ {
				e.rackOf[s] = i
			}
		}
	}
	e.loads = make([]units.Percent, n)
	lr, ok := pl.(LoadOnlyRefuser)
	e.loadOnly = ok && lr.RefusalIsLoadOnly()
	// A refused head can be crossed only when the placement decides on
	// loads and health alone. Backfill under a cap would retry every queued
	// job against the evolving wall draw each step, which the wall-floor
	// proof does not cover.
	e.crossBlocked = e.loadOnly && !(tc.WallCapW > 0 && tc.Backfill)
	for i, sch := range faults {
		if sch.Empty() {
			continue
		}
		r := racks[i]
		if err := sch.Validate(r.NumServers(), r.Server(0).Fans().NumFans()); err != nil {
			return fmt.Errorf("%s: fault schedule for rack %d: %w", sc.name, i, err)
		}
		e.pinFaults(i, sch)
	}
	sort.SliceStable(e.actions, func(a, b int) bool {
		if e.actions[a].k != e.actions[b].k {
			return e.actions[a].k < e.actions[b].k
		}
		return !e.actions[a].apply && e.actions[b].apply
	})
	for _, a := range e.actions {
		e.faultSteps = append(e.faultSteps, a.k)
	}
	return nil
}

// RunPlant drives a plant of racks through the job trace with RunTraceCfg's
// decision process, the plant's Place as the placement and its Cross
// chunking each event segment per rack. room.RunTrace runs on it; its
// errors and metrics carry the room scope (room.*). faults holds one
// schedule per rack, nil entries and a nil slice being fault-free. The
// wall cap, backfill, checkpoints and tc.Faults are rack-run features and
// must be left zero. Alongside the Result, whose RackSteps counts the
// segments crossed, it returns each rack's advance accounting, also when
// the run stops early with an error.
func RunPlant(pl Plant, jobs []Job, tc TraceConfig, faults []*fault.Schedule) (Result, []RackKernelStats, error) {
	if tc.WallCapW != 0 || tc.CapMarginal != nil || tc.Backfill ||
		tc.CheckpointEvery != 0 || tc.CheckpointSink != nil || tc.Faults != nil {
		return Result{}, nil, fmt.Errorf("%s: wall cap, backfill, checkpoints and TraceConfig.Faults are rack-run features", roomScope.name)
	}
	e := new(traceRun)
	if err := e.init(pl, jobs, tc, faults, &roomScope); err != nil {
		return Result{}, nil, err
	}
	e.kstats = make([]RackKernelStats, len(e.racks))
	for i := range e.kstats {
		e.kstats[i].Pins = make([]int, pinReasons)
	}
	e.m.submitted.Add(int64(len(jobs)))
	res, err := e.run()
	return res, e.kstats, err
}

// Settle advances the rack with no offered load for `duration` seconds —
// the idle stabilization window experiments run before their measured
// trace. See SettlePlant.
func Settle(r *rack.Rack, dt, duration float64, eventStepping bool) error {
	e := &traceRun{r: r, p: NewRoundRobin()}
	return e.settle((*rackPlant)(e), dt, duration, eventStepping)
}

// SettlePlant advances a plant with no offered load for `duration` seconds,
// on the trace kernel with an empty trace: both kernels apply the
// dispatcher's zero loads, whatever loads the plant ran under before, and
// both run the divergence guard. With event stepping the whole window
// collapses into a handful of controller-horizon macro windows; otherwise
// every segment is one grid step (an integer step count, so a non-integer
// dt cannot drift the window). A duration of zero or less settles nothing;
// a non-finite one, or an invalid dt, is an error.
func SettlePlant(pl Plant, dt, duration float64, eventStepping bool) error {
	return new(traceRun).settle(pl, dt, duration, eventStepping)
}

func (e *traceRun) settle(pl Plant, dt, duration float64, eventStepping bool) error {
	if !isFinite(duration) {
		return fmt.Errorf("sched: settle duration must be finite, got %g", duration)
	}
	if duration <= 0 {
		return nil
	}
	if err := e.init(pl, nil, TraceConfig{Dt: dt, Horizon: duration, EventStepping: eventStepping}, nil, &rackScope); err != nil {
		return err
	}
	_, err := e.run()
	return err
}

// run executes the decision loop and folds the post-run accounting —
// shared by every entry point. On a cancellation or divergence error the
// partial Result is still returned alongside it.
func (e *traceRun) run() (Result, error) {
	err := e.runEvents()
	if e.res.Placed > 0 {
		e.res.MeanWaitSec = e.totalWait / float64(e.res.Placed)
	}
	if e.tc.Metrics != nil {
		// Serial post-run fold of the physics-layer counters, in rack order;
		// the per-step kernel and scheduling counts were charged as they
		// happened.
		for _, r := range e.racks {
			r.MetricsInto(e.tc.Metrics)
		}
		e.res.Metrics = e.tc.Metrics
	}
	return e.res, err
}

// runEvents is the decision loop of every run. It visits exactly the grid
// steps at which something can be decided — a job arrival or completion,
// a blocked backlog retry, a controller wake-up, a telemetry sample — and
// has the plant cross every gap in between as one segment: a rack in one
// rack.Advance macro window, a room rack by rack in chunks
// (Segment.Chunk); the steps a segment crosses over a blocked head replay
// their bookkeeping in foldBlocked. The fixed-dt reference is the same
// loop with every step an event: each segment one grid step, charged
// pinFixedDt, each rack's controllers ticking at the rack clock (tickAt).
func (e *traceRun) runEvents() error {
	sampleSteps := 0
	if e.tc.SampleEvery > 0 {
		// Clamped to the run's length: a cadence past the horizon never
		// fires, and its step count could overflow an int.
		sampleSteps = max(int(min(math.Round(e.tc.SampleEvery/e.dt), float64(e.steps))), 1)
	}
	for k := e.k0; k < e.steps; {
		if e.hooks {
			if err := e.boundary(k); err != nil {
				return err
			}
		}
		blk, err := e.processStep(k)
		if err != nil {
			return err
		}
		e.plant.SetLoads(e.loads)
		if e.r != nil {
			// A rack run's controllers tick here, and on the event kernel
			// their quiet horizon bounds the window; a room's racks tick per
			// chunk.
			e.r.TickControllers(e.tickAt(e.r, k))
		}
		window, reason := 1, pinFixedDt
		if e.tc.EventStepping {
			// A blocked head pins the kernel to single steps — retried every
			// step against fresh telemetry, like the reference path — unless
			// the kernel can cross it: a refused head when the placement
			// decides on loads and health alone (LoadOnlyRefuser), which
			// change only at wake events; a cap-deferred head, with backfill
			// off, for as many steps as window() proves the cap admission
			// fails.
			reason = pinBacklog
			if blk == headClear || blk == headRefused && e.crossBlocked || blk == headDeferred && !e.tc.Backfill {
				window, reason = e.window(k, e.start+float64(k)*e.dt, sampleSteps, blk)
			}
			if blk != headClear && window > 1 {
				if err := e.foldBlocked(k, window, blk); err != nil {
					return err
				}
			}
		}
		e.seg.K, e.seg.End, e.seg.cause = k, k+window, reason
		e.plant.Cross(&e.seg)
		e.res.RackSteps++
		e.m.segment(window)
		k += window
		if err := e.checkFinite(k); err != nil {
			return err
		}
	}
	return nil
}

// tickAt is the instant rack r's controllers tick at grid step k: grid
// time on the event kernel, the rack's accumulated clock on fixed-dt, as
// rack.Step ticks. The two agree exactly at integer dt and to an ulp
// otherwise, where a hold-off boundary could move a fan decision a step.
func (e *traceRun) tickAt(r *rack.Rack, k int) float64 {
	if e.tc.EventStepping {
		return e.start + float64(k)*e.dt
	}
	return r.Now()
}

// headBlock says how the FIFO head ended a decision step.
type headBlock uint8

const (
	headClear    headBlock = iota // the backlog drained
	headRefused                   // the policy refused the head
	headDeferred                  // the wall cap deferred the head
)

// processStep takes every scheduling decision of grid step k: completions
// free capacity, arrivals join the backlog, and the FIFO head places while
// the plant's policy (and the wall cap) accepts. It reports how the head
// ended the step.
func (e *traceRun) processStep(k int) (headBlock, error) {
	elapsed := float64(k) * e.dt
	now := e.start + elapsed
	for i := range e.pendingDC {
		e.pendingDC[i] = 0
	}

	// Completions first: capacity freed this instant is placeable now.
	keep := e.running[:0]
	for _, a := range e.running {
		if a.end <= now {
			e.loads[a.slot] -= a.demand
			e.res.Completed++
			e.m.completed.Inc()
			continue
		}
		keep = append(keep, a)
	}
	e.running = keep

	// Fault edges pinned to this step fire now, serially in application
	// order — after completions (a job ending exactly at a fault instant
	// completes), before the kill scan and any placement of the step.
	for e.nextAction < len(e.actions) && e.actions[e.nextAction].k <= k {
		a := e.actions[e.nextAction]
		var err error
		if a.apply {
			err = e.plant.ApplyFault(a.rack, a.ev)
		} else {
			err = e.plant.ClearFault(a.rack, a.ev)
		}
		if err != nil {
			return headClear, fmt.Errorf("%s: fault at step %d: %w", e.sc.name, k, err)
		}
		e.nextAction++
	}

	// Kill scan: work running on a slot that is no longer healthy — a
	// fault edge above, or a natural thermal trip latched by the physics
	// since the last decision — is destroyed this instant. Requeued jobs
	// rejoin the backlog HEAD in kill order (arrival fairness: they were
	// placed before anything still queued), with their wait clock
	// restarted at the kill instant; under DropOnFault they are abandoned.
	var killed []Job
	keep = e.running[:0]
	for _, a := range e.running {
		ri := 0
		if e.rackOf != nil {
			ri = e.rackOf[a.slot]
		}
		if e.plant.Health(ri, a.slot-e.first[ri]) == rack.Healthy {
			keep = append(keep, a)
			continue
		}
		e.loads[a.slot] -= a.demand
		e.res.Placed--
		if e.tc.DropOnFault {
			e.res.Lost++
			e.m.dropped.Inc()
			e.res.LostJobSeconds += a.job.Duration
		} else {
			e.res.Requeued++
			e.m.requeued.Inc()
			e.res.LostJobSeconds += elapsed - a.start
			j := a.job
			j.Arrival = elapsed
			killed = append(killed, j)
		}
	}
	e.running = keep
	if len(killed) > 0 {
		e.pending = append(killed, e.pending...)
	}

	// Arrivals join the FIFO backlog. A job is admitted at the tick of
	// the step interval [elapsed, elapsed+dt) containing its arrival —
	// the standard event-to-fixed-step collapse (anticipation < dt) —
	// so every job with Arrival < horizon is admitted; an
	// `Arrival <= elapsed` rule would silently drop arrivals in the
	// final step of the window.
	for e.nextJob < len(e.jobs) && e.jobs[e.nextJob].Arrival < elapsed+e.dt {
		e.pending = append(e.pending, e.jobs[e.nextJob])
		e.nextJob++
	}
	if len(e.pending) > e.res.MaxQueueLen {
		e.res.MaxQueueLen = len(e.pending)
	}
	e.m.backlogHW.SetMax(float64(len(e.pending)))

	// Place from the head while the policy accepts.
	blk := headClear
	for len(e.pending) > 0 {
		j := e.pending[0]
		slot, err := e.plant.Place(j, e.loads)
		if err != nil {
			return blk, err
		}
		if slot < 0 {
			blk = headRefused
			break
		}
		if !e.admitCap(j, slot) {
			// Deferral: the head blocks under the budget and is retried
			// next step, after completions free power.
			e.res.Deferrals++
			e.m.deferrals.Inc()
			blk = headDeferred
			break
		}
		e.place(j, slot, now, elapsed)
		e.pending = e.pending[1:]
	}
	// The head blocked (or the queue drained). One FIFO backfill pass lets
	// later jobs place past a blocked head when enabled.
	if e.tc.Backfill && len(e.pending) > 1 {
		if err := e.backfill(now, elapsed); err != nil {
			return blk, err
		}
	}
	return blk, nil
}

// place commits job j to global slot `slot` at decision instant (now
// absolute, elapsed trace-relative): loads, the running set, the wait
// meter and the placement counters.
func (e *traceRun) place(j Job, slot int, now, elapsed float64) {
	e.loads[slot] += j.Demand
	e.running = append(e.running, active{end: now + j.Duration, slot: slot, demand: j.Demand, job: j, start: elapsed})
	// Clamp at zero: admission rounds an arrival down to its step's
	// tick (anticipation < dt), which is not a queueing delay.
	if wait := elapsed - j.Arrival; wait > 0 {
		e.totalWait += wait
	}
	e.res.Placed++
	e.m.placements.Inc()
}

// charge books one advance of rack i spanning `window` grid steps: a macro
// window, or a single step pinned by `reason`. Safe to call concurrently
// for distinct racks.
func (e *traceRun) charge(i, window int, reason pinReason) {
	if e.kstats != nil {
		st := &e.kstats[i]
		st.Advances++
		if window > 1 {
			st.MacroWindows++
		} else {
			st.Pins[reason]++
		}
	}
	e.m.chunk(window, reason)
}

// quietPin is the pin reason of a single step that rack r's controller
// horizon ended, given the horizon's cause.
func quietPin(r *rack.Rack, qc rack.QuietCause) pinReason {
	switch {
	case qc == rack.QuietNoPromiser:
		return pinNoPromise
	case r.FansUnsettled():
		return pinFanSlew
	}
	return pinController
}

// deferWalkSteps caps how many grid steps one wall-floor proof walks
// ahead: the proof costs a propagator walk per slot, and the margin a
// deferral keeps over the cap shrinks as the floor reaches further.
const deferWalkSteps = 16

// window returns the segment length from step k — up to, exclusive, the
// next grid step at which anything can happen — plus the pin reason
// charged when that length is a single step. The reason is the bound that
// strictly lowered `next` last; on ties the earlier check wins, so the
// attribution precedence is horizon-end, arrival, fault-edge, completion,
// a rack run's controller horizon, sample grid, and last the deferral
// proof (charged as backlog) — deterministic for every worker count
// because every bound is computed from serial state. blk is how the head
// ended step k.
func (e *traceRun) window(k int, now float64, sampleSteps int, blk headBlock) (int, pinReason) {
	// Fault runs pin to single steps while any live server sits inside the
	// trip-guard band (rack.TripRisk): a natural trip latching mid-window
	// would defer its job kills to the window's end, diverging from the
	// fixed-dt reference that observes the trip on its exact step. A
	// backlog-crossing window takes the same pin on fault-free runs too,
	// since a refusal or a pick is conditioned on slot health.
	if (len(e.actions) > 0 || len(e.pending) > 0) && e.plant.TripRisk() {
		return 1, pinTripGuard
	}
	next, cause := e.steps, pinHorizonEnd
	// Behind a blocked head an arrival can only join the tail, unless a
	// backfill pass would try it; foldBlocked admits it at its step.
	if e.nextJob < len(e.jobs) && (blk == headClear || e.tc.Backfill) {
		if ka := e.arrivalStep(e.jobs[e.nextJob].Arrival); ka < next {
			next, cause = ka, pinArrival
		}
	}
	// Fault edges are wake events: the kernel must take the decision step
	// at exactly the pinned inject/clear instants. faultSteps is sorted, so
	// the first entry past k is the nearest.
	for _, kf := range e.faultSteps {
		if kf > k {
			if kf < next {
				next, cause = kf, pinFaultEdge
			}
			break
		}
	}
	for _, a := range e.running {
		if kc := e.stepAtOrAfter(a.end); kc < next {
			next, cause = kc, pinCompletion
		}
	}
	if e.r != nil {
		if q, qc := e.r.QuietHorizonCause(now, e.dt); !math.IsInf(q, 1) {
			if kq := e.stepAtOrAfter(q); kq < next {
				next, cause = kq, quietPin(e.r, qc)
			}
		}
	}
	if sampleSteps > 0 {
		if ks := (k/sampleSteps + 1) * sampleSteps; ks < next {
			next, cause = ks, pinSample
		}
	}
	if next <= k {
		next = k + 1
	}
	if blk == headDeferred && next > k+1 {
		skip := min(next-k-1, deferWalkSteps)
		if proven := e.deferSteps(skip); proven < next-k-1 {
			next, cause = k+1+proven, pinBacklog
		}
	}
	return next - k, cause
}

// foldBlocked replays the bookkeeping of the grid steps k+1 … k+window−1
// that a segment crosses while the FIFO head stays blocked — what the
// fixed-dt reference does there, minus the physics. Nothing completes and
// no fault edge fires inside a segment, so at each step arrivals join the
// tail (window() ends segments at arrivals whenever one could place) and
// the head is retried. A refused head is refused again — the placement
// decides on loads and health, which have not changed — so no Place call
// is made, exactly as a LoadOnlyRefuser's refusal changes no state. A
// cap-deferred head's retries are replayed (replayDeferred).
func (e *traceRun) foldBlocked(k, window int, blk headBlock) error {
	last := k + window - 1
	for e.nextJob < len(e.jobs) && e.jobs[e.nextJob].Arrival < float64(last)*e.dt+e.dt {
		e.pending = append(e.pending, e.jobs[e.nextJob])
		e.nextJob++
	}
	if len(e.pending) > e.res.MaxQueueLen {
		e.res.MaxQueueLen = len(e.pending)
	}
	e.m.backlogHW.SetMax(float64(len(e.pending)))
	if blk != headDeferred {
		return nil
	}
	return e.replayDeferred(k, last)
}

// arrivalStep returns the grid step at which the fixed-dt reference
// admits an arrival at time a: the smallest k satisfying the admission
// predicate. The candidate from the division is corrected against the
// decision loop's own float expression — fl(fl(k·dt)+dt), NOT
// fl((k+1)·dt), which can round differently — so the two kernels can
// never disagree on the admitting step.
func (e *traceRun) arrivalStep(a float64) int {
	admits := func(k int) bool { return a < float64(k)*e.dt+e.dt }
	k := e.startStep(a / e.dt)
	for k < e.steps && !admits(k) {
		k++
	}
	for k > 0 && admits(k-1) {
		k--
	}
	return k
}

// pinFaults pins every event of rack ri's schedule to its integer grid
// steps: the apply edge at the first step with k·dt ≥ At, the clear edge
// (for windowed events) at the first step with k·dt ≥ Clear. Edges landing
// past the horizon are dropped — a fault injecting too late never happens;
// a clear past the horizon leaves the fault active to the end. An apply
// and its clear pinning to the same step collapse to nothing (a zero-step
// fault window has no observable effect at any decision instant). init
// then orders the surviving edges by step, clears before applies at a
// shared step, rack and declaration order as the final tie-breaks.
func (e *traceRun) pinFaults(ri int, sch *fault.Schedule) {
	for _, ev := range sch.Events {
		ka := e.relStepAtOrAfter(ev.At)
		if ka >= e.steps {
			continue
		}
		if ev.Windowed() {
			kc := e.relStepAtOrAfter(ev.Clear)
			if kc == ka {
				continue
			}
			e.actions = append(e.actions, faultAction{k: ka, rack: ri, apply: true, ev: ev})
			if kc < e.steps {
				e.actions = append(e.actions, faultAction{k: kc, rack: ri, apply: false, ev: ev})
			}
			continue
		}
		e.actions = append(e.actions, faultAction{k: ka, rack: ri, apply: true, ev: ev})
	}
}

// relStepAtOrAfter returns the smallest grid step k with k·dt ≥ t for a
// trace-relative time t — the pinning rule for fault inject/clear edges.
// The correction loops evaluate the same float expression processStep's
// elapsed uses, so both stepping modes agree on the step.
func (e *traceRun) relStepAtOrAfter(t float64) int {
	k := e.startStep(t / e.dt)
	for k < e.steps && float64(k)*e.dt < t {
		k++
	}
	for k > 0 && float64(k-1)*e.dt >= t {
		k--
	}
	return k
}

// stepAtOrAfter returns the smallest grid step k with start + k·dt ≥ t —
// the step at which the fixed-dt reference first sees `a.end <= now` for
// a completion at t, and the wake step for a controller horizon at t. The
// correction loops evaluate the identical float expression the decision
// code uses.
func (e *traceRun) stepAtOrAfter(t float64) int {
	k := e.startStep((t - e.start) / e.dt)
	for k < e.steps && e.start+float64(k)*e.dt < t {
		k++
	}
	for k > 0 && e.start+float64(k-1)*e.dt >= t {
		k--
	}
	return k
}

// startStep is where the grid-step helpers above start their correction
// loops for a time of x grid steps: x's integer part, clamped to
// [0, steps]. The helpers answer at most steps, the horizon: a time at or
// past it can only mean "past the horizon" to every caller, and saturating
// before the conversion keeps a huge time (or a NaN, which no step
// satisfies) from overflowing the int and walking up from 0 step by step.
func (e *traceRun) startStep(x float64) int {
	switch {
	case !(x < float64(e.steps)):
		return e.steps
	case x > 0:
		return int(x)
	}
	return 0
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkFinite is the divergence guard both kernels run after every
// advance: one fold of every rack's rack.StateSum (Plant.StateSum), the
// NaN-transparent sum of every thermal node, DIMM, fan, and power
// aggregate. The max-style telemetry roll-ups skip NaN in their
// comparisons and the leakage curve clamps temperature, so a poisoned node
// can otherwise coast silently to the horizon; the sum cannot hide it. k
// is the grid step the run has advanced to.
func (e *traceRun) checkFinite(k int) error {
	sum := e.plant.StateSum()
	if isFinite(sum) {
		return nil
	}
	d := &Diverged{Step: k, StateSum: sum}
	for _, r := range e.racks {
		d.DCW += float64(r.DCPower())
		d.WallW += float64(r.WallPower())
	}
	if e.r != nil {
		// Best-effort diagnostic snapshot: the state is non-finite, so a
		// capture error is secondary to reporting the divergence itself.
		d.Checkpoint, _ = e.checkpoint(k)
	}
	return d
}
