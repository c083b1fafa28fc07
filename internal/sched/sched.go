package sched

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cooling"
	"repro/internal/fault"
	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/units"
)

// Job is one schedulable unit of work.
type Job struct {
	ID       int
	Arrival  float64       // seconds from trace start
	Duration float64       // service time, seconds
	Demand   units.Percent // CPU demand on the server that runs it
}

// JobsFromSpecs converts a loadgen trace into scheduler jobs, assigning
// sequential IDs in arrival order.
func JobsFromSpecs(specs []loadgen.JobSpec) []Job {
	jobs := make([]Job, len(specs))
	for i, s := range specs {
		jobs[i] = Job{ID: i, Arrival: s.Arrival, Duration: s.Duration, Demand: s.Demand}
	}
	return jobs
}

// ServerView is the dispatcher's telemetry snapshot of one server at a
// placement instant.
type ServerView struct {
	Index      int // slot in the rack
	Name       string
	Load       units.Percent // demand already scheduled on it
	Free       units.Percent // remaining capacity (100 − Load)
	MaxCPUTemp units.Celsius // hottest true die temperature
	InletTemp  units.Celsius // current CPU inlet air temperature
	DCPower    units.Watts   // instantaneous total DC draw
	WallPower  units.Watts   // DC draw lifted through the slot's PSU
	// Health is the slot's degradation state (rack.Health). Only Healthy
	// slots may take placements; the zero value is Healthy, so views built
	// without fault awareness stay placeable.
	Health rack.Health
}

// Policy decides where a job runs. Place returns the chosen rack slot, or
// -1 to leave the job queued (e.g. no server has the capacity). Views are
// presented in rack order; implementations must be deterministic, breaking
// ties by the lowest index. Place must decide from its arguments and the
// policy's own state only: for a retry it crosses in a macro window, the
// event kernel calls Place with the views it predicts for that step,
// without stepping the rack there (see TraceConfig.EventStepping), and
// relies on this for every policy.
type Policy interface {
	Name() string
	// Reset clears internal state so a policy can be reused across runs.
	Reset()
	Place(j Job, views []ServerView) int
}

// fits reports whether server v can take the job at all: it must be
// healthy — tripped and failed slots are out of rotation until their
// fault clears — with enough free capacity for the demand. Every shipped
// policy filters candidates through this predicate, which is what keeps
// all six fault-aware at once.
func fits(v ServerView, j Job) bool { return v.Health == rack.Healthy && v.Free >= j.Demand }

// LoadOnlyRefuser is the opt-in Policy attribute behind the event kernel's
// refused-head un-pin. A policy returning true promises that the return
// value of Place, and any state Place changes, depend only on the views'
// Index, Name, Load, Free and Health fields — never on temperatures,
// powers or anything else that evolves between scheduling events — and
// that a refused Place call (-1) changes no state. Loads and health change
// only at scheduling events, which bound every macro window, so a decision
// observed at one decision step repeats at every step until the next
// event: the kernel crosses a refused head in one window, with no Place
// call for the skipped retries, and replays a crossed cap-deferred head's
// Place calls with the decision step's views. Refusal is monotone in load
// for every shipped policy (refusal == no view passes fits), so placements
// can only make a refused head more refused, never less.
//
// Round-robin, least-utilized and leakage-aware opt in: leakage-aware's
// cost tables are indexed by load, so its ranking reads no telemetry.
// Coolest-first ranks by die temperature and cap-aware and pue-aware by
// DC and wall draw, so they stay pinned behind a refused head.
type LoadOnlyRefuser interface {
	RefusalIsLoadOnly() bool
}

// RefusalIsLoadOnly reports whether p opted into the load-only refusal
// contract (see LoadOnlyRefuser); policies that do not implement the
// interface stay conservative.
func RefusalIsLoadOnly(p Policy) bool {
	lr, ok := p.(LoadOnlyRefuser)
	return ok && lr.RefusalIsLoadOnly()
}

// ---------------------------------------------------------------------------
// Round-robin

// RoundRobin rotates placements across servers regardless of their state —
// the thermally blind baseline every datacenter dispatcher starts from.
type RoundRobin struct{ next int }

// NewRoundRobin returns the rotating baseline policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Reset implements Policy.
func (p *RoundRobin) Reset() { p.next = 0 }

// RefusalIsLoadOnly implements LoadOnlyRefuser: the rotation reads only
// fits (load + health), and a refused Place leaves the cursor untouched.
func (p *RoundRobin) RefusalIsLoadOnly() bool { return true }

// Place implements Policy: the first server at or after the cursor with
// enough capacity.
func (p *RoundRobin) Place(j Job, views []ServerView) int {
	n := len(views)
	for k := 0; k < n; k++ {
		v := views[(p.next+k)%n]
		if fits(v, j) {
			p.next = (v.Index + 1) % n
			return v.Index
		}
	}
	return -1
}

// ---------------------------------------------------------------------------
// Least-utilized

// LeastUtilized places each job on the server with the most free capacity,
// the classic load-balancing heuristic (still thermally blind).
type LeastUtilized struct{}

// NewLeastUtilized returns the load-balancing policy.
func NewLeastUtilized() *LeastUtilized { return &LeastUtilized{} }

// Name implements Policy.
func (p *LeastUtilized) Name() string { return "least-utilized" }

// Reset implements Policy.
func (p *LeastUtilized) Reset() {}

// RefusalIsLoadOnly implements LoadOnlyRefuser: both the refusal and the
// choice read only Load/Free/Health, and the policy is stateless.
func (p *LeastUtilized) RefusalIsLoadOnly() bool { return true }

// Place implements Policy.
func (p *LeastUtilized) Place(j Job, views []ServerView) int {
	best := -1
	var bestLoad units.Percent
	for _, v := range views {
		if !fits(v, j) {
			continue
		}
		if best < 0 || v.Load < bestLoad {
			best = v.Index
			bestLoad = v.Load
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Coolest-server-first

// CoolestFirst places each job on the feasible server with the lowest die
// temperature — the reactive thermal heuristic. On a heterogeneous rack
// this naturally prefers cold-aisle machines until load warms them past
// their hot-aisle peers.
type CoolestFirst struct{}

// NewCoolestFirst returns the reactive thermal policy.
func NewCoolestFirst() *CoolestFirst { return &CoolestFirst{} }

// Name implements Policy.
func (p *CoolestFirst) Name() string { return "coolest-first" }

// Reset implements Policy.
func (p *CoolestFirst) Reset() {}

// Place implements Policy.
func (p *CoolestFirst) Place(j Job, views []ServerView) int {
	best := -1
	var bestTemp units.Celsius
	for _, v := range views {
		if !fits(v, j) {
			continue
		}
		if best < 0 || v.MaxCPUTemp < bestTemp {
			best = v.Index
			bestTemp = v.MaxCPUTemp
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Leakage-aware

// LeakageAware is the proactive policy the paper's machinery enables: for
// every server it precomputes (via internal/lut, i.e. server.SteadyTemp
// under the 75 °C cap) the steady-state fan+leakage power at each
// utilization level, and places each job where the predicted marginal
// fan+leakage power of adding that job's demand is lowest. Active and
// memory power are placement-invariant (the job costs k1·U wherever it
// runs), so the marginal fan+leak term is exactly what a placement can
// save.
type LeakageAware struct {
	tables []*lut.Table // per rack slot
}

// NewLeakageAwareFromTables builds the policy over already-built per-slot
// cost tables (slot i of the rack uses tables[i]), such as the LUTs the
// rack's fan controllers use (lut.DiskCache.BuildPerConfig), so one grid
// of steady-state solves serves both.
func NewLeakageAwareFromTables(tables []*lut.Table) (*LeakageAware, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("sched: leakage-aware needs at least one table")
	}
	for i, t := range tables {
		if t == nil || len(t.Entries) == 0 {
			return nil, fmt.Errorf("sched: leakage-aware table %d is empty", i)
		}
	}
	return &LeakageAware{tables: tables}, nil
}

// Name implements Policy.
func (p *LeakageAware) Name() string { return "leakage-aware" }

// Reset implements Policy.
func (p *LeakageAware) Reset() {}

// RefusalIsLoadOnly implements LoadOnlyRefuser: the cost tables are read
// at each view's Load, candidates pass through fits, and the policy is
// stateless.
func (p *LeakageAware) RefusalIsLoadOnly() bool { return true }

// SteadyFanLeakMarginal returns the predicted steady-state fan+leakage
// increase of raising utilization u by d, read from a per-slot cost table
// (lut.Build over server.SteadyTemp). It is the slow, thermally settled
// half of a placement's power cost — the half MarginalDCPower deliberately
// excludes — shared by the table-driven policies and the conservative
// cap-admission estimate.
func SteadyFanLeakMarginal(t *lut.Table, u, d units.Percent) (units.Watts, error) {
	before, err := t.EntryFor(u)
	if err != nil {
		return 0, err
	}
	after, err := t.EntryFor(u + d)
	if err != nil {
		return 0, err
	}
	return after.FanLeakPower - before.FanLeakPower, nil
}

// marginal returns the predicted steady-state fan+leakage increase of
// placing demand d on server i currently loaded at u.
func (p *LeakageAware) marginal(i int, u, d units.Percent) (units.Watts, error) {
	return SteadyFanLeakMarginal(p.tables[i], u, d)
}

// Place implements Policy.
func (p *LeakageAware) Place(j Job, views []ServerView) int {
	best := -1
	var bestCost units.Watts
	for _, v := range views {
		if !fits(v, j) {
			continue
		}
		cost, err := p.marginal(v.Index, v.Load, j.Demand)
		if err != nil {
			continue
		}
		if best < 0 || cost < bestCost {
			best = v.Index
			bestCost = cost
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Cap-aware (wall-power aware)

// CapAware is the delivery-chain-aware refinement of LeakageAware: it
// predicts each placement's marginal *wall* power instead of its marginal
// DC power. The steady-state fan+leakage marginal comes from the same
// per-slot LUTs; the placement-invariant active+memory marginal is added
// back (DC-invariant terms stop being placement-invariant at the wall,
// because each PSU's efficiency depends on how loaded that server already
// is); and the total DC increment is lifted through the slot's PSU curve
// at the server's current draw. Ranking by marginal PSU input is ranking
// by marginal wall power: the shared PDU is monotone in its summed input
// and identical across candidates, so it drops out of the comparison.
type CapAware struct {
	tables []*lut.Table
	models []power.ServerModel
	psus   []*power.PSUModel // nil slice or nil entries = ideal supplies
}

// NewCapAwareFromTables builds the policy over already-built per-slot cost
// tables and power models (slot i uses tables[i]/models[i]/psus[i]).
func NewCapAwareFromTables(tables []*lut.Table, models []power.ServerModel, psus []*power.PSUModel) (*CapAware, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("sched: cap-aware needs at least one table")
	}
	if len(models) != len(tables) {
		return nil, fmt.Errorf("sched: cap-aware has %d tables but %d power models", len(tables), len(models))
	}
	if psus != nil && len(psus) != len(tables) {
		return nil, fmt.Errorf("sched: cap-aware has %d tables but %d PSUs", len(tables), len(psus))
	}
	for i, t := range tables {
		if t == nil || len(t.Entries) == 0 {
			return nil, fmt.Errorf("sched: cap-aware table %d is empty", i)
		}
	}
	return &CapAware{tables: tables, models: models, psus: psus}, nil
}

// Name implements Policy.
func (p *CapAware) Name() string { return "cap-aware" }

// Reset implements Policy.
func (p *CapAware) Reset() {}

// marginalWall returns the predicted marginal wall power of placing demand
// d on the server behind view v: the steady fan+leak increment from the
// LUT plus the active+memory increment, lifted through the slot's PSU at
// the server's current DC draw.
func (p *CapAware) marginalWall(v ServerView, d units.Percent) (units.Watts, error) {
	steady, err := SteadyFanLeakMarginal(p.tables[v.Index], v.Load, d)
	if err != nil {
		return 0, err
	}
	mdc := steady + MarginalDCPower(&p.models[v.Index], v.Load, d)
	psu := p.psuFor(v.Index)
	if psu == nil {
		return mdc, nil
	}
	return psu.Wall(v.DCPower+mdc) - psu.Wall(v.DCPower), nil
}

func (p *CapAware) psuFor(i int) *power.PSUModel {
	if p.psus == nil || i >= len(p.psus) {
		return nil
	}
	return p.psus[i]
}

// Place implements Policy: the feasible server with the lowest predicted
// marginal wall power, ties to the lowest index.
func (p *CapAware) Place(j Job, views []ServerView) int {
	best := -1
	var bestCost units.Watts
	for _, v := range views {
		if !fits(v, j) || v.Index >= len(p.tables) {
			continue
		}
		cost, err := p.marginalWall(v, j.Demand)
		if err != nil {
			continue
		}
		if best < 0 || cost < bestCost {
			best = v.Index
			bestCost = cost
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// PUE-aware (facility aware)

// PUEAware is the facility-scope refinement of CapAware: it predicts each
// placement's marginal *facility* power — the marginal wall power plus the
// marginal CRAC/chiller power spent removing it as heat. Two things change
// relative to cap-aware. First, the cost tables are built at the ambients
// the CRAC actually supplies (the configured ambients shifted by the
// setpoint delta), so the steady fan+leak marginals stay calibrated when
// the operator moves the cold aisle — a facility-blind policy's tables go
// stale the moment the setpoint moves. Second, the wall marginal is
// amplified by the facility's own response: the cooling power added by one
// more wall Watt at the rack's current operating point. The amplification
// is monotone and common to every candidate, so within one placement it
// preserves the wall ranking — the recalibrated tables are what move
// decisions; the amplification is what makes the predicted cost the number
// the facility actually pays.
type PUEAware struct {
	inner *CapAware
	fac   cooling.Facility
}

// NewPUEAwareFromTables builds the policy over already-built per-slot cost
// tables — which the caller must have built at the facility's operating
// ambients — power models and PSUs (slot i uses tables[i]/models[i]/psus[i]).
func NewPUEAwareFromTables(tables []*lut.Table, models []power.ServerModel, psus []*power.PSUModel, fac cooling.Facility) (*PUEAware, error) {
	if err := fac.Validate(); err != nil {
		return nil, fmt.Errorf("sched: pue-aware facility: %w", err)
	}
	inner, err := NewCapAwareFromTables(tables, models, psus)
	if err != nil {
		return nil, fmt.Errorf("sched: pue-aware: %w", err)
	}
	return &PUEAware{inner: inner, fac: fac}, nil
}

// Name implements Policy.
func (p *PUEAware) Name() string { return "pue-aware" }

// Reset implements Policy.
func (p *PUEAware) Reset() { p.inner.Reset() }

// marginalFacility returns the predicted marginal facility power of
// placing demand d on the server behind view v, given the rack's current
// total wall draw: the marginal wall power plus the extra cooling power
// the facility spends removing it.
func (p *PUEAware) marginalFacility(v ServerView, d units.Percent, rackWallW float64) (units.Watts, error) {
	mw, err := p.inner.marginalWall(v, d)
	if err != nil {
		return 0, err
	}
	cool := p.fac.CoolingPower(rackWallW+float64(mw)) - p.fac.CoolingPower(rackWallW)
	return mw + units.Watts(cool), nil
}

// Place implements Policy: the feasible server with the lowest predicted
// marginal facility power, ties to the lowest index. The rack's wall draw
// is approximated as the sum of the per-slot PSU inputs the views carry
// (the shared PDU sits between them and the true wall, and is monotone).
func (p *PUEAware) Place(j Job, views []ServerView) int {
	var rackWallW float64
	for _, v := range views {
		rackWallW += float64(v.WallPower)
	}
	best := -1
	var bestCost units.Watts
	for _, v := range views {
		if !fits(v, j) || v.Index >= len(p.inner.tables) {
			continue
		}
		cost, err := p.marginalFacility(v, j.Demand, rackWallW)
		if err != nil {
			continue
		}
		if best < 0 || cost < bestCost {
			best = v.Index
			bestCost = cost
		}
	}
	return best
}

// MarginalDCPower returns the DC power increment of raising utilization u
// by d on a server with power model m, counting the utilization-driven
// components (active CPU and memory/IO). Fan and leakage responses are
// slower and policy-dependent; the cap-aware policy adds them from its
// steady-state tables, while the capped trace runner deliberately uses
// only this fast, model-exact part as its admission estimate.
func MarginalDCPower(m *power.ServerModel, u, d units.Percent) units.Watts {
	return m.Active.Power(u+d) - m.Active.Power(u) + m.Memory.Power(u+d) - m.Memory.Power(u)
}

// ---------------------------------------------------------------------------
// Trace runner

// Result summarizes the scheduling outcome of one trace run; the physics
// outcome lives in the rack's Telemetry.
type Result struct {
	Submitted   int
	Completed   int     // jobs that finished within the horizon
	Placed      int     // jobs currently or finally placed (kills decrement, re-placements increment)
	MeanWaitSec float64 // mean of the waits charged at every placement, over net Placed
	MaxQueueLen int     // worst backlog observed
	Deferrals   int     // placements deferred by the wall-power cap
	RackSteps   int     // rack advances taken: fixed-dt = horizon/dt; event mode = macro windows

	// Backfills counts placements made by the FIFO backfill pass
	// (TraceConfig.Backfill): jobs placed past a blocked queue head. Each
	// is also counted in Placed; zero whenever backfill is off.
	Backfills int

	// Degradation outcome (zero on a fault-free run).
	Requeued int // job kills that rejoined the backlog head (a job can count twice)
	Lost     int // jobs abandoned under TraceConfig.DropOnFault
	// LostJobSeconds totals the work destroyed by kills: the discarded
	// progress of each requeued job (it restarts from scratch) plus the
	// full duration of each dropped job (its service is never delivered).
	LostJobSeconds float64

	// Metrics echoes TraceConfig.Metrics after the run's counters — the
	// kernel's pin-reason breakdown, the scheduling counts, the rack's
	// propagator and macro attribution — have been folded in. nil when no
	// registry was attached.
	Metrics *obs.Registry
}

// TraceConfig parameterizes a trace run.
type TraceConfig struct {
	Dt      float64 // simulation step, seconds; positive and finite
	Horizon float64 // trace window, seconds; positive and finite

	// WallCapW, when positive, is the rack-level wall-power budget: a
	// placement whose predicted post-placement wall draw strictly exceeds
	// the cap is deferred — the FIFO head blocks and is retried on every
	// subsequent step, so capped runs stay deterministic and starvation
	// free (later jobs never overtake a deferred head). The prediction is
	// rack.WallPowerWithAll over the utilization-driven DC increments
	// (MarginalDCPower) of this job plus every placement already admitted
	// in the same step, whose power the physics has not drawn yet; a
	// placement landing exactly on the cap is admitted. Zero disables
	// capping.
	WallCapW float64

	// CapMarginal, when non-nil, holds one steady-state cost table per
	// rack slot (the same per-slot tables the leakage-aware policies are
	// built from; nil entries fall back to the fast estimate) and makes
	// cap admission conservative: the LUT steady fan+leak marginal is
	// added — clamped at zero, so the estimate can only grow — to
	// MarginalDCPower in the wall-cap check. The fast estimate alone
	// counts only the utilization-driven increment, so fan and leakage
	// transients settling after admission can push the wall draw past the
	// cap; the conservative estimate charges the settled cost up front and
	// therefore defers no later (and possibly earlier) than the fast one.
	CapMarginal []*lut.Table

	// EventStepping selects the event-driven kernel: between consecutive
	// events — job arrivals, job completions, fault edges, controller
	// wake-ups, optional telemetry samples — the rack advances in one
	// closed-form macro window (rack.Advance) instead of gap/dt fixed
	// steps, so wall-clock scales with the number of scheduling events
	// rather than the horizon. Scheduling decisions are taken at the same
	// grid steps as the fixed-dt path, through the same code, on telemetry
	// within the macro drift of the reference's; energies agree to ≤1e-6
	// relative (server.Config.MacroDriftTolC), and placements, deferral
	// counts and queue statistics match unless a temperature- or
	// power-ranked pick, or a cap admission, sits within that drift of a
	// tie. What pins the kernel to single steps, and how it crosses a
	// blocked head, is in the package doc. false — the default — is the
	// fixed-dt reference: the same loop with every window pinned to one
	// grid step, the controllers ticking at the rack clock.
	EventStepping bool

	// Backfill enables a FIFO backfill pass whenever the queue head blocks
	// (policy refusal or cap deferral): the remaining queued jobs are tried
	// once each, in arrival order, against the same checks and pendingDC
	// cap admission the head failed, and placed where accepted. The head
	// keeps strict priority, but arrival fairness weakens to
	// head-priority-only: a small job behind a large blocked head may run
	// first, indefinitely often under sustained overload. Cap-blocked
	// candidates count no Deferral (that meter stays head-only). Off (the
	// default) preserves strict FIFO and bit-identical results.
	Backfill bool

	// SampleEvery, in seconds, optionally forces an event-stepping wake at
	// a fixed telemetry cadence, bounding how coarse the peak/maxima
	// sampling can get inside long quiet gaps. 0 (the default) samples
	// only at events and macro sub-step boundaries; a negative or
	// non-finite value is an error. Ignored by the fixed-dt path, which
	// observes every step anyway. Align it with
	// rack.Config.ReliabilitySampleEvery so reliability samples land on
	// identical instants in both stepping modes.
	SampleEvery float64

	// Faults, when non-nil and non-empty, is the deterministic fault
	// schedule (internal/fault) injected through the run. Every event's
	// inject and clear times are pinned up front to the first grid step at
	// or after them — the same integer-step arithmetic that keeps arrivals
	// exact under a non-integer dt — and applied serially at those steps,
	// clears before applies at a shared instant, before any placement
	// decision of the step. Jobs running on a server that turns unhealthy
	// are killed the same instant: requeued at the backlog head in
	// kill order (the default), or abandoned under DropOnFault. A job
	// completing exactly at a fault instant completes — completions are
	// processed first. An empty or nil schedule leaves every metric
	// bit-identical to a fault-free run.
	Faults *fault.Schedule

	// DropOnFault switches the kill policy from requeue-at-head to drop:
	// killed jobs are counted Lost and never rejoin the backlog. Use it to
	// model work without a retry path (the default models idempotent batch
	// jobs restarted from scratch).
	DropOnFault bool

	// Ctx, when non-nil, is the run's cooperative cancellation: it is
	// checked at every decision-step boundary (fixed kernel: every grid
	// step; event kernel: every macro-window boundary), never mid-advance.
	// A cancelled run stops at the boundary and returns the partial Result
	// together with a *Cancelled error whose Checkpoint resumes the run
	// (ResumeTraceCfg) byte-identically to the uninterrupted one. nil — the
	// default — never cancels and adds no per-step cost.
	Ctx context.Context

	// CheckpointEvery, in seconds of simulated time, is the periodic
	// checkpoint cadence: at the first decision-step boundary at or past
	// each multiple, the run's full state is captured and handed to
	// CheckpointSink. Setting either checkpoint field requires the other;
	// CheckpointEvery must be positive and finite. Zero with a nil sink —
	// the default — disables periodic checkpointing entirely.
	CheckpointEvery float64

	// CheckpointSink receives each periodic checkpoint. A sink error
	// aborts the run and is returned verbatim — which doubles as a precise
	// interrupt-at-T mechanism for tests. The sink runs serially on the
	// run's goroutine; what it does with the Checkpoint (snap.EncodeFile,
	// usually) is its own business.
	CheckpointSink func(Checkpoint) error

	// Metrics, when non-nil, receives the run's observability counters:
	// per-advance kernel accounting (steps, macro windows, window-length
	// histogram, the pin-reason breakdown) during the run, scheduling
	// counts as they happen, and the rack's propagator/macro/fault roll-up
	// (rack.MetricsInto) after the loop. Handles are fetched once at run
	// start; per-step updates are atomic, commutative and allocation-free,
	// so one registry may be shared by concurrent runs (the experiments
	// fan-out does exactly that) and still dump byte-identically for every
	// worker count — see internal/obs. nil (the default) records nothing
	// and leaves every result and golden table bit-identical.
	Metrics *obs.Registry
}

// RunTraceCfg drives the rack through the job trace under the policy. Jobs
// are placed FIFO — the queue head blocks until it fits (and, when
// tc.WallCapW is set, until its placement keeps the predicted wall draw at
// or under the cap), preserving arrival fairness and keeping placement
// order deterministic. Loads are applied before each step, so a job's
// demand is charged from the step after its placement. The step count is
// computed up front and elapsed time as k·dt, so a non-integer dt cannot
// drift the window length or event timing the way an accumulated
// `elapsed += dt` would (cf. the thermal RK4 substep fix).
//
// With tc.EventStepping the same decision process runs event-driven: the
// kernel only visits the grid steps where something can happen and
// advances the rack across the quiet gaps in closed-form macro windows
// (see TraceConfig.EventStepping).
func RunTraceCfg(r *rack.Rack, jobs []Job, p Policy, tc TraceConfig) (Result, error) {
	e, err := newTraceRun(r, jobs, p, tc)
	if err != nil {
		return Result{}, err
	}
	p.Reset()
	e.m.submitted.Add(int64(len(jobs)))
	return e.run()
}

// newTraceRun validates the configuration and builds the run state shared
// by RunTraceCfg and ResumeTraceCfg — everything up to, but excluding, the
// fresh-run-only initialization (policy reset, submitted count) a resume
// must skip.
func newTraceRun(r *rack.Rack, jobs []Job, p Policy, tc TraceConfig) (*traceRun, error) {
	e := &traceRun{r: r, p: p, views: make([]ServerView, r.NumServers())}
	if err := e.init((*rackPlant)(e), jobs, tc, []*fault.Schedule{tc.Faults}, &rackScope); err != nil {
		return nil, err
	}
	if tc.CheckpointSink != nil || tc.CheckpointEvery != 0 {
		if !(tc.CheckpointEvery > 0) || math.IsInf(tc.CheckpointEvery, 0) {
			return nil, fmt.Errorf("sched: CheckpointEvery must be positive and finite, got %g", tc.CheckpointEvery)
		}
		if tc.CheckpointSink == nil {
			return nil, fmt.Errorf("sched: CheckpointEvery set without a CheckpointSink")
		}
	}
	e.nextCkpt = tc.CheckpointEvery
	if tc.WallCapW > 0 {
		n := r.NumServers()
		e.pendingDC = make([]units.Watts, n)
		e.capExtra = make([]units.Watts, n)
		e.models = make([]power.ServerModel, n)
		for i := range e.models {
			e.models[i] = r.Server(i).Config().Power
		}
	}
	return e, nil
}

// rackPlant is the Plant of a rack run: the run state itself, seen as its
// rack and its policy's placement, so a rack run allocates no plant of
// its own.
type rackPlant traceRun

func (rp *rackPlant) Racks() []*rack.Rack { return []*rack.Rack{rp.r} }
func (rp *rackPlant) Now() float64        { return rp.r.Now() }

func (rp *rackPlant) SetLoads(loads []units.Percent) {
	for i, u := range loads {
		rp.r.SetLoad(i, u)
	}
}

func (rp *rackPlant) Health(_, slot int) rack.Health { return rp.r.Health(slot) }
func (rp *rackPlant) TripRisk() bool                 { return rp.r.TripRisk() }
func (rp *rackPlant) StateSum() float64              { return rp.r.StateSum() }

// Cross advances the rack across the segment in one macro window: a rack
// run's window already ends at its controllers' quiet horizon, and its
// controllers ticked at the decision step.
func (rp *rackPlant) Cross(s *Segment) {
	rp.r.Advance(s.Dt, s.End-s.K)
	s.e.charge(0, s.End-s.K, s.cause)
}

func (rp *rackPlant) ApplyFault(_ int, ev fault.Event) error { return rp.r.ApplyFault(ev) }
func (rp *rackPlant) ClearFault(_ int, ev fault.Event) error { return rp.r.ClearFault(ev) }

// RefusalIsLoadOnly implements LoadOnlyRefuser: the rack's placement is
// its policy's.
func (rp *rackPlant) RefusalIsLoadOnly() bool { return RefusalIsLoadOnly(rp.p) }

// Place implements Plant: the policy's pick over freshly built views,
// validated. Views are rebuilt for every placement attempt, so every
// decision sees the loads of same-step placements already committed.
func (rp *rackPlant) Place(j Job, loads []units.Percent) (int, error) {
	FillViews(rp.views, rp.r, loads)
	slot := rp.p.Place(j, rp.views)
	if slot < 0 {
		return -1, nil
	}
	return slot, (*traceRun)(rp).checkPlacement(j, slot)
}

// FillViews sets views[i] to the placement view of rack r's slot i at the
// dispatcher load loads[i] and the rack's current telemetry.
func FillViews(views []ServerView, r *rack.Rack, loads []units.Percent) {
	for i := range views {
		views[i] = ServerView{
			Index:      i,
			Name:       r.Name(i),
			Load:       loads[i],
			Free:       100 - loads[i],
			MaxCPUTemp: r.Server(i).MaxCPUTemp(),
			InletTemp:  r.Server(i).InletTemp(),
			DCPower:    r.ServerDCPower(i),
			WallPower:  r.ServerWallPower(i),
			Health:     r.Health(i),
		}
	}
}

// checkPlacement validates a policy's slot choice — out-of-range or
// overloaded slots and unhealthy servers are hard policy bugs, for the
// head, backfill and crossed-retry paths alike.
func (e *traceRun) checkPlacement(j Job, slot int) error {
	if slot >= len(e.loads) || e.loads[slot]+j.Demand > 100 {
		return fmt.Errorf("sched: policy %s placed job %d on invalid/overloaded server %d", e.p.Name(), j.ID, slot)
	}
	if h := e.r.Health(slot); h != rack.Healthy {
		return fmt.Errorf("sched: policy %s placed job %d on %v server %d", e.p.Name(), j.ID, h, slot)
	}
	return nil
}

// admitCap runs the wall-cap admission for placing j on slot, charging the
// job's DC increment into pendingDC when admitted so later same-step
// placements see it. A false return leaves pendingDC unchanged; with no
// cap configured every placement is admitted.
func (e *traceRun) admitCap(j Job, slot int) bool {
	if e.tc.WallCapW <= 0 {
		return true
	}
	mdc := e.capMarginal(j, slot)
	e.pendingDC[slot] += mdc
	if float64(e.r.WallPowerWithAll(e.pendingDC)) > e.tc.WallCapW {
		e.pendingDC[slot] -= mdc
		return false
	}
	return true
}

// capMarginal is the DC increment cap admission charges for placing j on
// slot at the current loads.
func (e *traceRun) capMarginal(j Job, slot int) units.Watts {
	mdc := MarginalDCPower(&e.models[slot], e.loads[slot], j.Demand)
	if slot < len(e.tc.CapMarginal) && e.tc.CapMarginal[slot] != nil {
		// Conservative admission: charge the settled fan+leak cost up
		// front. Clamped at zero so the conservative estimate is never
		// below the fast one.
		if steady, err := SteadyFanLeakMarginal(e.tc.CapMarginal[slot], e.loads[slot], j.Demand); err == nil && steady > 0 {
			mdc += steady
		}
	}
	return mdc
}

// backfill is the TraceConfig.Backfill pass: every job queued behind the
// blocked head is tried once, in arrival order, against the same
// validation and pendingDC cap admission the head failed; accepted jobs
// leave the queue and start immediately. Refused or cap-blocked candidates
// are skipped — without touching the head-only Deferrals meter — and the
// head keeps strict priority because backfilled placements only consume
// capacity (see the field's FIFO-fairness caveat).
func (e *traceRun) backfill(now, elapsed float64) error {
	for idx := 1; idx < len(e.pending); {
		j := e.pending[idx]
		slot, err := e.plant.Place(j, e.loads)
		if err != nil {
			return err
		}
		if slot < 0 || !e.admitCap(j, slot) {
			idx++
			continue
		}
		e.place(j, slot, now, elapsed)
		e.res.Backfills++
		e.m.backfills.Inc()
		e.pending = append(e.pending[:idx], e.pending[idx+1:]...)
	}
	return nil
}

// deferSteps returns how many of the next maxSkip grid steps provably
// defer the head again (rack.WallFloorSteps). The head's slot may move
// between retries — round-robin rotates on every pick, and a pick ranked
// by temperature or draw follows the physics — so the proof takes the
// cheapest increment over every slot a placement could pass
// checkPlacement on. The walk skips dark slots, so it has no views to
// offer for them: a policy that is not a LoadOnlyRefuser keeps the pin
// while any slot is dark.
func (e *traceRun) deferSteps(maxSkip int) int {
	r := e.r
	j := e.pending[0]
	for s := range e.capExtra {
		if !e.loadOnly && !r.Server(s).Powered() {
			return 0
		}
		if r.Health(s) != rack.Healthy || e.loads[s]+j.Demand > 100 {
			e.capExtra[s] = units.Watts(math.Inf(1))
			continue
		}
		e.capExtra[s] = e.capMarginal(j, s)
	}
	return r.WallFloorSteps(e.dt, maxSkip, e.capExtra, e.tc.WallCapW)
}

// replayDeferred is foldBlocked's half for a cap-deferred head, crossed
// from step k to step last: the head is offered to the policy again at
// every crossed step, because the pick may change state (round-robin
// advances its cursor on every pick) and may follow the physics. A
// LoadOnlyRefuser reads only loads and health, so step k's views serve it
// unchanged. Any other policy is offered each step's views: the hottest
// die, DC and wall draw the wall-floor walk predicts there
// (rack.FloorWalkView: crossed step k+i reads the walk after i steps), and
// the inlet temperature, which holds across the window. The pick is
// validated and, as window() proved, deferred. A refusal there is what the
// fixed-dt reference would see too when the policy reads telemetry, so it
// counts nothing; from a LoadOnlyRefuser it breaks the contract.
func (e *traceRun) replayDeferred(k, last int) error {
	j := e.pending[0]
	if !e.loadOnly {
		for i := range e.views {
			e.views[i].InletTemp = e.r.Server(i).InletTemp()
		}
	}
	for s := k + 1; s <= last; s++ {
		if !e.loadOnly {
			for i := range e.views {
				v := &e.views[i]
				v.MaxCPUTemp, v.DCPower, v.WallPower = e.r.FloorWalkView(i, s-k-1)
			}
		}
		slot := e.p.Place(j, e.views)
		if slot < 0 {
			if !e.loadOnly {
				continue
			}
			return fmt.Errorf("sched: policy %s refused job %d at step %d, deferred at step %d with the same loads: it breaks the LoadOnlyRefuser contract", e.p.Name(), j.ID, s, k)
		}
		if err := e.checkPlacement(j, slot); err != nil {
			return err
		}
		e.res.Deferrals++
		e.m.deferrals.Inc()
	}
	return nil
}
