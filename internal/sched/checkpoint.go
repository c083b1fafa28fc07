package sched

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/rack"
	"repro/internal/units"
)

// PolicyState is the serializable internal state of a stateful placement
// policy — a generic tagged bag (like control.State) so the checkpoint
// layer never needs one DTO per policy. Name must match the policy the
// state is restored into.
type PolicyState struct {
	Name string
	Ints []int
}

// StatefulPolicy is the opt-in interface a Policy with internal mutable
// state must implement to survive a checkpoint/resume cycle. Stateless
// policies (everything shipped except RoundRobin) need not implement it;
// a checkpoint of a run under a stateful policy that does not is refused
// at capture time rather than silently resuming with a reset cursor.
type StatefulPolicy interface {
	PolicyState() PolicyState
	SetPolicyState(PolicyState) error
}

// PolicyState implements StatefulPolicy: the rotation cursor.
func (p *RoundRobin) PolicyState() PolicyState {
	return PolicyState{Name: p.Name(), Ints: []int{p.next}}
}

// SetPolicyState implements StatefulPolicy.
func (p *RoundRobin) SetPolicyState(st PolicyState) error {
	if st.Name != p.Name() {
		return fmt.Errorf("sched: policy state is for %q, policy is %q", st.Name, p.Name())
	}
	if len(st.Ints) != 1 || st.Ints[0] < 0 {
		return fmt.Errorf("sched: malformed round-robin state")
	}
	p.next = st.Ints[0]
	return nil
}

// ActiveJob is the serializable image of one placed job in flight.
type ActiveJob struct {
	End    float64 // absolute completion instant
	Slot   int
	Demand units.Percent
	Job    Job
	Start  float64 // trace-relative placement instant
}

// Counts is the subset of Result accumulated up to a checkpoint instant.
// MeanWaitSec is derived (TotalWait / Placed) at run end and Metrics rides
// in the registry image, so neither appears here.
type Counts struct {
	Submitted      int
	Completed      int
	Placed         int
	MaxQueueLen    int
	Deferrals      int
	RackSteps      int
	Backfills      int
	Requeued       int
	Lost           int
	LostJobSeconds float64
}

// Checkpoint is the full resumable state of a RunTraceCfg execution at a
// decision-step boundary — the only legal checkpoint instants: the top of
// the run loop, before processStep(k), where no fan-out is in flight and
// every macro window has fully landed. ResumeTraceCfg continues a run from
// one such that the completed run is byte-identical — Result and metrics
// dump — to the same run left uninterrupted, for both kernels, any worker
// count, with or without faults.
//
// A checkpoint is only as portable as its inputs: the resuming process
// must rebuild the rack from the identical Config, pass the identical job
// slice and TraceConfig (dt, horizon, kernel, cap, backfill, fault
// schedule), and supply the same policy. The config scalars carried here
// are cross-checks that catch operator error, not a substitute for them.
type Checkpoint struct {
	// K is the next grid step to process.
	K     int
	Steps int
	Start float64 // rack-time at run start (NOT the resume instant)

	// Config cross-checks (must equal the resuming TraceConfig).
	Dt            float64
	Horizon       float64
	EventStepping bool
	WallCapW      float64
	Backfill      bool
	SampleEvery   float64
	DropOnFault   bool
	PolicyName    string

	// Run cursor.
	Pending    []Job
	Running    []ActiveJob
	Loads      []float64 // dispatcher's per-slot committed demand
	TotalWait  float64
	NextJob    int
	NextAction int
	Counts     Counts
	Policy     *PolicyState // nil for stateless policies

	// Physics and observability images.
	Rack rack.State
	Obs  obs.State
}

// Cancelled is the error RunTraceCfg returns when TraceConfig.Ctx is
// cancelled: the run stopped at a decision-step boundary, the partial
// Result was still returned, and Checkpoint resumes the run where it
// stopped. Unwrap exposes the context's own error (context.Canceled or
// context.DeadlineExceeded), so errors.Is keeps working.
type Cancelled struct {
	Checkpoint Checkpoint
	Err        error
}

func (c *Cancelled) Error() string {
	return fmt.Sprintf("sched: run cancelled at step %d/%d (%v); checkpoint captured",
		c.Checkpoint.K, c.Checkpoint.Steps, c.Err)
}

func (c *Cancelled) Unwrap() error { return c.Err }

// Diverged is the error the NaN/Inf guard returns when the racks' folded
// state sum goes non-finite after an advance: the physics has left the
// representable regime (a bad parameterization or a genuine bug), and
// continuing would only smear NaNs through every meter. Checkpoint is a
// diagnostic snapshot of a rack run at the failing boundary — inspectable,
// but carrying the non-finite state, so it is not a sane resume point; a
// room run leaves it zero. A room's StateSum is folded from each rack's
// sum as its fan-out job left it, before the serial phase re-anchored the
// recirculation offsets, so it can differ from a fold taken after them.
type Diverged struct {
	Step       int     // grid step after which the divergence was detected
	StateSum   float64 // the poisoned Σ rack.StateSum fold
	DCW, WallW float64 // aggregate draws at detection, for the log line
	Checkpoint Checkpoint
}

func (d *Diverged) Error() string {
	return fmt.Sprintf("sched: non-finite rack state after step %d (state sum %g, DC %g W, wall %g W)",
		d.Step, d.StateSum, d.DCW, d.WallW)
}

// checkpoint captures the run at the top of decision step k. It only reads
// state, so taking one cannot perturb the run.
func (e *traceRun) checkpoint(k int) (Checkpoint, error) {
	rs, err := e.r.Snapshot()
	if err != nil {
		return Checkpoint{}, fmt.Errorf("sched: checkpoint at step %d: %w", k, err)
	}
	ck := Checkpoint{
		K:             k,
		Steps:         e.steps,
		Start:         e.start,
		Dt:            e.dt,
		Horizon:       e.tc.Horizon,
		EventStepping: e.tc.EventStepping,
		WallCapW:      e.tc.WallCapW,
		Backfill:      e.tc.Backfill,
		SampleEvery:   e.tc.SampleEvery,
		DropOnFault:   e.tc.DropOnFault,
		PolicyName:    e.p.Name(),
		Pending:       append([]Job(nil), e.pending...),
		Running:       make([]ActiveJob, len(e.running)),
		Loads:         make([]float64, len(e.loads)),
		TotalWait:     e.totalWait,
		NextJob:       e.nextJob,
		NextAction:    e.nextAction,
		Counts: Counts{
			Submitted:      e.res.Submitted,
			Completed:      e.res.Completed,
			Placed:         e.res.Placed,
			MaxQueueLen:    e.res.MaxQueueLen,
			Deferrals:      e.res.Deferrals,
			RackSteps:      e.res.RackSteps,
			Backfills:      e.res.Backfills,
			Requeued:       e.res.Requeued,
			Lost:           e.res.Lost,
			LostJobSeconds: e.res.LostJobSeconds,
		},
		Rack: rs,
	}
	for i, a := range e.running {
		ck.Running[i] = ActiveJob{End: a.end, Slot: a.slot, Demand: a.demand, Job: a.job, Start: a.start}
	}
	for i, u := range e.loads {
		ck.Loads[i] = float64(u)
	}
	if sp, ok := e.p.(StatefulPolicy); ok {
		ps := sp.PolicyState()
		ck.Policy = &ps
	}
	if e.tc.Metrics != nil {
		ck.Obs = e.tc.Metrics.ExportState()
	}
	return ck, nil
}

// restore loads a checkpoint into a freshly constructed traceRun, cross-
// checking every configuration scalar the checkpoint carries. The slices
// are deep-copied so the caller's Checkpoint stays reusable.
func (e *traceRun) restore(ck Checkpoint) error {
	switch {
	case ck.Dt != e.tc.Dt || ck.Horizon != e.tc.Horizon:
		return fmt.Errorf("sched: resume: checkpoint ran dt=%g horizon=%g, config has dt=%g horizon=%g",
			ck.Dt, ck.Horizon, e.tc.Dt, e.tc.Horizon)
	case ck.EventStepping != e.tc.EventStepping:
		return fmt.Errorf("sched: resume: checkpoint kernel (eventStepping=%v) does not match config", ck.EventStepping)
	case ck.WallCapW != e.tc.WallCapW || ck.Backfill != e.tc.Backfill ||
		ck.SampleEvery != e.tc.SampleEvery || ck.DropOnFault != e.tc.DropOnFault:
		return fmt.Errorf("sched: resume: checkpoint cap/backfill/sample/drop settings do not match config")
	case ck.Steps != e.steps:
		return fmt.Errorf("sched: resume: checkpoint has %d grid steps, config derives %d", ck.Steps, e.steps)
	case ck.K < 0 || ck.K > e.steps:
		return fmt.Errorf("sched: resume: checkpoint step %d outside [0, %d]", ck.K, e.steps)
	case ck.PolicyName != e.p.Name():
		return fmt.Errorf("sched: resume: checkpoint ran policy %q, got %q", ck.PolicyName, e.p.Name())
	case ck.Counts.Submitted != len(e.jobs):
		return fmt.Errorf("sched: resume: checkpoint ran %d jobs, trace has %d", ck.Counts.Submitted, len(e.jobs))
	case ck.NextJob < 0 || ck.NextJob > len(e.jobs):
		return fmt.Errorf("sched: resume: job cursor %d outside [0, %d]", ck.NextJob, len(e.jobs))
	case ck.NextAction < 0 || ck.NextAction > len(e.actions):
		return fmt.Errorf("sched: resume: fault cursor %d outside [0, %d]", ck.NextAction, len(e.actions))
	case len(ck.Loads) != len(e.loads):
		return fmt.Errorf("sched: resume: checkpoint has %d load slots, rack has %d", len(ck.Loads), len(e.loads))
	}
	for _, a := range ck.Running {
		if a.Slot < 0 || a.Slot >= len(e.loads) {
			return fmt.Errorf("sched: resume: running job %d on slot %d, rack has %d", a.Job.ID, a.Slot, len(e.loads))
		}
	}
	sp, stateful := e.p.(StatefulPolicy)
	if stateful != (ck.Policy != nil) {
		return fmt.Errorf("sched: resume: policy %q statefulness does not match checkpoint", e.p.Name())
	}
	e.p.Reset()
	if stateful {
		if err := sp.SetPolicyState(*ck.Policy); err != nil {
			return fmt.Errorf("sched: resume: %w", err)
		}
	}
	if err := e.r.Restore(ck.Rack); err != nil {
		return fmt.Errorf("sched: resume: %w", err)
	}
	if e.tc.Metrics != nil {
		if err := e.tc.Metrics.ImportState(ck.Obs); err != nil {
			return fmt.Errorf("sched: resume: %w", err)
		}
	}
	e.k0 = ck.K
	e.start = ck.Start
	e.pending = append([]Job(nil), ck.Pending...)
	e.running = make([]active, len(ck.Running))
	for i, a := range ck.Running {
		e.running[i] = active{end: a.End, slot: a.Slot, demand: a.Demand, job: a.Job, start: a.Start}
	}
	for i, u := range ck.Loads {
		e.loads[i] = units.Percent(u)
	}
	e.totalWait = ck.TotalWait
	e.nextJob = ck.NextJob
	e.nextAction = ck.NextAction
	e.res = Result{
		Submitted:      ck.Counts.Submitted,
		Completed:      ck.Counts.Completed,
		Placed:         ck.Counts.Placed,
		MaxQueueLen:    ck.Counts.MaxQueueLen,
		Deferrals:      ck.Counts.Deferrals,
		RackSteps:      ck.Counts.RackSteps,
		Backfills:      ck.Counts.Backfills,
		Requeued:       ck.Counts.Requeued,
		Lost:           ck.Counts.Lost,
		LostJobSeconds: ck.Counts.LostJobSeconds,
	}
	// Advance the periodic-checkpoint cadence past the resume point with
	// the same repeated additions the uninterrupted run performs, so both
	// runs fire later checkpoints at identical instants.
	for e.tc.CheckpointSink != nil && e.nextCkpt <= float64(e.k0)*e.dt {
		e.nextCkpt += e.tc.CheckpointEvery
	}
	return nil
}

// ResumeTraceCfg continues a run from a Checkpoint captured by the same
// (rack config, jobs, policy, TraceConfig) combination: the rack must be
// freshly built from the identical Config (Restore loads the checkpoint's
// physics into it), jobs and tc must be the originals, and p must be the
// same policy implementation. The returned Result — and, with tc.Metrics
// attached, the metrics dump — is byte-identical to the uninterrupted run.
//
// Unlike RunTraceCfg this neither resets the policy to its zero state nor
// re-counts the submitted jobs: both are restored from the checkpoint.
//
// tc.Metrics, when attached, should be a fresh registry: the checkpoint's
// metric image is imported into it (kernel.*/sched.* counters resume where
// they stopped), and the rack's physics roll-up is folded once at run end.
// Reusing a registry that already holds a prior run's post-run fold would
// double-count the additive rack.* counters.
func ResumeTraceCfg(r *rack.Rack, jobs []Job, p Policy, tc TraceConfig, ck Checkpoint) (Result, error) {
	e, err := newTraceRun(r, jobs, p, tc)
	if err != nil {
		return Result{}, err
	}
	if err := e.restore(ck); err != nil {
		return Result{}, err
	}
	return e.run()
}

// boundary runs the run-control hooks at the top of decision step k — the
// only legal checkpoint instants: cooperative cancellation first, then the
// periodic checkpoint cadence. Both kernels call it before processStep(k),
// so in event mode checkpoints land exactly on macro-window boundaries. A
// room run has no checkpoint to hand back, so its cancellation error only
// wraps the context's.
func (e *traceRun) boundary(k int) error {
	if e.tc.Ctx != nil {
		if cerr := e.tc.Ctx.Err(); cerr != nil {
			if e.r == nil {
				return fmt.Errorf("%s: run cancelled at step %d/%d: %w", e.sc.name, k, e.steps, cerr)
			}
			ck, err := e.checkpoint(k)
			if err != nil {
				return fmt.Errorf("sched: cancelled at step %d, snapshot failed: %w", k, err)
			}
			return &Cancelled{Checkpoint: ck, Err: cerr}
		}
	}
	if e.tc.CheckpointSink != nil && float64(k)*e.dt >= e.nextCkpt {
		ck, err := e.checkpoint(k)
		if err != nil {
			return err
		}
		if err := e.tc.CheckpointSink(ck); err != nil {
			return fmt.Errorf("sched: checkpoint sink at step %d: %w", k, err)
		}
		for e.nextCkpt <= float64(k)*e.dt {
			e.nextCkpt += e.tc.CheckpointEvery
		}
	}
	return nil
}
