package room

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rack"
	"repro/internal/sched"
	"repro/internal/units"
)

// TraceConfig parameterizes a room trace run: the room-scope subset of
// sched.TraceConfig, whose fields of the same name it sets, with one fault
// schedule per rack. The wall cap, backfill and checkpoints stay rack-run
// features (drive a single rack through sched.RunTraceCfg for those).
type TraceConfig struct {
	Dt      float64 // simulation step, seconds; positive and finite
	Horizon float64 // trace window, seconds; positive and finite

	// Ctx, when non-nil, is checked at every decision-step boundary, never
	// mid-fan-out; a cancelled run returns the partial Result with an
	// error wrapping ctx.Err(). Room runs have no checkpoint to resume
	// from: cancellation bounds wall-clock only.
	Ctx context.Context

	// EventStepping selects the event kernel. A segment ends where a rack
	// run's window would, bar the controller horizon: within it every
	// rack advances on its own, a rack whose controllers promise quiet in
	// macro windows while a pinned rack single-steps (see the package
	// doc). false is the fixed-dt reference path.
	EventStepping bool

	// SampleEvery, in seconds, optionally bounds event-stepping segments at
	// a fixed telemetry cadence — which also bounds how long recirculation
	// offsets are held between re-anchors. 0 samples only at events; a
	// negative or non-finite value is an error.
	SampleEvery float64

	// Faults holds one deterministic fault schedule per rack (index i
	// drives rack i); nil entries and a nil slice are fault-free. Edges are
	// pinned and applied exactly like a rack run's, rack order breaking
	// ties at a shared step. Facility-scope kinds act on the room's shared
	// bank (see Room.ApplyFault).
	Faults []*fault.Schedule

	// DropOnFault switches fault kills from requeue-at-head to drop.
	DropOnFault bool

	// Metrics, when non-nil, receives the run's room.* counters —
	// room.segments and room.grid.steps per segment, the advance, window
	// and pin counters per rack chunk, the scheduling counts — and, after
	// the run, every rack's physics roll-up (rack.MetricsInto), byte-
	// identical for every worker count.
	Metrics *obs.Registry
}

// Result summarizes the scheduling outcome of one room trace run; the
// physics outcome lives in Room.Telemetry.
type Result struct {
	Submitted   int
	Completed   int
	Placed      int
	MeanWaitSec float64
	MaxQueueLen int

	Requeued       int
	Lost           int
	LostJobSeconds float64

	Segments  int // segments processed (fixed-dt: one per step)
	GridSteps int // fixed-dt grid steps crossed (Σ segment lengths == horizon/dt)

	// Kernel holds per-rack kernel accounting, indexed by rack.
	Kernel []sched.RackKernelStats

	// Metrics echoes TraceConfig.Metrics after the run's counters have been
	// folded in; nil when no registry was attached.
	Metrics *obs.Registry
}

// RunTrace drives the room through the job trace under the two-level
// policy, on the rack runner's kernel (sched.RunPlant). Only the placement
// is the room's own: the chooser picks a rack, that rack's slot policy
// picks the slot, and a slot-policy refusal masks the rack (Blocked) and
// retries the chooser, so a job is refused only when every fitting rack
// refused it. All decisions run serially; only the physics between them
// fans out over racks.
func RunTrace(rm *Room, jobs []sched.Job, pol *Policy, tc TraceConfig) (Result, error) {
	if pol == nil || pol.Chooser == nil {
		return Result{}, fmt.Errorf("room: trace needs a placement policy")
	}
	if len(pol.Slots) != rm.NumRacks() {
		return Result{}, fmt.Errorf("room: policy has %d slot policies for %d racks", len(pol.Slots), rm.NumRacks())
	}
	pol.reset()
	p := newPlant(rm, pol)
	res, kernel, err := sched.RunPlant(p, jobs, sched.TraceConfig{
		Dt: tc.Dt, Horizon: tc.Horizon, Ctx: tc.Ctx, EventStepping: tc.EventStepping,
		SampleEvery: tc.SampleEvery, DropOnFault: tc.DropOnFault, Metrics: tc.Metrics,
	}, tc.Faults)
	return Result{
		Submitted:      res.Submitted,
		Completed:      res.Completed,
		Placed:         res.Placed,
		MeanWaitSec:    res.MeanWaitSec,
		MaxQueueLen:    res.MaxQueueLen,
		Requeued:       res.Requeued,
		Lost:           res.Lost,
		LostJobSeconds: res.LostJobSeconds,
		Segments:       res.RackSteps,
		GridSteps:      p.gridSteps,
		Kernel:         kernel,
		Metrics:        res.Metrics,
	}, err
}

// Settle advances the room with no offered load for `duration` seconds —
// the idle stabilization window room experiments run before their measured
// trace, with the same kernel they will measure under (sched.SettlePlant).
func Settle(rm *Room, dt, duration float64, eventStepping bool) error {
	return sched.SettlePlant(newPlant(rm, nil), dt, duration, eventStepping)
}

// plant is the room as the trace kernel's sched.Plant: the two-level
// placement over RackViews, and each segment crossed rack by rack. A
// room's global slots number rack 0's servers first. Now, ApplyFault and
// ClearFault are the Room's own.
type plant struct {
	*Room
	pol       *Policy // nil while settling: no job is ever placed
	first     []int   // first global slot of each rack
	views     []RackView
	gridSteps int // grid steps crossed (Σ segment lengths)

	// Segment fan-out staging (see rack.Rack's prebuilt-closure idiom): seg
	// is written serially before the barrier and only read by the jobs;
	// segFn is built once.
	seg   *sched.Segment
	segFn func(i int)
}

func newPlant(rm *Room, pol *Policy) *plant {
	p := &plant{Room: rm, pol: pol, first: make([]int, rm.NumRacks()), views: make([]RackView, rm.NumRacks())}
	n := 0
	for i, rk := range rm.racks {
		p.first[i] = n
		n += rk.NumServers()
		p.views[i].Slots = make([]sched.ServerView, rk.NumServers())
	}
	p.segFn = p.rackSegment
	return p
}

func (p *plant) Racks() []*rack.Rack { return p.racks }

// Step implements sched.Plant: the whole room steps once, the rack fan-out
// inside Room.Step.
func (p *plant) Step(dt float64) {
	p.Room.Step(dt)
	p.gridSteps++
}

// Cross implements sched.Plant: every rack crosses the segment with its
// own chunks (rackSegment) in the fan-out, then the room's serial
// post-barrier phase integrates the shared bank and re-anchors the
// recirculation offsets.
func (p *plant) Cross(s *sched.Segment) {
	p.beginSegment()
	p.seg = s
	par.ForEach(len(p.racks), p.workers, p.segFn)
	p.endSegment(s.Dt, s.End-s.K)
	p.gridSteps += s.End - s.K
}

// rackSegment crosses the current segment for rack i — the fan-out job of
// the event kernel's barrier. Each chunk runs to the segment's end or to
// the rack's own controller horizon (sched.Segment.Chunk) and advances in
// closed form (rack.Advance): a quiet rack crosses the segment in a few
// macro windows while a pinned rack single-steps. Writes only rack i's
// state and Kernel[i].
func (p *plant) rackSegment(i int) {
	rk, s := p.racks[i], p.seg
	for k := s.K; k < s.End; {
		w := s.Chunk(i, k)
		rk.Advance(s.Dt, w)
		k += w
	}
}

// RefusalIsLoadOnly implements sched.LoadOnlyRefuser for the whole
// two-level placement (see Policy.loadOnly).
func (p *plant) RefusalIsLoadOnly() bool { return p.pol != nil && p.pol.loadOnly() }

// Place implements sched.Plant: the chooser proposes a rack, its slot
// policy places or refuses; a refusal masks the rack for this job and the
// chooser retries over the rest. An out-of-range or overloaded slot, or
// an unhealthy server, is a hard policy bug.
func (p *plant) Place(j sched.Job, loads []units.Percent) (int, error) {
	p.buildViews(loads)
	for {
		ri := p.pol.Chooser.Choose(j, p.views)
		if ri < 0 {
			return -1, nil
		}
		if ri >= len(p.views) || p.views[ri].Blocked {
			return -1, fmt.Errorf("room: chooser %s proposed invalid or blocked rack %d for job %d",
				p.pol.Chooser.Name(), ri, j.ID)
		}
		slot := p.pol.Slots[ri].Place(j, p.views[ri].Slots)
		if slot < 0 {
			p.views[ri].Blocked = true
			continue
		}
		rk := p.racks[ri]
		if slot >= rk.NumServers() || loads[p.first[ri]+slot]+j.Demand > 100 {
			return -1, fmt.Errorf("room: policy %s placed job %d on invalid/overloaded server %d of rack %d",
				p.pol.Slots[ri].Name(), j.ID, slot, ri)
		}
		if h := rk.Health(slot); h != rack.Healthy {
			return -1, fmt.Errorf("room: policy %s placed job %d on %v server %d of rack %d",
				p.pol.Slots[ri].Name(), j.ID, h, slot, ri)
		}
		if c, ok := p.pol.Chooser.(RackCommitter); ok {
			c.Committed(ri)
		}
		return p.first[ri] + slot, nil
	}
}

// buildViews refreshes the chooser's per-rack snapshot (and the embedded
// per-slot views) from the dispatcher loads and rack state — once per
// placement attempt, so every decision sees same-step placements.
func (p *plant) buildViews(loads []units.Percent) {
	for ri := range p.views {
		rk := p.racks[ri]
		rv := &p.views[ri]
		rv.Index = ri
		rv.Name = p.names[ri]
		rv.Servers = rk.NumServers()
		rv.Healthy = 0
		rv.Load, rv.Free, rv.MaxFree = 0, 0, 0
		rv.MaxInletC, rv.MaxCPUTempC = -1e9, -1e9
		rv.WallPowerW = float64(rk.WallPower())
		rv.RecircOffsetC = p.offsets[ri]
		rv.RecircRowSum = p.rowSums[ri]
		rv.Blocked = false
		sched.FillViews(rv.Slots, rk, loads[p.first[ri]:])
		for _, sv := range rv.Slots {
			rv.Load += sv.Load
			if sv.Health == rack.Healthy {
				rv.Healthy++
				rv.Free += sv.Free
				if sv.Free > rv.MaxFree {
					rv.MaxFree = sv.Free
				}
			}
			if sv.MaxCPUTemp > rv.MaxCPUTempC {
				rv.MaxCPUTempC = sv.MaxCPUTemp
			}
			if sv.InletTemp > rv.MaxInletC {
				rv.MaxInletC = sv.InletTemp
			}
		}
	}
}
