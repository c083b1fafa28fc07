package room

import (
	"context"
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rack"
	"repro/internal/sched"
	"repro/internal/server"
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
	// doc). false is the fixed-dt reference: the same kernel with every
	// segment one grid step long.
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
// fans out over racks, on a pool that lives as long as the run (see the
// package doc).
func RunTrace(rm *Room, jobs []sched.Job, pol *Policy, tc TraceConfig) (Result, error) {
	if pol == nil || pol.Chooser == nil {
		return Result{}, fmt.Errorf("room: trace needs a placement policy")
	}
	if len(pol.Slots) != rm.NumRacks() {
		return Result{}, fmt.Errorf("room: policy has %d slot policies for %d racks", len(pol.Slots), rm.NumRacks())
	}
	pol.reset()
	p := newPlant(rm, pol)
	defer p.close()
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
	p := newPlant(rm, nil)
	defer p.close()
	return sched.SettlePlant(p, dt, duration, eventStepping)
}

// plant is the room as the trace kernel's sched.Plant: the two-level
// placement over RackViews, and each segment crossed rack by rack on a
// persistent pool. A room's global slots number rack 0's servers
// first. Now is the Room's own.
//
// The serial phase between two barriers touches rack-level state only.
// Rack i's fan-out job first hands its servers the recirculation shift the
// last re-anchor left pending (Room.applyShift) and its slots' loads
// (SetLoads only keeps the kernel's slice). After its last advance it
// records what the serial phase will read (fill): its slots' views bar
// Load, Free and InletTemp, their ambients and inlet preheats, its
// health, trip risk and state sum. After the barrier only the re-anchor
// moves that state: the mirrored ambients follow each pending shift
// (server.ShiftedAmbient), so Place builds the inlets the servers will
// step under before they take them. A fault edge on a rack applies its
// pending shift and refills it serially; close applies every shift left
// when the run returns.
type plant struct {
	*Room
	pol       *Policy // nil while settling: no job is ever placed
	first     []int   // first global slot of each rack
	views     []RackView
	gridSteps int // grid steps crossed (Σ segment lengths)

	// The rack fan-out: the run's pool, its per-segment job (built once, as
	// rack.Rack's are), and its inputs, written serially before each round
	// — the segment and the kernel's committed loads.
	pool     *par.Pool
	crossJob func(i int)
	seg      *sched.Segment
	loads    []units.Percent

	// What fill leaves for the serial phase besides the views: each rack's
	// state sum and trip risk, and each global slot's ambient and inlet
	// preheat (server.InletPreheat); base holds each slot's
	// server.BaseAmbient.
	sums               []float64
	risk               []bool
	amb, base, preheat []units.Celsius
}

// newPlant builds the plant for one run and starts its pool; the caller
// closes the plant when the run returns. The first round fills every
// rack's views, so the run's first decision step reads them too.
func newPlant(rm *Room, pol *Policy) *plant {
	nr := rm.NumRacks()
	p := &plant{
		Room: rm, pol: pol, first: make([]int, nr), views: make([]RackView, nr),
		sums: make([]float64, nr), risk: make([]bool, nr),
	}
	for i, rk := range rm.racks {
		p.first[i] = len(p.base)
		rv := &p.views[i]
		rv.Index, rv.Name, rv.Servers, rv.RecircRowSum = i, rm.names[i], rk.NumServers(), rm.rowSums[i]
		rv.Slots = make([]sched.ServerView, rk.NumServers())
		for s := range rv.Slots {
			rv.Slots[s].Index, rv.Slots[s].Name = s, rk.Name(s)
			p.base = append(p.base, rk.Server(s).BaseAmbient())
		}
	}
	p.amb, p.preheat = make([]units.Celsius, len(p.base)), make([]units.Celsius, len(p.base))
	p.crossJob = p.crossRack
	p.pool = par.NewPool(rm.workers, nr)
	p.pool.Run(p.fill)
	return p
}

// close applies every recirculation shift still pending, so the room's
// servers carry their offsets after the run, and ends the pool.
func (p *plant) close() {
	for j := range p.racks {
		p.applyShift(j)
	}
	p.pool.Close()
}

func (p *plant) Racks() []*rack.Rack { return p.racks }

// SetLoads implements sched.Plant: each rack's next job applies its slice.
func (p *plant) SetLoads(loads []units.Percent) { p.loads = loads }

// Cross implements sched.Plant: every rack crosses the segment with its
// own chunks (crossRack) in the fan-out, then the room's serial
// post-barrier phase runs as in Room.Step — it integrates the shared bank
// and re-anchors the recirculation offsets — bar applying the re-anchor's
// shifts, which the racks' next jobs do.
func (p *plant) Cross(s *sched.Segment) {
	p.beginSegment()
	p.seg = s
	p.pool.Run(p.crossJob)
	p.endSegment(s.Dt, s.End-s.K)
	p.gridSteps += s.End - s.K
	p.reanchored()
}

// crossRack is rack i's fan-out job. Each chunk runs to the segment's end
// or to the rack's own controller horizon (sched.Segment.Chunk) and
// advances in closed form (rack.Advance): a quiet rack crosses the segment
// in a few macro windows while a pinned rack single-steps, and on fixed-dt
// every segment is one chunk of one step. Writes only rack i's state, its
// plant entries and Kernel[i].
func (p *plant) crossRack(i int) {
	p.applyInputs(i)
	rk, s := p.racks[i], p.seg
	for k := s.K; k < s.End; {
		w := s.Chunk(i, k)
		rk.Advance(s.Dt, w)
		k += w
	}
	p.fill(i)
}

// applyInputs hands rack i's servers what the serial phase decided since
// the rack last advanced: the pending recirculation shift and the
// committed dispatcher loads.
func (p *plant) applyInputs(i int) {
	p.applyShift(i)
	rk := p.racks[i]
	for s, u := range p.loads[p.first[i] : p.first[i]+rk.NumServers()] {
		rk.SetLoad(s, u)
	}
}

// fill records what the serial phase reads of rack i until its next
// advance: every slot's view telemetry, health, ambient and inlet
// preheat, the rack aggregates that depend on neither loads nor ambients,
// the trip risk and the state sum. Writes only rack i's entries.
func (p *plant) fill(i int) {
	rk, rv := p.racks[i], &p.views[i]
	amb, pre := p.amb[p.first[i]:], p.preheat[p.first[i]:]
	rv.Healthy = 0
	rv.MaxCPUTempC = -1e9
	rv.WallPowerW = float64(rk.WallPower())
	for s := range rv.Slots {
		srv, sv := rk.Server(s), &rv.Slots[s]
		sv.MaxCPUTemp = srv.MaxCPUTemp()
		sv.DCPower = rk.ServerDCPower(s)
		sv.WallPower = rk.ServerWallPower(s)
		sv.Health = rk.Health(s)
		amb[s] = srv.Ambient()
		if sv.Health != rack.Failed {
			pre[s] = srv.InletPreheat()
		}
		if sv.Health == rack.Healthy {
			rv.Healthy++
		}
		if sv.MaxCPUTemp > rv.MaxCPUTempC {
			rv.MaxCPUTempC = sv.MaxCPUTemp
		}
	}
	p.risk[i] = rk.TripRisk()
	p.sums[i] = rk.StateSum()
}

// reanchored moves the mirrored ambients of every rack the serial
// re-anchor left a pending shift on.
func (p *plant) reanchored() {
	for i, d := range p.shift {
		if d == 0 {
			continue
		}
		for s := p.first[i]; s < p.first[i]+len(p.views[i].Slots); s++ {
			p.amb[s] = server.ShiftedAmbient(p.base[s], p.amb[s], units.Celsius(d))
		}
	}
}

// ApplyFault implements sched.Plant: rack i's pending shift first, so
// offsets compose in re-anchor order, then the Room's own; rack i's
// recorded state is refilled.
func (p *plant) ApplyFault(i int, ev fault.Event) error {
	p.applyShift(i)
	if err := p.Room.ApplyFault(i, ev); err != nil {
		return err
	}
	p.fill(i)
	return nil
}

// ClearFault implements sched.Plant, as ApplyFault.
func (p *plant) ClearFault(i int, ev fault.Event) error {
	p.applyShift(i)
	if err := p.Room.ClearFault(i, ev); err != nil {
		return err
	}
	p.fill(i)
	return nil
}

// Health implements sched.Plant from the views fill recorded, reading
// only the rack's count while all its slots are healthy.
func (p *plant) Health(i, slot int) rack.Health {
	if rv := &p.views[i]; rv.Healthy < rv.Servers {
		return rv.Slots[slot].Health
	}
	return rack.Healthy
}

// TripRisk implements sched.Plant from the risks fill recorded.
func (p *plant) TripRisk() bool {
	for _, r := range p.risk {
		if r {
			return true
		}
	}
	return false
}

// StateSum implements sched.Plant: the recorded rack sums, folded in rack
// order.
func (p *plant) StateSum() float64 {
	var sum float64
	for _, s := range p.sums {
		sum += s
	}
	return sum
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
		slots := p.views[ri].Slots
		slot := p.pol.Slots[ri].Place(j, slots)
		if slot < 0 {
			p.views[ri].Blocked = true
			continue
		}
		if slot >= len(slots) || loads[p.first[ri]+slot]+j.Demand > 100 {
			return -1, fmt.Errorf("room: policy %s placed job %d on invalid/overloaded server %d of rack %d",
				p.pol.Slots[ri].Name(), j.ID, slot, ri)
		}
		if h := slots[slot].Health; h != rack.Healthy {
			return -1, fmt.Errorf("room: policy %s placed job %d on %v server %d of rack %d",
				p.pol.Slots[ri].Name(), j.ID, h, slot, ri)
		}
		if c, ok := p.pol.Chooser.(RackCommitter); ok {
			c.Committed(ri)
		}
		return p.first[ri] + slot, nil
	}
}

// buildViews completes the chooser's per-rack snapshot, and the embedded
// per-slot views, with what depends on the dispatcher loads or on the
// re-anchored ambients — once per placement attempt, so every decision
// sees same-step placements. An inlet takes server.InletTemp's own
// expression over the mirrored ambient and the recorded preheat, so the
// bits match: a dark slot's inlet is its ambient. The telemetry fill
// recorded stays as it is.
func (p *plant) buildViews(loads []units.Percent) {
	for ri := range p.views {
		rv := &p.views[ri]
		rv.Load, rv.Free, rv.MaxFree = 0, 0, 0
		rv.MaxInletC = -1e9
		rv.RecircOffsetC = p.offsets[ri]
		rv.Blocked = false
		ld, amb, pre := loads[p.first[ri]:], p.amb[p.first[ri]:], p.preheat[p.first[ri]:]
		for s := range rv.Slots {
			sv := &rv.Slots[s]
			sv.Load, sv.Free = ld[s], 100-ld[s]
			sv.InletTemp = amb[s]
			if sv.Health != rack.Failed {
				sv.InletTemp += pre[s]
			}
			if sv.InletTemp > rv.MaxInletC {
				rv.MaxInletC = sv.InletTemp
			}
			rv.Load += sv.Load
			if sv.Health == rack.Healthy {
				rv.Free += sv.Free
				if sv.Free > rv.MaxFree {
					rv.MaxFree = sv.Free
				}
			}
		}
	}
}
