package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/control"
	"repro/internal/cooling"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/room"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/snap"
	"repro/internal/units"
)

// Fixed scenario constants shared by every workload: the experiments'
// 1 s grid, 300 s idle settle and job-size distribution.
const (
	dt           = 1.0
	settleS      = 300.0
	meanDuration = 300.0
	// ckptEvery and resumeAt place the rack-faults-ckpt checkpoints: one
	// every simulated minute, and each cell resumes from the one nearest
	// the middle of the hour-long trace.
	ckptEvery = 60.0
	resumeAt  = 1800.0
	// faultSupplyC is the cascade cells' facility setpoint: the CRAC
	// reference, so server ambients stay unshifted.
	faultSupplyC = 18
	// eventBudget is how far a rack cell's energy may land from the fixed-dt
	// reference before the rep fails: the event kernel's documented budget
	// (internal/sched doc.go).
	eventBudget = 1e-6
	// roomBudget is room-dense's gate. The room event kernel holds
	// recirculation offsets for a whole segment, which leaves room-dense's
	// facility energy 5e-5 to 2e-4 off fixed-dt — a simulator defect the
	// benchmark reports in energy_rel_err rather than hides. The gate sits
	// five times above the worst deviation seen, so the room runs as shipped
	// and a broken kernel still fails.
	roomBudget = 1e-3
	// traceStride separates a run's job traces: trace j of seed s is drawn
	// with loadgen seed s + j·traceStride, so runs at nearby seeds share
	// no trace. loadgen seeds math/rand, which reduces a seed modulo
	// 2³¹ − 1, so every j·traceStride stays below that.
	traceStride = 1 << 28
)

var demands = []units.Percent{20, 40, 60}

type kind int

const (
	kindRack   kind = iota // one rack, the five experiments.RackPolicies in turn
	kindRoom               // racks behind one CRAC bank, one recirc-aware cell
	kindFaults             // the fault comparison's cascade cells, checkpointed and resumed
)

// workload is one benchmark scenario. Only the job traces depend on the
// seed; the horizon and trace count are fields so the tests can run every
// workload at toy size.
type workload struct {
	name    string
	why     string
	kind    kind
	racks   int // kindRoom only
	servers int // per rack
	rate    float64
	horizon float64
	// traces is the number of independent job traces every rep runs its
	// cells on. A workload whose cost varies with the trace runs several,
	// so that one run's time does not hinge on one draw of the seed.
	traces  int
	chain   bool    // default PSU on every slot plus the default PDU
	capW    float64 // rack wall-power cap; 0 = uncapped
	workers int     // room fan-out bound; rack workloads step serially
}

// workloads are the benchmark's scenarios, in the order -workload all runs
// them. Each exercises a different layer; README.md gives the measurements
// behind each choice.
var workloads = []workload{
	{
		name: "rack-drained", kind: kindRack, servers: 8, rate: 0.02, horizon: 21600, traces: 4,
		why: "queue drains, so almost every step collapses into macro windows: the thermal ladder does the work",
	},
	{
		name: "rack-capped", kind: kindRack, servers: 8, rate: 0.08, horizon: 7200, traces: 1, chain: true, capW: 4600,
		why: "wall cap defers the queue head, pinning the kernel to single steps: server.Step, Place and cap admission do the work",
	},
	{
		name: "room-dense", kind: kindRoom, racks: 8, servers: 32, rate: 0.64, horizon: 1800, traces: 1, workers: 2,
		why: "256 servers in 8 coupled racks, arrivals in most grid steps: the room's per-segment work and its 2-worker fan-out run every step",
	},
	{
		name: "rack-faults-ckpt", kind: kindFaults, servers: 8, rate: 0.02, horizon: 3600, traces: 4, chain: true,
		why: "fault cascade plus 60 s checkpoints and a mid-trace resume: Snapshot, encode, decode and Restore ride the kernel",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// totalServers is the number of simulated servers in one cell.
func (w workload) totalServers() int {
	if w.kind == kindRoom {
		return w.racks * w.servers
	}
	return w.servers
}

// procs is how many threads the process may keep busy on w: one per worker
// it steps with, so one on the rack workloads. There the garbage collector
// then runs on the simulator's own thread, and its cost is counted in the
// rep rather than left to whatever else runs on the host's second CPU: over
// eight rack-faults-ckpt runs at seeds 1–8, alternated with runs on two
// threads, the median rep time spread 7 % on one thread and 21 % on two.
func (w workload) procs() int { return max(1, w.workers) }

// hasFacility reports whether cells carry a cooling loop, which picks the
// energy meter the accuracy check compares.
func (w workload) hasFacility() bool { return w.kind != kindRack }

// energyBudget is the largest relative energy deviation from the fixed-dt
// reference a rep of w may show.
func (w workload) energyBudget() float64 {
	if w.kind == kindRoom {
		return roomBudget
	}
	return eventBudget
}

// jobTraces generates the workload's Poisson job traces for a seed; the
// first is drawn with the seed itself. It runs once, before any timing: the
// simulator only ever receives the generated jobs.
func (w workload) jobTraces(seed int64) ([][]loadgen.JobSpec, error) {
	out := make([][]loadgen.JobSpec, w.traces)
	for j := range out {
		specs, err := loadgen.PoissonTrace(loadgen.PoissonTraceConfig{
			Seed: seed + int64(j)*traceStride, Horizon: w.horizon, Rate: w.rate, MeanDuration: meanDuration, Demands: demands,
		})
		if err != nil {
			return nil, err
		}
		out[j] = specs
	}
	return out, nil
}

// cascade is the fault comparison's compound scenario.
func cascade() (*fault.Schedule, error) {
	for _, sc := range experiments.DefaultFaultScenarios() {
		if sc.Name == "cascade" {
			s := sc.Schedule
			return &s, nil
		}
	}
	return nil, fmt.Errorf("experiments no longer ships the cascade fault scenario")
}

// cell is one independent simulation of a rep: a fresh rack or room, the
// policy that schedules it and the job trace it runs.
type cell struct {
	label  string
	jobs   []sched.Job
	rack   *rack.Rack
	policy sched.Policy
	room   *room.Room
	rpol   *room.Policy
	// log, when non-nil, receives the Place decisions of the cell's trace
	// run (not of its resume).
	log *decisions
}

// cellLabel names the cell that runs policy on job trace j.
func cellLabel(j int, policy string) string { return fmt.Sprintf("t%d/%s", j, policy) }

// prepared is one rep after set-up: every cell built, nothing stepped.
type prepared struct {
	w         workload
	cells     []*cell
	faults    *fault.Schedule
	lutBuilds int
	// spec is the workload's rack: the cells' rack, or one rack of the
	// room. kindFaults resumes on a fresh rack built from it, and the
	// unit-cost rungs rebuild it.
	spec rackSpec
}

// rackSpec is everything needed to construct one rack of a workload.
type rackSpec struct {
	cfgs     []server.Config
	tables   []*lut.Table
	psu      *power.PSUModel
	pdu      *power.PDUModel
	facility *cooling.Facility
	relEvery float64
}

// config returns the rack configuration with a fresh per-slot LUT fan
// controller, named and wired exactly like the experiments package's racks.
func (s rackSpec) config(tr *tracer) (rack.Config, error) {
	specs := make([]rack.ServerSpec, len(s.cfgs))
	for i, cfg := range s.cfgs {
		lc, err := control.NewLUT(s.tables[i], control.DefaultLUT())
		if err != nil {
			return rack.Config{}, err
		}
		specs[i] = rack.ServerSpec{
			Name:       fmt.Sprintf("srv%02d-amb%g", i, float64(cfg.Ambient)),
			Config:     cfg,
			Controller: tr.wrapController(lc),
		}
	}
	rc := rack.Config{Servers: specs, Workers: 1, PSU: s.psu, PDU: s.pdu, ReliabilitySampleEvery: s.relEvery}
	if s.facility != nil {
		fac := *s.facility
		rc.Facility = &fac
	}
	return rc, nil
}

func (s rackSpec) build(tr *tracer) (*rack.Rack, error) {
	rc, err := s.config(tr)
	if err != nil {
		return nil, err
	}
	return rack.New(rc)
}

// buildTables builds one LUT per distinct configuration through the
// in-memory cache, serially.
func buildTables(cfgs []server.Config) ([]*lut.Table, error) {
	bc := lut.DefaultBuild()
	bc.Workers = 1
	return lut.DiskCache{}.BuildPerConfig(cfgs, bc)
}

// distinctTables counts the LUT builds behind tables: BuildPerConfig
// shares one table between configurations with identical physics.
func distinctTables(tables []*lut.Table) int {
	seen := make(map[*lut.Table]bool)
	for _, t := range tables {
		seen[t] = true
	}
	return len(seen)
}

// setup is everything a rep does before its first Settle: configurations,
// LUT tables, policies, jobs and the cells' racks or room with per-slot
// controllers, one set of cells per job trace. tr, when non-nil, wraps
// every policy, controller and chooser handed to the kernels.
func setup(w workload, traces [][]loadgen.JobSpec, tr *tracer) (*prepared, error) {
	p := &prepared{w: w}
	base := server.T3Config()
	var err error
	switch w.kind {
	case kindRoom:
		err = p.setupRoom(base, traces, tr)
	case kindFaults:
		err = p.setupFaults(base, traces, tr)
	default:
		err = p.setupRack(base, traces, tr)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// setupRack builds, per job trace, one rack per experiments.RackPolicies
// policy, with the workload's delivery chain.
func (p *prepared) setupRack(base server.Config, traces [][]loadgen.JobSpec, tr *tracer) error {
	cfgs := experiments.RackServerConfigs(base, p.w.servers)
	tables, err := buildTables(cfgs)
	if err != nil {
		return err
	}
	p.lutBuilds = distinctTables(tables)
	p.spec = rackSpec{cfgs: cfgs, tables: tables}
	if p.w.chain {
		psu, pdu := power.DefaultPSU(), power.DefaultPDU()
		p.spec.psu, p.spec.pdu = &psu, &pdu
	}
	psus := make([]*power.PSUModel, len(cfgs))
	for i := range psus {
		psus[i] = p.spec.psu
	}
	for j, specs := range traces {
		jobs := sched.JobsFromSpecs(specs)
		policies, err := experiments.RackPolicies(cfgs, tables, psus)
		if err != nil {
			return err
		}
		for _, pol := range policies {
			r, err := p.spec.build(tr)
			if err != nil {
				return err
			}
			p.cells = append(p.cells, &cell{label: cellLabel(j, pol.Name()), jobs: jobs, rack: r, policy: tr.wrapPolicy(pol)})
		}
	}
	return nil
}

// setupFaults builds, per job trace, the six cascade cells of
// experiments.RackFaultComparison: PSU/PDU chain, the facility at the
// reference setpoint and reliability sampling every 10 s.
func (p *prepared) setupFaults(base server.Config, traces [][]loadgen.JobSpec, tr *tracer) error {
	cfgs := experiments.RackServerConfigs(base, p.w.servers)
	tables, err := buildTables(cfgs)
	if err != nil {
		return err
	}
	p.lutBuilds = distinctTables(tables)
	if p.faults, err = cascade(); err != nil {
		return err
	}
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	fac := cooling.DefaultFacility(faultSupplyC)
	if err := fac.Validate(); err != nil {
		return err
	}
	if fac.AmbientDelta() != 0 {
		return fmt.Errorf("fault facility setpoint shifts ambients; the cell tables assume it does not")
	}
	rs := rackSpec{cfgs: cfgs, tables: tables, psu: &psu, pdu: &pdu, facility: &fac, relEvery: 10}
	psus := make([]*power.PSUModel, len(cfgs))
	models := make([]power.ServerModel, len(cfgs))
	for i, cfg := range cfgs {
		psus[i] = &psu
		models[i] = cfg.Power
	}
	for j, specs := range traces {
		jobs := sched.JobsFromSpecs(specs)
		la, err := sched.NewLeakageAwareFromTables(tables)
		if err != nil {
			return err
		}
		ca, err := sched.NewCapAwareFromTables(tables, models, psus)
		if err != nil {
			return err
		}
		pa, err := sched.NewPUEAwareFromTables(tables, models, psus, fac)
		if err != nil {
			return err
		}
		for _, pol := range []sched.Policy{
			sched.NewRoundRobin(), sched.NewLeastUtilized(), sched.NewCoolestFirst(), la, ca, pa,
		} {
			r, err := rs.build(tr)
			if err != nil {
				return err
			}
			p.cells = append(p.cells, &cell{label: cellLabel(j, pol.Name()), jobs: jobs, rack: r, policy: tr.wrapPolicy(pol)})
		}
	}
	p.spec = rs
	return nil
}

// roomRackConfigs returns every rack's slot configurations, built like the
// experiments room: the rack gradient per rack, noise seeds distinct
// room-wide.
func roomRackConfigs(base server.Config, racks, servers int) [][]server.Config {
	out := make([][]server.Config, racks)
	for r := range out {
		b := base
		b.NoiseSeed = base.NoiseSeed + int64(100000*(r+1))
		out[r] = experiments.RackServerConfigs(b, servers)
	}
	return out
}

// newRoom builds a room of racks over rackCfgs (every rack shares the slot
// tables, as the racks are physics-identical slot for slot) behind the
// default CRAC bank at its reference setpoint, coupled by the neighbour
// recirculation matrix.
func newRoom(rackCfgs [][]server.Config, tables []*lut.Table, workers int, tr *tracer) (*room.Room, error) {
	specs := make([]room.RackSpec, len(rackCfgs))
	for i, cfgs := range rackCfgs {
		rc, err := rackSpec{cfgs: cfgs, tables: tables}.config(tr)
		if err != nil {
			return nil, err
		}
		specs[i] = room.RackSpec{Name: fmt.Sprintf("rack%02d", i), Config: rc}
	}
	fac := cooling.DefaultFacility(cooling.DefaultCRAC().ReferenceC)
	return room.New(room.Config{
		Racks: specs, Workers: workers, Recirc: room.NeighborMatrix(len(rackCfgs)), Facility: &fac,
	})
}

// setupRoom builds, per job trace, the recirc-aware room cell the way the
// experiments room comparison builds its cell of that name: a
// recirculation-aware chooser over one leakage-aware slot policy per rack.
func (p *prepared) setupRoom(base server.Config, traces [][]loadgen.JobSpec, tr *tracer) error {
	rackCfgs := roomRackConfigs(base, p.w.racks, p.w.servers)
	tables, err := buildTables(rackCfgs[0])
	if err != nil {
		return err
	}
	p.lutBuilds = distinctTables(tables)
	perRack := make([][]*lut.Table, p.w.racks)
	for r := range perRack {
		perRack[r] = tables
	}
	for j, specs := range traces {
		rm, err := newRoom(rackCfgs, tables, p.w.workers, tr)
		if err != nil {
			return err
		}
		slots := make([]sched.Policy, p.w.racks)
		for r := range slots {
			la, err := sched.NewLeakageAwareFromTables(tables)
			if err != nil {
				return err
			}
			slots[r] = tr.wrapPolicy(la)
		}
		ch, err := room.NewRecircAware(perRack, 0)
		if err != nil {
			return err
		}
		pol, err := room.NewPolicy(tr.wrapChooser(ch), slots)
		if err != nil {
			return err
		}
		p.cells = append(p.cells, &cell{label: cellLabel(j, ch.Name()), jobs: sched.JobsFromSpecs(specs), room: rm, rpol: pol})
	}
	p.spec = rackSpec{cfgs: rackCfgs[0], tables: tables}
	return nil
}

// counts are the scheduling outcomes the event kernel must reproduce
// exactly.
type counts struct {
	Submitted, Placed, Completed, Deferrals, Requeued, Lost, MaxQueueLen int
}

// cellOut is one cell's outcome. Digest is the canonical JSON of the full
// scheduling result and physics telemetry: two runs are bit-identical iff
// their digests are byte-equal (encoding/json writes shortest round-trip
// floats).
type cellOut struct {
	Label     string          `json:"label"`
	Counts    counts          `json:"counts"`
	EnergyKWh float64         `json:"energy_kwh"`
	Digest    json.RawMessage `json:"digest"`
	// Resumed is the digest of the run resumed from a mid-trace checkpoint
	// (kindFaults only).
	Resumed json.RawMessage `json:"-"`
}

// repOut is the outcome of one rep's simulated phase.
type repOut struct {
	cells      []cellOut
	ckpt       ckptStats
	fanChanges int // Σ controller-commanded fan-speed changes over cells
	lutBuilds  int
	// windows holds, per cell phase, the kernel window-length histogram
	// increments (bucket bound → count) for the trace decomposition; filled
	// only when a registry is attached.
	windows []map[float64]uint64
}

// ckptStats aggregates the checkpoint sink and resume path of one rep.
type ckptStats struct {
	count, bytes int
}

// runOpts selects how a rep's simulated phase runs.
type runOpts struct {
	fixed bool          // fixed-dt reference kernel instead of the event kernel
	reg   *obs.Registry // run-metrics registry shared by every cell; nil records nothing
	tr    *tracer       // spans and busy-time wrappers; nil = untraced
}

func digest(v any) (json.RawMessage, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("digest: %w", err)
	}
	return b, nil
}

// run is a rep's simulated phase: for every cell, settle then the measured
// trace — and on kindFaults the checkpoint sink plus the resume of each
// cell from its mid-trace checkpoint.
func (p *prepared) run(o runOpts) (repOut, error) {
	out := repOut{lutBuilds: p.lutBuilds}
	for _, c := range p.cells {
		var co cellOut
		var err error
		cs := o.tr.begin(spanCell, c.label)
		if c.room != nil {
			co, err = p.runRoomCell(c, o, &out)
		} else {
			co, err = p.runRackCell(c, o, &out)
		}
		o.tr.end(cs)
		if err != nil {
			return repOut{}, fmt.Errorf("%s/%s: %w", p.w.name, c.label, err)
		}
		out.cells = append(out.cells, co)
	}
	return out, nil
}

// energy picks the meter the accuracy check compares: facility energy, or
// wall energy where the cell has no facility.
func (p *prepared) energy(facility, wall float64) float64 {
	if p.w.hasFacility() {
		return facility
	}
	return wall
}

func (p *prepared) runRackCell(c *cell, o runOpts, out *repOut) (cellOut, error) {
	event := !o.fixed
	sp := o.tr.begin(spanSettle, c.label)
	if err := sched.Settle(c.rack, dt, settleS, event); err != nil {
		return cellOut{}, err
	}
	o.tr.end(sp)
	c.rack.ResetAccounting()
	tc := sched.TraceConfig{Dt: dt, Horizon: p.w.horizon, WallCapW: p.w.capW, EventStepping: event, Metrics: o.reg}
	var best []byte // encoded checkpoint nearest resumeAt
	bestDist := math.Inf(1)
	if p.w.kind == kindFaults {
		tc.Faults = p.faults
		if event {
			// Samples land on identical instants in both kernels only when
			// the kernel wakes on the reliability cadence.
			tc.SampleEvery = 10
			var buf bytes.Buffer
			tc.CheckpointEvery = ckptEvery
			tc.CheckpointSink = o.tr.wrapSink(func(ck sched.Checkpoint) error {
				buf.Reset()
				if err := snap.Encode(&buf, ck); err != nil {
					return err
				}
				out.ckpt.count++
				out.ckpt.bytes += buf.Len()
				if d := math.Abs(float64(ck.K)*dt - resumeAt); d < bestDist {
					bestDist = d
					best = append(best[:0], buf.Bytes()...)
				}
				return nil
			})
		}
	}
	var img obs.State
	if o.reg != nil {
		img = o.reg.ExportState()
	}
	pol := c.policy
	if c.log != nil {
		pol = withPolicyOptionals(&recorder{Policy: pol, log: c.log}, pol)
	}
	sp = o.tr.begin(spanTrace, c.label)
	res, err := sched.RunTraceCfg(c.rack, c.jobs, pol, tc)
	o.tr.end(sp)
	if err != nil {
		return cellOut{}, err
	}
	if o.reg != nil {
		out.windows = append(out.windows, windowDelta(img, o.reg.ExportState()))
	}
	tel := c.rack.Telemetry()
	out.fanChanges += tel.FanChanges
	res.Metrics = nil
	co := cellOut{
		Label: c.label,
		Counts: counts{
			Submitted: res.Submitted, Placed: res.Placed, Completed: res.Completed, Deferrals: res.Deferrals,
			Requeued: res.Requeued, Lost: res.Lost, MaxQueueLen: res.MaxQueueLen,
		},
		EnergyKWh: p.energy(tel.FacilityEnergyKWh, tel.WallEnergyKWh),
	}
	if co.Digest, err = digest(struct {
		Sched sched.Result
		Rack  rack.Telemetry
	}{res, tel}); err != nil {
		return cellOut{}, err
	}
	if tc.CheckpointSink != nil {
		if best == nil {
			return cellOut{}, fmt.Errorf("no checkpoint was taken")
		}
		if co.Resumed, err = p.resume(c, tc, best, o, out); err != nil {
			return cellOut{}, fmt.Errorf("resume: %w", err)
		}
	}
	return co, nil
}

// resume decodes the checkpoint, rebuilds the cell's rack from its
// configuration and finishes the trace from the checkpoint, returning the
// resumed run's digest.
func (p *prepared) resume(c *cell, tc sched.TraceConfig, encoded []byte, o runOpts, out *repOut) (json.RawMessage, error) {
	sp := o.tr.begin(spanResume, c.label)
	defer o.tr.end(sp)
	t0 := time.Now()
	var ck sched.Checkpoint
	if err := snap.Decode(bytes.NewReader(encoded), &ck); err != nil {
		return nil, err
	}
	o.tr.decoded(time.Since(t0))
	r, err := p.spec.build(o.tr)
	if err != nil {
		return nil, err
	}
	tc.CheckpointEvery, tc.CheckpointSink = 0, nil
	if o.reg != nil {
		// A resumed run imports the checkpoint's metric image, so it needs a
		// registry of its own; the increment over that image is what the
		// resumed run executed.
		tc.Metrics = obs.NewRegistry()
	}
	res, err := sched.ResumeTraceCfg(r, c.jobs, c.policy, tc, ck)
	if err != nil {
		return nil, err
	}
	if tc.Metrics != nil {
		out.windows = append(out.windows, windowDelta(ck.Obs, tc.Metrics.ExportState()))
	}
	res.Metrics = nil
	return digest(struct {
		Sched sched.Result
		Rack  rack.Telemetry
	}{res, r.Telemetry()})
}

func (p *prepared) runRoomCell(c *cell, o runOpts, out *repOut) (cellOut, error) {
	sp := o.tr.begin(spanSettle, c.label)
	if err := room.Settle(c.room, dt, settleS, !o.fixed); err != nil {
		return cellOut{}, err
	}
	o.tr.end(sp)
	c.room.ResetAccounting()
	var img obs.State
	if o.reg != nil {
		img = o.reg.ExportState()
	}
	sp = o.tr.begin(spanTrace, c.label)
	res, err := room.RunTrace(c.room, c.jobs, c.rpol, room.TraceConfig{
		Dt: dt, Horizon: p.w.horizon, EventStepping: !o.fixed, Metrics: o.reg,
	})
	o.tr.end(sp)
	if err != nil {
		return cellOut{}, err
	}
	if o.reg != nil {
		out.windows = append(out.windows, windowDelta(img, o.reg.ExportState()))
	}
	tel := c.room.Telemetry()
	out.fanChanges += tel.FanChanges
	res.Metrics = nil
	co := cellOut{
		Label: c.label,
		Counts: counts{
			Submitted: res.Submitted, Placed: res.Placed, Completed: res.Completed,
			Requeued: res.Requeued, Lost: res.Lost, MaxQueueLen: res.MaxQueueLen,
		},
		EnergyKWh: p.energy(tel.FacilityEnergyKWh, tel.WallEnergyKWh),
	}
	co.Digest, err = digest(struct {
		Sched room.Result
		Room  room.Telemetry
	}{res, tel})
	return co, err
}

// simServerSeconds is the simulated work of one rep: every cell's servers
// through settle and trace, plus the resumed half-traces of kindFaults.
func (w workload) simServerSeconds() float64 {
	cells := float64(w.traces)
	switch w.kind {
	case kindRack:
		cells *= 5
	case kindFaults:
		cells *= 6
	}
	s := cells * float64(w.totalServers()) * (settleS + w.horizon)
	if w.kind == kindFaults {
		s += cells * float64(w.servers) * (w.horizon - math.Min(resumeAt, w.horizon))
	}
	return s
}
