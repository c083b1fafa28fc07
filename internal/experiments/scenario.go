package experiments

import (
	"context"
	"fmt"

	"repro/internal/cooling"
	"repro/internal/fault"
	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/room"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/units"
)

// Scenario describes one rack- or room-scale comparison: a topology crossed
// with three axes — wall caps, cold-aisle supply setpoints and fault
// scenarios — and, in every combination, each placement policy the topology
// ships. Every cell serves the same Poisson job trace on a fresh rack or
// room under fresh policy instances. DefaultRackEval, DefaultFacilityEval,
// DefaultFaultEval and DefaultRoomEval are its presets; the AC comparison
// is the rack preset behind the PSU/PDU chain with WallCapsW {0, AutoCap}.
type Scenario struct {
	// Racks selects the topology: 0 runs one rack on its own; n ≥ 1 runs a
	// room of n racks behind one shared CRAC bank, thermally coupled by
	// Recirc. A room keeps the delivery chain ideal and has no wall cap,
	// backfill, faults, reliability sampling or checkpoints.
	Racks     int
	Servers   int     // servers per rack
	Dt        float64 // simulation step, seconds
	Horizon   float64 // measured window, seconds
	Stabilize float64 // idle settling before the measured window, seconds

	TraceSeed    int64
	Rate         float64         // job arrivals per second (room-wide in a room)
	MeanDuration float64         // mean job service time, seconds
	Demands      []units.Percent // per-job demand levels

	// Policy, when non-empty, keeps only the named policy's cells: a
	// sched.Policy.Name() in a rack ("round-robin", "least-utilized",
	// "coolest-first", "leakage-aware", "cap-aware", with a facility also
	// "pue-aware"), a two-level combo in a room ("rr", "least-loaded",
	// "coolest", "min-cost", "recirc-aware", "recirc-pue"). The shared
	// Metrics registry aggregates every cell it instruments, so filtering to
	// one policy makes a trace's pin shares readable. "" runs every policy.
	Policy string

	// FanControl selects every slot's fan controller: "" or "lut" (the
	// paper's LUT controller) or "bang" (the Section V bang-bang policy).
	// The LUT grid is built either way: the table-driven policies read it.
	FanControl string

	// PSU, applied to every slot, and PDU, shared by the rack, form the
	// power-delivery chain. Both nil keep it ideal: wall telemetry mirrors
	// the DC side and every physics metric is bit-identical to a chain-less
	// rack.
	PSU *power.PSUModel
	PDU *power.PDUModel

	// ReliabilitySampleEvery, in seconds, turns on the racks' per-server
	// reliability roll-up (rack.Config.ReliabilitySampleEvery); under
	// EventStepping the kernel also wakes at that cadence, so samples land
	// on the fixed-dt instants. 0 keeps sampling off.
	ReliabilitySampleEvery float64

	// SetpointsC is the supply axis. Each setpoint attaches
	// cooling.DefaultFacility at it, which shifts every inlet by setpoint −
	// reference; the fan controllers' tables and pue-aware's are rebuilt at
	// the shifted ambients (the operator recalibrates the 75 °C cap), while
	// the facility-blind table policies keep the reference tables — the
	// staleness pue-aware exists to fix. nil runs without a facility:
	// cooling exactly zero, PUE exactly 1.
	SetpointsC []units.Celsius
	// Economizer fits cooling.DefaultEconomizer to the facility; it needs
	// SetpointsC.
	Economizer bool
	// Recirc overrides a room's recirculation coupling: nil picks
	// room.NeighborMatrix(Racks), room.NewMatrix(Racks) uncouples the racks.
	Recirc *room.Matrix

	// Faults is the fault axis: every policy runs under each scenario's
	// schedule. nil runs fault-free.
	Faults []FaultScenario
	// DropOnFault abandons killed jobs instead of requeueing them at the
	// backlog head (sched.TraceConfig.DropOnFault).
	DropOnFault bool

	// WallCapsW is the wall-cap axis, one block of cells per entry: 0 runs
	// uncapped, a positive entry is the rack's wall budget in W, and AutoCap
	// derives the budget from round-robin's uncapped run. nil runs
	// uncapped.
	WallCapsW []float64

	// EventStepping selects the event-driven trace kernel for every run,
	// stabilization included: the rack advances per scheduling event
	// instead of per fixed dt, with identical placements and energies
	// within the macro-stepping tolerance (sched.TraceConfig.EventStepping).
	// false is the bit-exact fixed-dt reference.
	EventStepping bool
	// Backfill enables the dispatcher's FIFO backfill pass
	// (sched.TraceConfig.Backfill): jobs queued behind a blocked head may
	// place under the cap admission the head failed. false keeps strict
	// FIFO.
	Backfill bool

	// Workers bounds the fan-outs — the cells and the LUT builds: ≤ 0 =
	// GOMAXPROCS, 1 = the serial reference path. Each cell steps its rack
	// or room serially: the concurrent cells already fill the pool, and a
	// nested fan-out would only multiply goroutines. Rows are identical for
	// every value.
	Workers int
	// LUTCacheDir, when non-empty, persists built LUTs to disk keyed by
	// config hash (lut.DiskCache).
	LUTCacheDir string
	// Metrics, when non-nil, is the run-metrics registry every measured
	// trace instruments. One registry serves all concurrent cells through
	// commutative updates only (internal/obs), so its dump is the
	// scenario's roll-up and byte-identical for every Workers value.
	// Stabilization is not instrumented: the counters describe the measured
	// horizon, so the pin-reason identity holds against the reported steps.
	Metrics *obs.Registry
	// Ctx, when non-nil, makes every run cooperatively cancellable at its
	// decision-step boundaries; a cancelled rack run surfaces a
	// *sched.Cancelled carrying a resumable checkpoint.
	Ctx context.Context
	// CheckpointEvery and CheckpointSink write periodic checkpoints of the
	// measured trace (sched.TraceConfig), and Resume continues a run from
	// one, skipping the stabilization and accounting reset whose effect it
	// carries. A checkpoint captures one run, so these need a rack
	// scenario that reports exactly one cell and otherwise matches the
	// checkpoint's configuration.
	CheckpointEvery float64
	CheckpointSink  func(sched.Checkpoint) error
	Resume          *sched.Checkpoint
}

// DefaultRackEval returns an 8-server rack under a one-hour trace with
// ~30% mean offered load — enough contention that placement matters,
// enough headroom that every policy can always place eventually.
func DefaultRackEval() Scenario {
	return Scenario{
		Servers:      8,
		Dt:           1,
		Horizon:      3600,
		Stabilize:    300,
		TraceSeed:    42,
		Rate:         0.02,
		MeanDuration: 300,
		Demands:      []units.Percent{20, 40, 60},
	}
}

// withChain attaches the default PSU/PDU delivery chain.
func withChain(sc Scenario) Scenario {
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	sc.PSU, sc.PDU = &psu, &pdu
	return sc
}

// DefaultFacilityEval returns the standard setpoint sweep: the default
// rack behind the default PSU/PDU chain, under a busier trace (≈45% mean
// offered load, so the fan/leakage response to the aisle temperature is
// pronounced), across three supply setpoints bracketing the 18 °C
// reference. Facility energy is minimized at the interior one: a cold
// aisle overpays the chiller, a warm one overpays server fans and leakage.
func DefaultFacilityEval() Scenario {
	sc := withChain(DefaultRackEval())
	sc.Rate = 0.03
	sc.Demands = []units.Percent{30, 50, 70}
	sc.SetpointsC = []units.Celsius{14, 21, 28}
	return sc
}

// DefaultFaultEval returns the standard degradation comparison: the
// default rack behind the default PSU/PDU chain and the facility at the
// 18 °C reference supply (which leaves server ambients untouched, so the
// "none" scenario stays comparable with the plain rack), under the
// DefaultFaultScenarios catalogue, reliability sampled every 10 s, killed
// jobs requeued.
func DefaultFaultEval() Scenario {
	sc := withChain(DefaultRackEval())
	sc.ReliabilitySampleEvery = 10
	sc.SetpointsC = []units.Celsius{cooling.DefaultCRAC().ReferenceC}
	sc.Faults = DefaultFaultScenarios()
	return sc
}

// DefaultRoomEval returns a 4-rack × 8-server room behind the shared bank
// at the reference supply, under a 30-minute trace with ~30% mean offered
// load — the rack comparison's contention level, scaled to room size.
func DefaultRoomEval() Scenario {
	sc := DefaultRackEval()
	sc.Racks = 4
	sc.Horizon = 1800
	sc.Rate = 0.08
	sc.SetpointsC = []units.Celsius{cooling.DefaultCRAC().ReferenceC}
	return sc
}

// FaultScenario is one named entry of the degradation catalogue: the fault
// schedule a run injects, over the otherwise identical rack and job trace.
type FaultScenario struct {
	Name     string
	Schedule fault.Schedule
}

// DefaultFaultScenarios returns the standard catalogue, escalating from
// the healthy baseline to a compound cascade:
//
//   - none: the empty schedule — the control row every degraded run is
//     read against (and the bit-identity anchor to the fault-free rack).
//   - fan-stick: one fan of the coldest-aisle server freezes at its
//     current speed 10 minutes in, permanently.
//   - psu-fail: the cold-aisle server every policy favours goes dark for
//     25 minutes, forcing a kill/requeue surge and a re-placement.
//   - crac-outage: the room unit dies for 15 minutes — an 8 °C heat soak
//     on every inlet with no cooling spend while it lasts.
//   - cascade: fan failure, then a permanent server loss, then the CRAC
//     outage on top, then a forced trip — the compound worst case.
func DefaultFaultScenarios() []FaultScenario {
	return []FaultScenario{
		{Name: "none"},
		{Name: "fan-stick", Schedule: fault.Schedule{Events: []fault.Event{
			{Kind: fault.FanStick, Server: 0, Fan: 0, At: 600},
		}}},
		{Name: "psu-fail", Schedule: fault.Schedule{Events: []fault.Event{
			{Kind: fault.PSUFail, Server: 0, At: 700, Clear: 2200},
		}}},
		{Name: "crac-outage", Schedule: fault.Schedule{Events: []fault.Event{
			{Kind: fault.CRACOutage, At: 1200, Clear: 2100},
		}}},
		{Name: "cascade", Schedule: fault.Schedule{Events: []fault.Event{
			{Kind: fault.FanFail, Server: 0, Fan: 0, At: 600},
			{Kind: fault.PSUFail, Server: 1, At: 1200},
			{Kind: fault.CRACOutage, At: 1800, Clear: 2700},
			{Kind: fault.ServerTrip, Server: 3, At: 2000},
		}}},
	}
}

// AutoCap, as a WallCapsW entry, sets each of its cells' budget to
// AutoCapFraction of the peak wall draw of the uncapped round-robin cell
// at the same setpoint and fault scenario.
const AutoCap = -1

// AutoCapFraction scales round-robin's uncapped peak wall draw into an
// AutoCap budget: tight enough that placements defer around the peak,
// loose enough that the trace still completes.
const AutoCapFraction = 0.97

// supply is one point of the setpoint axis: the facility (nil without
// one) and the fan controllers' tables at the ambients it supplies.
type supply struct {
	fac    *cooling.Facility
	tables []*lut.Table
}

// cell is one run of a scenario: its row, labels in and results out, and
// what the run needs beyond the scenario's shared state.
type cell struct {
	Row
	sup     *supply
	faults  *fault.Schedule // nil: fault-free
	rackPol sched.Policy    // a rack cell's policy
	roomPol *room.Policy    // a room cell's policy
	// rr indexes the uncapped round-robin cell an AutoCap cell's budget
	// derives from; hidden marks a round-robin cell that runs for that
	// peak alone — no row, no metrics, no checkpoints.
	rr     int
	hidden bool
}

// setup is a scenario's shared read-only state: per-rack slot
// configurations (one rack unless the scenario is a room), the reference
// tables, the job trace, and the cells.
type setup struct {
	sc     Scenario
	cfgs   [][]server.Config
	tables []*lut.Table
	psus   []*power.PSUModel
	models []power.ServerModel
	jobs   []sched.Job
	cells  []cell
}

// RunScenario runs every cell of the scenario and returns one row per
// reported cell, in axis order: wall caps outermost, then setpoints, then
// fault scenarios, then policies. The job trace and the reference LUTs are
// built once, the shifted LUTs once per setpoint. Cells fan out over the
// worker pool, each writing only its own slot, and every scheduling
// decision stays serial, so rows are byte-identical for every Workers
// value. AutoCap cells run after the uncapped round-robin cells they read;
// a round-robin cell that the Policy filter or the cap axis leaves out
// still runs for its peak, unreported and uninstrumented.
func RunScenario(base server.Config, sc Scenario) ([]Row, error) {
	s, err := prepare(base, sc)
	if err != nil {
		return nil, err
	}
	var first, auto []*cell
	for i := range s.cells {
		if c := &s.cells[i]; c.CapW == AutoCap {
			auto = append(auto, c)
		} else {
			first = append(first, c)
		}
	}
	if err := s.run(first); err != nil {
		return nil, err
	}
	for _, c := range auto {
		c.CapW = AutoCapFraction * s.cells[c.rr].Rack.PeakWallPowerW
	}
	if err := s.run(auto); err != nil {
		return nil, err
	}
	var rows []Row
	for _, c := range s.cells {
		if !c.hidden {
			rows = append(rows, c.Row)
		}
	}
	return rows, nil
}

// RackPolicyComparison is RunScenario under the name the benchmark
// module's TestMatchesExperiments calls: on DefaultRackEval's rack it runs
// the five placement policies over one Poisson trace, one uncapped row
// each.
func RackPolicyComparison(base server.Config, sc Scenario) ([]Row, error) {
	return RunScenario(base, sc)
}

// prepare validates the scenario and builds its shared state and cells.
func prepare(base server.Config, sc Scenario) (*setup, error) {
	if sc.Racks < 0 || sc.Servers <= 0 || sc.Dt <= 0 || sc.Horizon <= 0 {
		return nil, fmt.Errorf("experiments: scenario needs positive servers/dt/horizon and racks ≥ 0, got %+v", sc)
	}
	checkpoints := sc.CheckpointSink != nil || sc.CheckpointEvery != 0 || sc.Resume != nil
	capped := false
	for _, c := range sc.WallCapsW {
		capped = capped || c != 0
	}
	switch {
	case sc.Racks > 0 && (sc.PSU != nil || sc.PDU != nil || capped || sc.Backfill || sc.Faults != nil ||
		sc.DropOnFault || sc.ReliabilitySampleEvery != 0 || checkpoints):
		return nil, fmt.Errorf("experiments: a room has no delivery chain, wall cap, backfill, faults, reliability sampling or checkpoints")
	case sc.Racks == 0 && sc.Recirc != nil:
		return nil, fmt.Errorf("experiments: recirculation needs a room (Racks ≥ 1)")
	case sc.Economizer && len(sc.SetpointsC) == 0:
		return nil, fmt.Errorf("experiments: the economizer needs a facility (SetpointsC)")
	}

	// Every rack of a room repeats the aisle gradient and DIMM mix, with
	// sensor noise seeds distinct across the room, so one LUT grid serves
	// all.
	s := &setup{sc: sc}
	for r := 0; r < max(sc.Racks, 1); r++ {
		b := base
		if sc.Racks > 0 {
			b.NoiseSeed = base.NoiseSeed + int64(100000*(r+1))
		}
		s.cfgs = append(s.cfgs, RackServerConfigs(b, sc.Servers))
	}
	var err error
	if s.tables, err = buildRackTables(s.cfgs[0], sc); err != nil {
		return nil, err
	}
	for _, cfg := range s.cfgs[0] {
		s.psus = append(s.psus, sc.PSU)
		s.models = append(s.models, cfg.Power)
	}
	specs, err := loadgen.PoissonTrace(loadgen.PoissonTraceConfig{
		Seed:         sc.TraceSeed,
		Horizon:      sc.Horizon,
		Rate:         sc.Rate,
		MeanDuration: sc.MeanDuration,
		Demands:      sc.Demands,
	})
	if err != nil {
		return nil, err
	}
	s.jobs = sched.JobsFromSpecs(specs)

	var sups []*supply
	for _, sp := range sc.SetpointsC {
		fac := cooling.DefaultFacility(sp)
		if sc.Economizer {
			econ := cooling.DefaultEconomizer()
			fac.Econ = &econ
		}
		if err := fac.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: facility at %v: %w", sp, err)
		}
		tables := s.tables
		if delta := fac.AmbientDelta(); delta != 0 {
			shifted := make([]server.Config, len(s.cfgs[0]))
			for i, cfg := range s.cfgs[0] {
				shifted[i] = cfg.ShiftAmbient(delta)
			}
			if tables, err = buildRackTables(shifted, sc); err != nil {
				return nil, fmt.Errorf("experiments: tables at %v: %w", sp, err)
			}
		}
		sups = append(sups, &supply{fac: &fac, tables: tables})
	}
	if len(sups) == 0 {
		sups = []*supply{{tables: s.tables}}
	}
	caps, faults := sc.WallCapsW, sc.Faults
	if len(caps) == 0 {
		caps = []float64{0}
	}
	if len(faults) == 0 {
		faults = []FaultScenario{{}}
	}

	// Serial preparation, in row order: fresh policy instances per cell,
	// since policies are stateful and cells run concurrently.
	type key struct {
		sup    *supply
		faults *fault.Schedule
	}
	rr := map[key]int{}
	var names []string
	for _, capW := range caps {
		for _, sup := range sups {
			for fi := range faults {
				var fs *fault.Schedule
				if len(faults[fi].Schedule.Events) > 0 {
					fs = &faults[fi].Schedule
				}
				block, err := s.policyCells(sup)
				if err != nil {
					return nil, err
				}
				names = names[:0]
				for _, c := range block {
					names = append(names, c.Policy)
					if sc.Policy != "" && c.Policy != sc.Policy {
						continue
					}
					c.CapW, c.Fault, c.sup, c.faults = capW, faults[fi].Name, sup, fs
					if sup.fac != nil {
						c.SetpointC = float64(sup.fac.CRAC.SupplyC)
					}
					if capW == 0 && c.Policy == "round-robin" {
						rr[key{sup, fs}] = len(s.cells)
					}
					s.cells = append(s.cells, c)
				}
			}
		}
	}
	if len(s.cells) == 0 {
		return nil, fmt.Errorf("experiments: unknown policy %q (want one of %v)", sc.Policy, names)
	}
	if checkpoints && len(s.cells) != 1 {
		return nil, fmt.Errorf("experiments: checkpoint/resume capture one run, but the scenario has %d cells; name one Policy", len(s.cells))
	}
	for i, n := 0, len(s.cells); i < n; i++ {
		if s.cells[i].CapW != AutoCap {
			continue
		}
		k := key{s.cells[i].sup, s.cells[i].faults}
		j, ok := rr[k]
		if !ok {
			h := s.cells[i]
			h.Policy, h.CapW, h.rackPol, h.hidden = "round-robin", 0, sched.NewRoundRobin(), true
			j, rr[k] = len(s.cells), len(s.cells)
			s.cells = append(s.cells, h)
		}
		s.cells[i].rr = j
	}
	return s, nil
}

// policyCells returns one cell per policy of the scenario's topology at
// one supply, in table order, each holding a fresh policy instance: a
// rack's RackPolicies plus, with a facility, pue-aware on that supply's
// tables; a room's six two-level combos.
func (s *setup) policyCells(sup *supply) ([]cell, error) {
	if s.sc.Racks > 0 {
		labels, pols, err := roomPolicies(s.sc.Racks, s.tables, sup, s.models)
		cells := make([]cell, len(pols))
		for i, p := range pols {
			cells[i] = cell{Row: Row{Policy: labels[i]}, roomPol: p}
		}
		return cells, err
	}
	pols, err := RackPolicies(s.cfgs[0], s.tables, s.psus)
	if err != nil {
		return nil, err
	}
	if sup.fac != nil {
		pa, err := sched.NewPUEAwareFromTables(sup.tables, s.models, s.psus, *sup.fac)
		if err != nil {
			return nil, err
		}
		pols = append(pols, pa)
	}
	cells := make([]cell, len(pols))
	for i, p := range pols {
		cells[i] = cell{Row: Row{Policy: p.Name()}, rackPol: p}
	}
	return cells, nil
}

// roomPolicies builds the six chooser × slot-policy combos, in table
// order: the blind baselines (round-robin, least-loaded), the reactive
// thermal pair (coolest rack + coolest slot), and the proactive cost-model
// ladder (min-cost, recirculation-aware, recirculation + facility aware).
// Without a facility, recirc-pue falls back to leakage-aware slots: a
// facility-aware cost model without a facility is undefined.
func roomPolicies(n int, tables []*lut.Table, sup *supply, models []power.ServerModel) ([]string, []*room.Policy, error) {
	perRack := make([][]*lut.Table, n)
	for r := range perRack {
		perRack[r] = tables
	}
	leak := func() (sched.Policy, error) { return sched.NewLeakageAwareFromTables(tables) }
	pue := leak
	if sup.fac != nil {
		pue = func() (sched.Policy, error) { return sched.NewPUEAwareFromTables(sup.tables, models, nil, *sup.fac) }
	}
	minCost, err := room.NewMinCostRack(perRack)
	if err != nil {
		return nil, nil, err
	}
	recirc, err := room.NewRecircAware(perRack, 0)
	if err != nil {
		return nil, nil, err
	}
	recircPUE, err := room.NewRecircAware(perRack, 0)
	if err != nil {
		return nil, nil, err
	}
	combos := []struct {
		label   string
		chooser room.RackChooser
		slot    func() (sched.Policy, error)
	}{
		{"rr", room.NewRoundRobinRacks(), func() (sched.Policy, error) { return sched.NewRoundRobin(), nil }},
		{"least-loaded", room.NewLeastLoadedRack(), func() (sched.Policy, error) { return sched.NewLeastUtilized(), nil }},
		{"coolest", room.NewCoolestRack(), func() (sched.Policy, error) { return sched.NewCoolestFirst(), nil }},
		{"min-cost", minCost, leak},
		{"recirc-aware", recirc, leak},
		{"recirc-pue", recircPUE, pue},
	}
	labels := make([]string, len(combos))
	pols := make([]*room.Policy, len(combos))
	for i, c := range combos {
		slots := make([]sched.Policy, n)
		for r := range slots {
			if slots[r], err = c.slot(); err != nil {
				return nil, nil, err
			}
		}
		labels[i] = c.label
		if pols[i], err = room.NewPolicy(c.chooser, slots); err != nil {
			return nil, nil, err
		}
	}
	return labels, pols, nil
}

// run fans the cells out over the worker pool, slot-per-cell.
func (s *setup) run(cells []*cell) error {
	errs := make([]error, len(cells))
	par.ForEach(len(cells), s.sc.Workers, func(i int) {
		if s.sc.Racks > 0 {
			errs[i] = s.runRoom(cells[i])
		} else {
			errs[i] = s.runRack(cells[i])
		}
	})
	for i, err := range errs {
		if err != nil {
			c := cells[i]
			return fmt.Errorf("experiments: %s (cap %g W, supply %g °C, faults %q): %w",
				c.Policy, c.CapW, c.SetpointC, c.Fault, err)
		}
	}
	return nil
}

// runRack is one rack cell: fresh rack, idle stabilization, accounting
// reset, then the measured trace. With Resume set, stabilization and the
// reset are skipped — their effect is inside the checkpointed state — and
// the trace continues from the checkpoint's cursor.
func (s *setup) runRack(c *cell) error {
	sc := s.sc
	rc, err := rackConfigFor(s.cfgs[0], c.sup.tables, sc, c.sup.fac)
	if err != nil {
		return err
	}
	r, err := rack.New(rc)
	if err != nil {
		return err
	}
	tc := sched.TraceConfig{
		Dt: sc.Dt, Horizon: sc.Horizon, WallCapW: c.CapW, EventStepping: sc.EventStepping,
		Backfill: sc.Backfill, Faults: c.faults, DropOnFault: sc.DropOnFault,
	}
	if sc.EventStepping {
		// Kernel wakes at the reliability cadence, so samples land on
		// identical instants in both stepping modes.
		tc.SampleEvery = sc.ReliabilitySampleEvery
	}
	if !c.hidden {
		tc.Metrics, tc.Ctx = sc.Metrics, sc.Ctx
		tc.CheckpointEvery, tc.CheckpointSink = sc.CheckpointEvery, sc.CheckpointSink
	}
	if sc.Resume != nil && !c.hidden {
		c.Sched, err = sched.ResumeTraceCfg(r, s.jobs, c.rackPol, tc, *sc.Resume)
	} else {
		if err := sched.Settle(r, sc.Dt, sc.Stabilize, sc.EventStepping); err != nil {
			return err
		}
		r.ResetAccounting()
		c.Sched, err = sched.RunTraceCfg(r, s.jobs, c.rackPol, tc)
	}
	c.Rack = r.Telemetry()
	for i := 0; i < r.NumServers(); i++ {
		if r.Health(i) == rack.Healthy {
			c.HealthyAtEnd++
		}
	}
	return err
}

// runRoom is one room cell: fresh room (each rack with its own fan
// controllers over the shared tables; the room owns the facility and the
// recirculation matrix), idle stabilization, accounting reset, then the
// measured trace.
func (s *setup) runRoom(c *cell) error {
	sc := s.sc
	specs := make([]room.RackSpec, len(s.cfgs))
	for r, cfgs := range s.cfgs {
		rc, err := rackConfigFor(cfgs, c.sup.tables, sc, nil)
		if err != nil {
			return err
		}
		specs[r] = room.RackSpec{Name: fmt.Sprintf("rack%02d", r), Config: rc}
	}
	recirc := sc.Recirc
	if recirc == nil {
		recirc = room.NeighborMatrix(sc.Racks)
	}
	rm, err := room.New(room.Config{Racks: specs, Workers: 1, Recirc: recirc, Facility: c.sup.fac})
	if err != nil {
		return err
	}
	if err := room.Settle(rm, sc.Dt, sc.Stabilize, sc.EventStepping); err != nil {
		return err
	}
	rm.ResetAccounting()
	c.RoomSched, err = room.RunTrace(rm, s.jobs, c.roomPol, room.TraceConfig{
		Dt: sc.Dt, Horizon: sc.Horizon, EventStepping: sc.EventStepping, Metrics: sc.Metrics, Ctx: sc.Ctx,
	})
	c.Room = rm.Telemetry()
	return err
}
