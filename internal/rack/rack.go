package rack

import (
	"fmt"
	"math"

	"repro/internal/control"
	"repro/internal/cooling"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/reliability"
	"repro/internal/server"
	"repro/internal/units"
)

// ServerSpec configures one slot of the rack. Specs may differ arbitrarily
// across slots — ambient (cold/hot aisle position), fan bank, DIMM count,
// noise seed — which is what makes placement policies interesting.
type ServerSpec struct {
	Name   string
	Config server.Config
	// PSU, when non-nil, is this slot's power supply: the server's DC draw
	// is converted to AC input through its load-dependent efficiency curve
	// before being summed into the rack's PDU. nil falls back to the rack
	// Config.PSU default; if that is nil too the slot's supply is ideal
	// (lossless), which keeps wall-side telemetry equal to the DC side.
	PSU *power.PSUModel
	// Controller, when non-nil, is the per-server fan-control policy,
	// ticked once per rack step. Unlike the single-server harness — which
	// feeds controllers a sar-style moving average because PWM toggles the
	// load 0↔100% every step — the rack feeds the instantaneous
	// utilization: dispatcher loads are piecewise-constant aggregates that
	// change only at job arrivals/completions, so a windowed monitor would
	// add lag without smoothing anything. The rack takes ownership:
	// controllers are stateful and must not be shared across servers or
	// racks.
	Controller control.Controller
}

// Config parameterizes a Rack.
type Config struct {
	Servers []ServerSpec
	// Workers bounds the per-server step fan-out: ≤ 0 means GOMAXPROCS,
	// 1 is the serial reference path the parallel runs are tested against.
	Workers int
	// PSU, when non-nil, is the default per-server power supply applied to
	// every slot that does not carry its own ServerSpec.PSU.
	PSU *power.PSUModel
	// PDU, when non-nil, is the shared rack-level distribution unit: the
	// summed PSU inputs pass through its efficiency curve to become the
	// wall draw at the utility feed. nil means an ideal (lossless) PDU.
	PDU *power.PDUModel
	// Facility, when non-nil, closes the loop past the wall: every wall
	// Watt becomes room heat the CRAC/chiller chain removes at a load- and
	// setpoint-dependent cost, and the CRAC's cold-aisle setpoint shifts
	// every server's ambient by the same delta relative to the reference
	// supply temperature (see cooling.CRACModel). nil means no facility is
	// modelled: cooling power is exactly zero, PUE is exactly 1, server
	// ambients are untouched, and every pre-existing metric is bit
	// identical to a facility-less rack.
	Facility *cooling.Facility
	// ReliabilitySampleEvery, in seconds, turns on the per-server
	// reliability roll-up: every server's hottest die temperature is
	// sampled at this cadence (at the observation instant of the step or
	// macro window crossing each sample time) and summarized as a
	// reliability.Report in the telemetry. 0 — the default — disables
	// sampling, leaving every metric bit-identical to a rack without the
	// feature. Under event stepping, align the trace runner's SampleEvery
	// with this cadence so samples land on exact grid instants in both
	// stepping modes.
	ReliabilitySampleEvery float64
}

// Health is the scheduler-facing state of one rack slot.
type Health int

const (
	// Healthy slots accept placements.
	Healthy Health = iota
	// Tripped means the server's thermal protection latched (naturally or
	// via fault.ServerTrip). The machine is up and cooling itself, but the
	// dispatcher must drain it: jobs on it are killed and no new work may
	// be placed until an explicit trip reset clears the latch.
	Tripped
	// Failed means the server is dark (fault.PSUFail): zero draw, zero
	// capacity, jobs on it are gone.
	Failed
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Tripped:
		return "tripped"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("rack.Health(%d)", int(h))
}

// serverState is the slot-i state a step job owns exclusively.
type serverState struct {
	name       string
	srv        *server.Server
	ctrl       control.Controller
	psu        *power.PSUModel // nil = ideal (lossless) supply
	load       units.Percent
	fanChanges int

	// psuDerate is the summed fault.PSUDroop severity on this slot: the AC
	// input for a given DC load is inflated by 1/(1−psuDerate). Overlapping
	// droop windows compose additively and must sum below 1 (ApplyFault
	// refuses an edge that would reach it).
	psuDerate float64

	// One-entry memo of psuIn, keyed on the DC draw and psuDerate: observe
	// stores the endpoint value and the policy views and cap admission
	// reuse it. Slot state touched only in the rack's serial sections
	// (after the fan-out barrier, or between steps); a pure function of
	// its key for the slot's fixed curve, so it is never snapshotted.
	psuMemoOK     bool
	psuMemoDC     float64
	psuMemoDerate float64
	psuMemoW      float64

	// Per-macro-window scratch (Advance): the energy meter at window start
	// and the temperature maxima sampled at every sub-step boundary, folded
	// into the rack aggregates serially after the barrier.
	winEnergy0  float64
	winMaxCPUC  float64
	winMaxDIMMC float64
	winMaxInlet float64
}

// psuIn returns the AC power this slot draws from the PDU to deliver a DC
// load of dc, through the slot's memo (see psuMemoOK).
func (st *serverState) psuIn(dc float64) float64 {
	if st.psuMemoOK && dc == st.psuMemoDC && st.psuDerate == st.psuMemoDerate {
		return st.psuMemoW
	}
	w := st.psuCurve(dc)
	st.psuMemoOK, st.psuMemoDC, st.psuMemoDerate, st.psuMemoW = true, dc, st.psuDerate, w
	return w
}

// psuCurve evaluates the slot's delivery curve without touching the memo —
// the identity when no PSU is configured and no droop fault is active.
// Off-endpoint queries (window means, what-if increments) use it so they
// do not evict the endpoint value.
func (st *serverState) psuCurve(dc float64) float64 {
	w := dc
	if st.psu != nil {
		w = float64(st.psu.Wall(units.Watts(dc)))
	}
	if st.psuDerate > 0 {
		w /= 1 - st.psuDerate
	}
	return w
}

// Rack is a set of simulated servers stepped in lockstep.
type Rack struct {
	servers []*serverState
	workers int
	pdu     *power.PDUModel   // nil = ideal (lossless) distribution
	fac     *cooling.Facility // nil = no facility: cooling exactly zero
	clock   float64

	// Rack-level running aggregates, reduced serially after each step.
	peakPowerW float64
	maxCPUC    float64
	maxDIMMC   float64
	maxInletC  float64

	// Wall-side (AC) accounting through the PSU/PDU delivery chain. The
	// last* pair is the instantaneous draw at the most recent observation;
	// the energies integrate it per step in index order, so wall telemetry
	// inherits the determinism contract unchanged.
	lastDCW     float64
	lastWallW   float64
	peakWallW   float64
	dcEnergyJ   float64
	wallEnergyJ float64

	// Facility-side accounting past the wall: the CRAC/chiller power spent
	// removing the wall heat, and the total facility draw. facEnergyJ is
	// integrated per step from the instantaneous facility power — not
	// derived from the other meters — so the FacilityEnergy = WallEnergy +
	// CoolingEnergy identity is a genuine property of the accounting.
	lastCoolW   float64
	peakFacW    float64
	coolEnergyJ float64
	facEnergyJ  float64

	// Facility-scope fault state: cracOut counts active CRAC outages (the
	// room unit is dark, cooling power exactly zero); chillerDerate is the
	// summed fault.ChillerDegraded severity inflating cooling power by
	// 1/(1−derate).
	cracOut       int
	chillerDerate float64

	// Lifetime fault-edge counters (ApplyFault/ClearFault successes),
	// folded into the run-metrics registry by MetricsInto.
	faultsApplied int
	faultsCleared int

	// WallFloorSteps scratch, one row of walked steps per slot, grown to
	// the longest walk once, then reused: floorC holds the die-temperature
	// floors, folded in place into running minima; walkC the walked
	// hottest die itself, which FloorWalkView serves. walkStride is the
	// row length of the last walk.
	floorC     []float64
	walkC      []float64
	walkStride int

	// Reliability sampling (Config.ReliabilitySampleEvery): per-server
	// hottest-die traces appended serially at observation instants.
	relEvery   float64
	relNext    float64
	relSamples [][]float64

	// Prebuilt fan-out closures with their per-call arguments staged in
	// fields: a closure passed to par.ForEach escapes (the parallel branch
	// hands it to goroutines), so building it per Step would cost one heap
	// allocation per step. The arguments are written before the fan-out
	// starts, which the goroutine-creation happens-before edge orders.
	argNow   float64
	argDt    float64
	argSteps int
	stepFn   func(i int)
	tickFn   func(i int)
	advFn    func(i int)
}

// New builds a rack, constructing every server from its spec. With a
// facility attached, the CRAC setpoint's ambient delta is applied to every
// server configuration before construction, so the machines settle at the
// inlet temperature the cold aisle actually supplies.
func New(cfg Config) (*Rack, error) {
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("rack: need at least one server")
	}
	var ambientDelta units.Celsius
	if cfg.Facility != nil {
		if err := cfg.Facility.Validate(); err != nil {
			return nil, fmt.Errorf("rack: facility: %w", err)
		}
		ambientDelta = cfg.Facility.AmbientDelta()
	}
	if cfg.PSU != nil {
		if err := cfg.PSU.Validate(); err != nil {
			return nil, fmt.Errorf("rack: default PSU: %w", err)
		}
	}
	if cfg.PDU != nil {
		if err := cfg.PDU.Validate(); err != nil {
			return nil, fmt.Errorf("rack: PDU: %w", err)
		}
	}
	r := &Rack{workers: cfg.Workers, pdu: cfg.PDU, fac: cfg.Facility}
	if cfg.ReliabilitySampleEvery > 0 {
		r.relEvery = cfg.ReliabilitySampleEvery
		r.relNext = cfg.ReliabilitySampleEvery
		r.relSamples = make([][]float64, len(cfg.Servers))
	}
	for i, spec := range cfg.Servers {
		if spec.PSU != nil {
			if err := spec.PSU.Validate(); err != nil {
				return nil, fmt.Errorf("rack: server %d (%s) PSU: %w", i, spec.Name, err)
			}
		}
		spec.Config = spec.Config.ShiftAmbient(ambientDelta)
		srv, err := server.New(spec.Config)
		if err != nil {
			return nil, fmt.Errorf("rack: server %d (%s): %w", i, spec.Name, err)
		}
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("srv%02d", i)
		}
		if spec.Controller != nil {
			spec.Controller.Reset()
		}
		psu := spec.PSU
		if psu == nil {
			psu = cfg.PSU
		}
		r.servers = append(r.servers, &serverState{name: name, srv: srv, ctrl: spec.Controller, psu: psu})
	}
	r.stepFn = func(i int) { r.servers[i].step(r.argNow, r.argDt) }
	r.tickFn = func(i int) { r.servers[i].tick(r.argNow) }
	r.advFn = func(i int) { r.servers[i].advance(r.argDt, r.argSteps) }
	r.resetPeaks()
	return r, nil
}

// resetPeaks seeds the rack aggregates from the servers' current state,
// so a Telemetry snapshot taken right after construction or an accounting
// reset reports the present temperatures and power rather than sentinels.
func (r *Rack) resetPeaks() {
	r.peakPowerW = 0
	r.peakWallW = 0
	r.peakFacW = 0
	r.maxCPUC = -1e9
	r.maxDIMMC = -1e9
	r.maxInletC = -1e9
	r.observe()
}

// observe folds the servers' instantaneous power and temperatures into
// the rack aggregates, serially in index order, and rolls the DC draw up
// the delivery chain (per-slot PSU, then the shared PDU) into the
// instantaneous wall draw. With no PSUs and no PDU the chain is the
// identity and the wall side mirrors the DC side exactly.
func (r *Rack) observe() {
	var totalW, acInW float64
	for _, st := range r.servers {
		dc := float64(st.srv.Breakdown().Total())
		totalW += dc
		acInW += st.psuIn(dc)
		if t := float64(st.srv.MaxCPUTemp()); t > r.maxCPUC {
			r.maxCPUC = t
		}
		if t := float64(st.srv.Memory().MaxTemp()); t > r.maxDIMMC {
			r.maxDIMMC = t
		}
		if t := float64(st.srv.InletTemp()); t > r.maxInletC {
			r.maxInletC = t
		}
	}
	r.lastDCW = totalW
	r.lastWallW = r.pduIn(acInW)
	// Facility roll-up: every wall Watt is room heat the CRAC/chiller pair
	// removes. Serial scalar math after the barrier, like every reduction.
	r.lastCoolW = r.coolingPowerNow(r.lastWallW)
	if totalW > r.peakPowerW {
		r.peakPowerW = totalW
	}
	if r.lastWallW > r.peakWallW {
		r.peakWallW = r.lastWallW
	}
	if fac := r.lastWallW + r.lastCoolW; fac > r.peakFacW {
		r.peakFacW = fac
	}
}

// pduIn lifts the summed PSU inputs through the PDU to the utility feed.
func (r *Rack) pduIn(acIn float64) float64 {
	if r.pdu == nil {
		return acIn
	}
	return float64(r.pdu.Wall(units.Watts(acIn)))
}

// coolingPowerNow is the facility cooling power under the current
// facility-scope fault state: exactly zero with no facility or while a
// CRAC outage is active (the dark room unit spends nothing — the heat
// soaks the aisles instead, which the outage's ambient shift models), and
// derated by the summed chiller degradation otherwise.
func (r *Rack) coolingPowerNow(wallW float64) float64 {
	if r.fac == nil || r.cracOut > 0 {
		return 0
	}
	if r.chillerDerate > 0 {
		return r.fac.CoolingPowerDerated(wallW, r.chillerDerate)
	}
	return r.fac.CoolingPower(wallW)
}

// sampleReliability appends the per-server hottest-die temperatures for
// every sample instant the clock has crossed since the last observation.
// Serial, index order — part of the post-barrier reduction phase.
func (r *Rack) sampleReliability() {
	for r.relEvery > 0 && r.clock >= r.relNext-1e-9 {
		for i, st := range r.servers {
			r.relSamples[i] = append(r.relSamples[i], float64(st.srv.MaxCPUTemp()))
		}
		r.relNext += r.relEvery
	}
}

// NumServers returns the number of servers in the rack.
func (r *Rack) NumServers() int { return len(r.servers) }

// Server returns server i for fine-grained inspection.
func (r *Rack) Server(i int) *server.Server { return r.servers[i].srv }

// Name returns server i's name.
func (r *Rack) Name(i int) string { return r.servers[i].name }

// SetLoad sets the utilization demand applied to server i on subsequent
// steps (the dispatcher's aggregate placement for that machine).
func (r *Rack) SetLoad(i int, u units.Percent) { r.servers[i].load = u.Clamp() }

// Load returns the demand currently applied to server i.
func (r *Rack) Load(i int) units.Percent { return r.servers[i].load }

// Now returns seconds since rack power-on.
func (r *Rack) Now() float64 { return r.clock }

// tick applies the dispatcher load and runs the slot's fan controller for
// the decision instant `now`. It touches only slot-i state. A dark slot
// (fault.PSUFail) has no controller and takes no load — both return with
// power.
func (st *serverState) tick(now float64) {
	if !st.srv.Powered() {
		return
	}
	st.srv.SetLoad(st.load)
	if st.ctrl != nil {
		obs := control.Observation{
			Now:         now,
			Utilization: st.srv.Utilization(),
			MaxCPUTemp:  maxC(st.srv.CPUTempSensorsReuse()),
			CurrentRPM:  st.srv.Fans().Target(),
		}
		if dec := st.ctrl.Tick(obs); dec.Changed {
			st.srv.Fans().SetAll(dec.Target)
			st.fanChanges++
		}
	}
}

// step advances one server by dt — the unit of work the fan-out
// schedules. It touches only slot-i state, never the rack aggregates.
func (st *serverState) step(now, dt float64) {
	st.tick(now)
	st.srv.Step(dt)
}

// advance moves one server through a `steps`-long macro window without
// controller ticks (the event kernel only grants windows every controller
// has promised to stay quiet for). The server folds temperature maxima at
// every sub-step boundary so the window cannot hide a hotter sample than
// its endpoints. Slot-i state only.
func (st *serverState) advance(dt float64, steps int) {
	st.winEnergy0 = float64(st.srv.Energy())
	st.winMaxCPUC, st.winMaxDIMMC, st.winMaxInlet = st.srv.MacroWindow(dt, steps)
}

// Step advances every server by dt seconds. The per-server work fans out
// over the bounded pool (slot-i contract); the rack-level reductions —
// simultaneous power peak and temperature maxima — run serially in index
// order afterwards, so aggregates are identical for every worker count.
func (r *Rack) Step(dt float64) {
	if dt <= 0 {
		return
	}
	r.argNow, r.argDt = r.clock, dt
	par.ForEach(len(r.servers), r.workers, r.stepFn)
	r.observe()
	// Integrate the post-step draws, mirroring the per-server energy
	// accounting (server.Step charges the breakdown taken after stepping).
	r.dcEnergyJ += r.lastDCW * dt
	r.wallEnergyJ += r.lastWallW * dt
	r.coolEnergyJ += r.lastCoolW * dt
	r.facEnergyJ += (r.lastWallW + r.lastCoolW) * dt
	r.clock += dt
	r.sampleReliability()
}

// TickControllers applies the dispatcher loads and runs every slot's fan
// controller for the decision instant `now`, exactly as the first half of
// Step does, without advancing any physics. The event-stepping kernel
// calls it at every wake step, then asks QuietHorizonCause how far the
// controllers allow the next Advance to reach.
func (r *Rack) TickControllers(now float64) {
	r.argNow = now
	par.ForEach(len(r.servers), r.workers, r.tickFn)
}

// QuietCause labels what bounded a QuietHorizonCause answer, for the event
// kernel's pin-reason attribution.
type QuietCause int

const (
	// QuietUnbounded: every controller is quiet until an input changes
	// (the horizon is +Inf).
	QuietUnbounded QuietCause = iota
	// QuietPromise: the nearest finite HorizonPromiser promise binds.
	QuietPromise
	// QuietNoPromiser: some controller does not implement
	// control.HorizonPromiser, collapsing the horizon to now+dt.
	QuietNoPromiser
)

// QuietHorizonCause returns the earliest simulation time at which some
// slot's fan controller could next need a Tick, queried immediately after
// TickControllers(now), and what bounded it. Controllers implementing
// control.HorizonPromiser are taken at their word; a slot with any other
// controller cannot promise anything beyond the current step, so the
// horizon collapses to now+dt — pinning the kernel to fixed-dt ticking,
// the reference semantics. +Inf means every controller is quiet until an
// input changes. A dark slot is skipped, as tick skips it: its controller
// does not run until power returns, and that fault edge is a decision step
// of its own. The scan is serial in slot index order, so the attributed
// cause — like the horizon itself — is identical for every worker count.
//
// A slot whose controller additionally implements control.BandPromiser —
// the reactive bang-bang policy — can push its promise past its own next
// decision instant: the rack verifies the controller's no-action band
// against the slot's predicted die-temperature trajectory
// (server.BandDecisionHorizon) and extends the horizon over every decision
// instant proven to stay in-band.
func (r *Rack) QuietHorizonCause(now, dt float64) (float64, QuietCause) {
	h := math.Inf(1)
	cause := QuietUnbounded
	for _, st := range r.servers {
		if st.ctrl == nil || !st.srv.Powered() {
			continue
		}
		hp, ok := st.ctrl.(control.HorizonPromiser)
		if !ok {
			return now + dt, QuietNoPromiser
		}
		if q := hp.QuietUntil(now); q < h {
			if bp, isBand := st.ctrl.(control.BandPromiser); isBand && q > now {
				q = bandQuiet(st, bp, now, dt, q)
			}
			if q < h {
				h = q
				cause = QuietPromise
			}
		}
		if h <= now+dt {
			return now + dt, QuietPromise
		}
	}
	return h, cause
}

// quietBandMaxChecks bounds the decision instants one band extension may
// verify: at the bang-bang 10 s period on the 1 s grid this spans a full
// hour-long trace, while capping the prediction work a single wake can
// spend.
const quietBandMaxChecks = 360

// bandQuiet extends slot st's base quiet promise through its controller's
// no-action band, returning base untouched whenever the extension is not
// provably exact: a withdrawn band, a decision lattice that does not sit
// on the step grid (the controller's catch-up could then diverge from the
// fixed-dt cadence), or a trajectory the thermal prediction cannot clear.
// With m instants verified in-band the kernel may sleep to the (m+1)-th.
func bandQuiet(st *serverState, bp control.BandPromiser, now, dt, base float64) float64 {
	next, period, lo, hi, ok := bp.QuietBand(now)
	if !ok || period <= 0 || next <= now {
		return base
	}
	first, ok1 := gridMultiple((next - now) / dt)
	stride, ok2 := gridMultiple(period / dt)
	if !ok1 || !ok2 {
		return base
	}
	m := st.srv.BandDecisionHorizon(dt, first, stride, quietBandMaxChecks, lo, hi)
	if m == 0 {
		return base
	}
	return next + float64(m)*period
}

// gridMultiple reports whether x is a positive integer within 1e-9
// relative tolerance, returning it when so.
func gridMultiple(x float64) (int, bool) {
	r := math.Round(x)
	if r < 1 || math.Abs(x-r) > 1e-9*math.Max(1, math.Abs(x)) {
		return 0, false
	}
	return int(r), true
}

// FansUnsettled reports whether any powered slot's fan bank is still
// slewing toward its command — the refinement that lets the kernel tell a
// fan-slew pin apart from an ordinary controller-holdoff pin when a quiet
// promise lands at the very next step.
func (r *Rack) FansUnsettled() bool {
	for _, st := range r.servers {
		if st.srv.Powered() && !st.srv.FansSettled() {
			return true
		}
	}
	return false
}

// Advance moves the whole rack through a macro window of `steps` fixed-dt
// steps without controller ticks: per-server closed-form macro-stepping
// fans out under the slot-i contract, then every rack-level reduction runs
// serially in index order, exactly like Step's. Energies are integrated
// from each server's closed-form window energy — the wall, cooling and
// facility meters see the window's mean DC draw lifted through the same
// PSU/PDU/CRAC chain as the per-step path (the chain's curvature over a
// window's sub-watt DC drift is far below the kernel's equivalence
// tolerance) — and the temperature maxima fold in every sub-step boundary
// sample collected inside the window.
//
// Advance(dt, 1) after TickControllers(now) costs one plain server.Step
// per slot and leaves every server in exactly the state Step(dt) would,
// bit for bit, bar the MacroStats counter that attributes the step; the
// instantaneous draws, peaks and maxima match too. The rack's energy
// meters agree only to rounding (~1e-15 relative): Step charges the
// endpoint DC draw, Advance the window mean ΔE/span — the same draw
// re-derived through each server's energy meter — lifted through the
// PSU/PDU/CRAC chain.
func (r *Rack) Advance(dt float64, steps int) {
	if dt <= 0 || steps <= 0 {
		return
	}
	r.argDt, r.argSteps = dt, steps
	par.ForEach(len(r.servers), r.workers, r.advFn)
	span := float64(steps) * dt
	var dcMeanW, acInMeanW float64
	for _, st := range r.servers {
		mean := (float64(st.srv.Energy()) - st.winEnergy0) / span
		dcMeanW += mean
		acInMeanW += st.psuCurve(mean)
		if st.winMaxCPUC > r.maxCPUC {
			r.maxCPUC = st.winMaxCPUC
		}
		if st.winMaxDIMMC > r.maxDIMMC {
			r.maxDIMMC = st.winMaxDIMMC
		}
		if st.winMaxInlet > r.maxInletC {
			r.maxInletC = st.winMaxInlet
		}
	}
	wallMeanW := r.pduIn(acInMeanW)
	coolMeanW := r.coolingPowerNow(wallMeanW)
	r.dcEnergyJ += dcMeanW * span
	r.wallEnergyJ += wallMeanW * span
	r.coolEnergyJ += coolMeanW * span
	r.facEnergyJ += (wallMeanW + coolMeanW) * span
	r.observe() // endpoint instantaneous draws and peak samples
	r.clock += span
	r.sampleReliability()
}

// DCPower returns the rack's instantaneous DC draw (Σ server power) at the
// most recent observation.
func (r *Rack) DCPower() units.Watts { return units.Watts(r.lastDCW) }

// WallPower returns the rack's instantaneous AC draw at the utility feed —
// the DC draw lifted through every slot's PSU and the shared PDU.
func (r *Rack) WallPower() units.Watts { return units.Watts(r.lastWallW) }

// CoolingPower returns the instantaneous CRAC+chiller power spent removing
// the rack's wall heat — exactly zero with no facility attached.
func (r *Rack) CoolingPower() units.Watts { return units.Watts(r.lastCoolW) }

// PUE returns the instantaneous power usage effectiveness — facility power
// over IT (wall) power. A rack drawing nothing, or one with no facility
// attached, reports exactly 1.
func (r *Rack) PUE() float64 {
	if r.lastWallW <= 0 || r.lastCoolW == 0 {
		return 1
	}
	return (r.lastWallW + r.lastCoolW) / r.lastWallW
}

// ServerDCPower returns server i's instantaneous DC draw.
func (r *Rack) ServerDCPower(i int) units.Watts {
	return r.servers[i].srv.Breakdown().Total()
}

// ServerWallPower returns the AC power server i draws from the PDU: its DC
// draw through its PSU (identical to the DC draw for an ideal supply). The
// PDU's own loss is a shared, rack-level quantity and is not attributed to
// individual slots.
func (r *Rack) ServerWallPower(i int) units.Watts {
	st := r.servers[i]
	return units.Watts(st.psuIn(float64(st.srv.Breakdown().Total())))
}

// WallPowerWithAll predicts the rack's wall draw if each server's DC load
// were higher by its entry of extraDC Watts (nil or short entries mean
// zero), all else unchanged — the what-if query behind power-capped
// placement. The capped trace runner passes the placements admitted
// earlier in the same step, whose power the physics has not drawn yet. It
// does not mutate state.
func (r *Rack) WallPowerWithAll(extraDC []units.Watts) units.Watts {
	var acInW float64
	for j, st := range r.servers {
		dc := float64(st.srv.Breakdown().Total())
		if j < len(extraDC) && extraDC[j] != 0 {
			acInW += st.psuCurve(dc + float64(extraDC[j]))
		} else {
			acInW += st.psuIn(dc)
		}
	}
	return units.Watts(r.pduIn(acInW))
}

// WallFloorSteps proves wall-cap deferrals ahead of time. It returns how
// many of the next maxSteps grid steps provably see a wall draw strictly
// above capW, however a placement charges one of the per-slot DC
// increments extraDC — the admission WallPowerWithAll makes for a single
// pending placement. A slot that cannot take the placement carries a +Inf
// increment.
//
// The claim holds for the plain fixed-dt steps the rack would take with
// every input at its current value: the loads, the fan commands, the
// delivery chain and the fault state, which only change at scheduling
// events. Each powered slot walks a floor on its hottest die
// (server.DieFloor); the floor's running minimum over a prefix of the
// steps gives a DC floor (server.DCAtDie) valid at every step of that
// prefix, and a dark slot draws nothing. The delivery chain is
// nondecreasing (power.PSUModel and PDUModel validate that), so the
// slots' PSU floors summed, plus the cheapest increment, lifted through
// the PDU, bound every such admission from below. The full walk is tried
// first; when it fails, the longest proven prefix is found by bisection —
// the floor only falls as the prefix grows.
//
// The walk each powered slot took is kept until the next call:
// FloorWalkView serves the telemetry it predicts at every proven step.
// It changes no simulation state and returns 0 whenever some slot cannot
// walk (see server.DieFloor).
func (r *Rack) WallFloorSteps(dt float64, maxSteps int, extraDC []units.Watts, capW float64) int {
	if maxSteps < 1 {
		return 0
	}
	if need := len(r.servers) * maxSteps; len(r.floorC) < need {
		r.floorC = make([]float64, need)
		r.walkC = make([]float64, need)
	}
	r.walkStride = maxSteps
	steps := maxSteps
	for i, st := range r.servers {
		if !st.srv.Powered() {
			continue
		}
		lo, hi := i*maxSteps, (i+1)*maxSteps
		row := r.floorC[lo:hi]
		if steps = st.srv.DieFloor(dt, steps, row, r.walkC[lo:hi]); steps == 0 {
			return 0
		}
		for j := 1; j < steps; j++ {
			row[j] = math.Min(row[j], row[j-1])
		}
	}
	if r.wallFloor(steps-1, maxSteps, extraDC) > capW {
		return steps
	}
	lo, hi := 0, steps // steps ≤ lo are proven, steps ≥ hi are not
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if r.wallFloor(mid-1, maxSteps, extraDC) > capW {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// wallFloor is the wall-draw floor over the first j+1 walked steps: the
// PSU floors of every slot at its running-minimum die floor, plus the
// cheapest per-slot increment, through the PDU.
func (r *Rack) wallFloor(j, stride int, extraDC []units.Watts) float64 {
	var acInW float64
	minInc := math.Inf(1)
	for i, st := range r.servers {
		dc := st.srv.DCAtDie(r.floorC[i*stride+j])
		w := st.psuCurve(dc)
		acInW += w
		if i < len(extraDC) {
			if inc := st.psuCurve(dc+float64(extraDC[i])) - w; inc < minInc {
				minInc = inc
			}
		}
	}
	return r.pduIn(acInW + minInc)
}

// FloorWalkView returns what powered slot i's telemetry reads after j+1
// grid steps of the walk the last WallFloorSteps call took: the walked
// hottest die, the DC draw at it (server.DCAtDie) and that draw through
// the slot's PSU, as ServerWallPower would lift it. These are the policy
// view's MaxCPUTemp, DCPower and WallPower at that step of the fixed-dt
// trajectory, up to the walk's linearization error. j must lie below the
// steps that call returned; a dark slot was not walked.
func (r *Rack) FloorWalkView(i, j int) (maxCPU units.Celsius, dc, wall units.Watts) {
	st := r.servers[i]
	die := r.walkC[i*r.walkStride+j]
	d := st.srv.DCAtDie(die)
	return units.Celsius(die), units.Watts(d), units.Watts(st.psuCurve(d))
}

// WallEnergyJoules returns the integrated wall-side (AC) energy meter in
// Joules since construction or the last ResetAccounting — the raw meter
// behind Telemetry.WallEnergyKWh. The room layer reads it at segment
// boundaries to derive each rack's mean wall draw across a macro window
// (meter delta over span), which is what the shared CRAC bank's energy
// accounting integrates.
func (r *Rack) WallEnergyJoules() float64 { return r.wallEnergyJ }

// StateSum folds the rack's continuous state into one plain sum: the
// instantaneous power aggregates plus every server's StateSum. Any NaN or
// Inf anywhere in the thermal, fan, or power state poisons the result, so
// a single finiteness check on it is a complete divergence probe — O(total
// nodes), far cheaper than a step. The sched kernels' divergence guard
// calls this after every advance.
func (r *Rack) StateSum() float64 {
	s := r.lastDCW + r.lastWallW + r.lastCoolW
	for _, st := range r.servers {
		s += st.srv.StateSum()
	}
	return s
}

// AddAmbientOffset shifts every server's ambient offset by delta,
// composing additively with any offsets already applied (fault heat soaks
// use the same mechanism). The room layer applies heat-recirculation inlet
// deltas through it, serially between steps — never concurrently with
// Step/Advance. A zero delta touches nothing, keeping an uncoupled room
// bit-identical to independently stepped racks.
func (r *Rack) AddAmbientOffset(delta units.Celsius) {
	if delta == 0 {
		return
	}
	for _, st := range r.servers {
		st.srv.SetAmbientOffset(st.srv.AmbientOffset() + delta)
	}
}

// ResetAccounting zeroes every server's energy/peak meters and the rack
// aggregates — the start of a measured experiment window.
func (r *Rack) ResetAccounting() {
	for _, st := range r.servers {
		st.srv.ResetAccounting()
		st.fanChanges = 0
	}
	r.dcEnergyJ = 0
	r.wallEnergyJ = 0
	r.coolEnergyJ = 0
	r.facEnergyJ = 0
	if r.relEvery > 0 {
		// Fresh traces: a checkpoint may share the old arrays (Snapshot).
		for i := range r.relSamples {
			r.relSamples[i] = nil
		}
		r.relNext = r.clock + r.relEvery
	}
	r.resetPeaks()
}

// Telemetry is the rack-level aggregate view.
type Telemetry struct {
	Servers int

	TotalEnergyKWh float64 // Σ server energy since last reset
	FanEnergyKWh   float64 // Σ separately metered fan energy
	PeakPowerW     float64 // highest simultaneous whole-rack power
	MaxCPUTempC    float64 // hottest die seen on any server
	MaxDIMMTempC   float64 // hottest DIMM seen on any server
	MaxInletC      float64 // hottest CPU inlet air seen on any server
	FanChanges     int     // Σ controller-commanded fan-speed changes
	Tripped        int     // servers whose thermal protection engaged
	Failed         int     // servers currently dark (fault.PSUFail)

	// Wall-side (AC) accounting through the PSU/PDU delivery chain. With
	// an ideal chain (no PSUs, no PDU) the wall energy equals the DC
	// energy and the loss is exactly zero.
	WallEnergyKWh  float64 // AC energy drawn at the utility feed
	LossEnergyKWh  float64 // conversion losses: wall minus DC energy
	PeakWallPowerW float64 // highest simultaneous wall draw

	// Facility-side accounting past the wall (CRAC blower + chiller). With
	// no facility attached the cooling energy is exactly zero, the
	// facility energy equals the wall energy, and PUE is exactly 1.
	CoolingEnergyKWh   float64 // CRAC+chiller energy removing the wall heat
	FacilityEnergyKWh  float64 // wall + cooling energy: the total bill
	PUE                float64 // facility energy over wall energy (≥ 1)
	PeakFacilityPowerW float64 // highest simultaneous facility draw

	// Reliability roll-up from the sampled hottest-die traces
	// (Config.ReliabilitySampleEvery > 0; exactly zero otherwise, keeping
	// a sampling-off rack bit-identical to one without the feature).
	WorstAccel    float64 // highest per-server mean Arrhenius acceleration
	WorstAbove75  float64 // highest per-server fraction of samples > 75 °C
	CyclingDamage float64 // Σ per-server Coffin-Manson damage
}

// Telemetry aggregates the rack in server-index order (deterministic
// floating-point summation).
func (r *Rack) Telemetry() Telemetry {
	tel := Telemetry{
		Servers:            len(r.servers),
		PeakPowerW:         r.peakPowerW,
		MaxCPUTempC:        r.maxCPUC,
		MaxDIMMTempC:       r.maxDIMMC,
		MaxInletC:          r.maxInletC,
		WallEnergyKWh:      units.Joules(r.wallEnergyJ).KWh(),
		LossEnergyKWh:      units.Joules(r.wallEnergyJ - r.dcEnergyJ).KWh(),
		PeakWallPowerW:     r.peakWallW,
		CoolingEnergyKWh:   units.Joules(r.coolEnergyJ).KWh(),
		FacilityEnergyKWh:  units.Joules(r.facEnergyJ).KWh(),
		PeakFacilityPowerW: r.peakFacW,
		PUE:                1,
	}
	if r.wallEnergyJ > 0 && r.coolEnergyJ != 0 {
		tel.PUE = r.facEnergyJ / r.wallEnergyJ
	}
	for _, st := range r.servers {
		tel.TotalEnergyKWh += st.srv.Energy().KWh()
		tel.FanEnergyKWh += st.srv.FanEnergy().KWh()
		tel.FanChanges += st.fanChanges
		if st.srv.Tripped() {
			tel.Tripped++
		}
		if !st.srv.Powered() {
			tel.Failed++
		}
	}
	if r.relEvery > 0 && len(r.relSamples) > 0 && len(r.relSamples[0]) > 0 {
		for i := range r.servers {
			rep, err := reliability.Analyze(r.relSamples[i])
			if err != nil {
				continue
			}
			if rep.Acceleration > tel.WorstAccel {
				tel.WorstAccel = rep.Acceleration
			}
			if rep.TimeAbove75 > tel.WorstAbove75 {
				tel.WorstAbove75 = rep.TimeAbove75
			}
			tel.CyclingDamage += rep.CyclingDamage
		}
	}
	return tel
}

func maxC(xs []units.Celsius) units.Celsius {
	m := units.Celsius(-1e9)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
