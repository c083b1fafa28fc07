package room

import (
	"fmt"
	"math"

	"repro/internal/cooling"
	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/rack"
	"repro/internal/units"
)

// DefaultExhaustRiseCPerKW is the default exhaust-air temperature rise per
// kilowatt of rack wall draw — a 10 kW rack running ~12 °C hotter out the
// back than in the front, the airflow regime racks in the shipped
// experiments operate in.
const DefaultExhaustRiseCPerKW = 1.2

// RackSpec configures one rack of the room.
type RackSpec struct {
	Name string
	// Config is the rack's own configuration. Its Facility must be nil —
	// the room owns the cooling loop (Config.Facility) — and its Workers
	// value is overridden to 1: the room fans out over racks, so the inner
	// per-server loop runs serially on the fan-out job's goroutine (nested
	// pools would multiply goroutines without adding parallelism).
	Config rack.Config
}

// Config parameterizes a Room.
type Config struct {
	Racks []RackSpec
	// Workers bounds the per-rack step fan-out: ≤ 0 means GOMAXPROCS, 1 is
	// the serial reference path the parallel runs are tested against.
	Workers int
	// Recirc, when non-nil, is the heat-recirculation coupling (see
	// Matrix): rack i's exhaust rise raises rack j's inlet by W[i][j]·ΔT_i,
	// re-anchored serially after every barrier. nil — or an all-zero
	// matrix — applies no offsets at all, keeping every rack bit-identical
	// to independent stepping.
	Recirc *Matrix
	// ExhaustRiseCPerKW converts a rack's wall draw into its exhaust
	// temperature rise: ΔT_i = ExhaustRiseCPerKW · wallW_i / 1000. Zero
	// picks DefaultExhaustRiseCPerKW.
	ExhaustRiseCPerKW float64
	// Facility, when non-nil, is the shared CRAC bank: room heat — the sum
	// of every rack's wall draw — is removed by one CRAC/chiller (optionally
	// economizer) chain, its COP evaluated once at the room load, and the
	// CRAC setpoint's ambient delta shifts every server in every rack. nil
	// means no facility: cooling power exactly zero, PUE exactly 1, server
	// ambients untouched.
	Facility *cooling.Facility
}

// Room is N racks stepped in lockstep behind a shared cooling loop. See
// the package comment for the two-level determinism contract.
type Room struct {
	racks   []*rack.Rack
	names   []string
	workers int

	w          *Matrix
	coupled    bool // w has at least one non-zero entry
	riseCPerKW float64
	rowSums    []float64
	offsets    []float64 // currently applied recirc inlet offset per rack, °C
	exhaust    []float64 // scratch: per-rack exhaust rise at the last anchor

	fac   *cooling.Facility
	clock float64

	// Segment scratch: per-rack wall meters at segment start, and the
	// per-rack instantaneous wall draw at the last observation.
	wallE0   []float64
	lastWall []float64

	// Room-level meters, integrated serially after every barrier. heatJ is
	// the independently integrated room heat (Σ rack wall meter deltas);
	// cool/fac follow the shared facility at the segment's mean load.
	heatJ, coolJ, facJ float64
	lastWallW          float64
	lastCoolW          float64
	peakWallW          float64
	peakFacW           float64
	maxRecircC         float64

	// Facility-scope fault state for the shared bank, mirroring the rack's:
	// any active CRAC outage darkens the whole bank.
	cracOut       int
	chillerDerate float64

	// Prebuilt fixed-step fan-out closure (see rack.Rack's field comment).
	argDt  float64
	stepFn func(i int)
}

// New builds a room, constructing every rack from its spec. With a shared
// facility attached, the CRAC setpoint's ambient delta is applied to every
// server configuration in every rack before construction — the same
// well-mixed cold-aisle contract rack.New implements for a single rack.
func New(cfg Config) (*Room, error) {
	n := len(cfg.Racks)
	if n == 0 {
		return nil, fmt.Errorf("room: need at least one rack")
	}
	if cfg.Recirc != nil {
		if err := cfg.Recirc.Validate(); err != nil {
			return nil, err
		}
		if cfg.Recirc.Size() != n {
			return nil, fmt.Errorf("room: recirculation matrix is %d×%d but the room has %d racks",
				cfg.Recirc.Size(), cfg.Recirc.Size(), n)
		}
	}
	var delta units.Celsius
	if cfg.Facility != nil {
		if err := cfg.Facility.Validate(); err != nil {
			return nil, fmt.Errorf("room: facility: %w", err)
		}
		delta = cfg.Facility.AmbientDelta()
	}
	rise := cfg.ExhaustRiseCPerKW
	if rise == 0 {
		rise = DefaultExhaustRiseCPerKW
	}
	if rise < 0 || math.IsNaN(rise) || math.IsInf(rise, 0) {
		return nil, fmt.Errorf("room: exhaust rise must be a finite non-negative °C/kW, got %g", cfg.ExhaustRiseCPerKW)
	}
	rm := &Room{
		workers:    cfg.Workers,
		w:          cfg.Recirc,
		coupled:    !cfg.Recirc.IsZero(),
		riseCPerKW: rise,
		fac:        cfg.Facility,
		rowSums:    make([]float64, n),
		offsets:    make([]float64, n),
		exhaust:    make([]float64, n),
		wallE0:     make([]float64, n),
		lastWall:   make([]float64, n),
	}
	for i, spec := range cfg.Racks {
		rc := spec.Config
		if rc.Facility != nil {
			return nil, fmt.Errorf("room: rack %d attaches its own facility; the room owns the cooling loop (Config.Facility)", i)
		}
		rc.Workers = 1
		if delta != 0 {
			servers := make([]rack.ServerSpec, len(rc.Servers))
			copy(servers, rc.Servers)
			for k := range servers {
				servers[k].Config = servers[k].Config.ShiftAmbient(delta)
			}
			rc.Servers = servers
		}
		rk, err := rack.New(rc)
		if err != nil {
			return nil, fmt.Errorf("room: rack %d (%s): %w", i, spec.Name, err)
		}
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("rack%02d", i)
		}
		rm.racks = append(rm.racks, rk)
		rm.names = append(rm.names, name)
		if cfg.Recirc != nil {
			rm.rowSums[i] = cfg.Recirc.RowSum(i)
		}
	}
	rm.stepFn = func(i int) { rm.racks[i].Step(rm.argDt) }
	rm.observeEndpoint()
	return rm, nil
}

// NumRacks returns the number of racks in the room.
func (rm *Room) NumRacks() int { return len(rm.racks) }

// Rack returns rack i for fine-grained inspection or direct driving in
// tests. Mutating a rack concurrently with Room.Step is a data race.
func (rm *Room) Rack(i int) *rack.Rack { return rm.racks[i] }

// Now returns seconds of room stepping since construction. Racks driven
// directly (bypassing the room) do not advance this clock.
func (rm *Room) Now() float64 { return rm.clock }

// RecircOffsetC returns the recirculation inlet offset currently applied
// to rack i, in °C — zero in an uncoupled room.
func (rm *Room) RecircOffsetC(i int) float64 { return rm.offsets[i] }

// TripRisk reports whether any rack has a live slot inside the trip-guard
// band (see rack.TripRisk) — the room kernel's global single-step pin.
func (rm *Room) TripRisk() bool {
	for _, rk := range rm.racks {
		if rk.TripRisk() {
			return true
		}
	}
	return false
}

// Step advances every rack by dt seconds: the per-rack work — each rack's
// own serial per-server loop — fans out over the bounded pool (rack-i
// contract), then every room-level reduction and the recirculation
// re-anchor run serially in rack-index order.
func (rm *Room) Step(dt float64) {
	if dt <= 0 {
		return
	}
	rm.beginSegment()
	rm.argDt = dt
	par.ForEach(len(rm.racks), rm.workers, rm.stepFn)
	rm.endSegment(dt, 1)
}

// beginSegment captures every rack's wall meter so endSegment can derive
// the segment's heat from meter deltas — exact for both the per-step and
// the macro-window rack paths.
func (rm *Room) beginSegment() {
	for i, rk := range rm.racks {
		rm.wallE0[i] = rk.WallEnergyJoules()
	}
}

// endSegment runs the serial post-barrier phase of a segment spanning
// `steps` grid steps of dt: room energy integration (heat from rack wall
// meter deltas; cooling from the shared bank at the segment's mean room
// load), endpoint peak sampling, the room clock, and the recirculation
// re-anchor.
func (rm *Room) endSegment(dt float64, steps int) {
	span := dt * float64(steps)
	var heatSegJ float64
	for i, rk := range rm.racks {
		heatSegJ += rk.WallEnergyJoules() - rm.wallE0[i]
	}
	coolMeanW := rm.coolingPowerNow(heatSegJ / span)
	rm.heatJ += heatSegJ
	rm.coolJ += coolMeanW * span
	rm.facJ += heatSegJ + coolMeanW*span
	rm.observeEndpoint()
	rm.clock += span
	rm.reanchorRecirc()
}

// observeEndpoint samples the instantaneous per-rack and room wall draws
// and folds the power peaks — the endpoint observation both segment paths
// share with construction and accounting resets.
func (rm *Room) observeEndpoint() {
	var wallW float64
	for i, rk := range rm.racks {
		w := float64(rk.WallPower())
		rm.lastWall[i] = w
		wallW += w
	}
	rm.lastWallW = wallW
	rm.lastCoolW = rm.coolingPowerNow(wallW)
	if wallW > rm.peakWallW {
		rm.peakWallW = wallW
	}
	if fac := wallW + rm.lastCoolW; fac > rm.peakFacW {
		rm.peakFacW = fac
	}
}

// reanchorRecirc recomputes every rack's recirculation inlet offset from
// the racks' instantaneous exhaust rises and applies the changes as
// ambient-offset deltas, serially in rack-index order. An uncoupled room
// returns immediately without touching any rack — the W = 0 bit-identity
// contract.
func (rm *Room) reanchorRecirc() {
	if !rm.coupled {
		return
	}
	for i := range rm.racks {
		rm.exhaust[i] = rm.riseCPerKW * rm.lastWall[i] / 1000
	}
	for j := range rm.racks {
		var off float64
		for i := range rm.racks {
			off += rm.w.W[i][j] * rm.exhaust[i]
		}
		if off > rm.maxRecircC {
			rm.maxRecircC = off
		}
		if d := off - rm.offsets[j]; d != 0 {
			rm.racks[j].AddAmbientOffset(units.Celsius(d))
			rm.offsets[j] = off
		}
	}
}

// coolingPowerNow is the shared bank's cooling power at the given room
// heat under the current facility-scope fault state: exactly zero with no
// facility or while any CRAC outage is active, derated by the summed
// chiller degradation otherwise.
func (rm *Room) coolingPowerNow(wallW float64) float64 {
	if rm.fac == nil || rm.cracOut > 0 {
		return 0
	}
	if rm.chillerDerate > 0 {
		return rm.fac.CoolingPowerDerated(wallW, rm.chillerDerate)
	}
	return rm.fac.CoolingPower(wallW)
}

// ApplyFault injects one fault event into rack rackIdx. Server-scope kinds
// delegate to the rack unchanged. The facility-scope kinds act on the
// room's shared bank — any active CRACOutage darkens it (cooling power
// exactly zero) and ChillerDegraded severities sum into its derate — while
// the outage's ambient heat soak still lands on the targeted rack's
// servers; a room-wide outage is modelled by scheduling the event against
// every rack (the outage count nests). An edge that would take the
// shared chiller derate to 1 or more errors and changes nothing.
func (rm *Room) ApplyFault(rackIdx int, ev fault.Event) error {
	if rackIdx < 0 || rackIdx >= len(rm.racks) {
		return fmt.Errorf("room: fault targets rack %d of %d", rackIdx, len(rm.racks))
	}
	if ev.Kind == fault.ChillerDegraded {
		// The shared bank sums every rack's derates: refuse the edge before
		// the rack applies it, so an error changes nothing.
		if d := rm.chillerDerate + degradeSeverity(ev); d >= 1 {
			return fmt.Errorf("room: %s on rack %d would stack the shared chiller derates to %g; they must sum below 1", ev, rackIdx, d)
		}
	}
	if err := rm.racks[rackIdx].ApplyFault(ev); err != nil {
		return err
	}
	switch ev.Kind {
	case fault.CRACOutage:
		rm.cracOut++
	case fault.ChillerDegraded:
		rm.chillerDerate += degradeSeverity(ev)
	}
	return nil
}

// ClearFault undoes ApplyFault for the same event.
func (rm *Room) ClearFault(rackIdx int, ev fault.Event) error {
	if rackIdx < 0 || rackIdx >= len(rm.racks) {
		return fmt.Errorf("room: fault targets rack %d of %d", rackIdx, len(rm.racks))
	}
	if err := rm.racks[rackIdx].ClearFault(ev); err != nil {
		return err
	}
	switch ev.Kind {
	case fault.CRACOutage:
		rm.cracOut--
	case fault.ChillerDegraded:
		rm.chillerDerate -= degradeSeverity(ev)
	}
	return nil
}

// degradeSeverity resolves a ChillerDegraded severity, zero picking the
// documented default (mirroring the rack's resolution).
func degradeSeverity(ev fault.Event) float64 {
	if ev.Severity == 0 {
		return fault.DefaultPSUDroop
	}
	return ev.Severity
}

// ResetAccounting zeroes every rack's meters and the room aggregates — the
// start of a measured experiment window. The recirculation offsets are
// physical state, not accounting, and persist across the reset (their
// high-water meter restarts from the currently applied offsets).
func (rm *Room) ResetAccounting() {
	for _, rk := range rm.racks {
		rk.ResetAccounting()
	}
	rm.heatJ, rm.coolJ, rm.facJ = 0, 0, 0
	rm.peakWallW, rm.peakFacW = 0, 0
	rm.maxRecircC = 0
	for _, off := range rm.offsets {
		if off > rm.maxRecircC {
			rm.maxRecircC = off
		}
	}
	rm.observeEndpoint()
}

// Telemetry is the room-level aggregate view: rack telemetry summed (and
// maxima folded) in rack-index order, plus the room's own shared-facility
// and recirculation meters.
type Telemetry struct {
	Racks   int
	Servers int

	TotalEnergyKWh float64 // Σ rack DC energy since last reset
	FanEnergyKWh   float64 // Σ rack fan energy
	WallEnergyKWh  float64 // Σ rack wall (AC) energy
	LossEnergyKWh  float64 // Σ rack conversion losses
	PeakPowerW     float64 // highest simultaneous room DC draw is not tracked; peak wall is
	MaxCPUTempC    float64 // hottest die in the room
	MaxDIMMTempC   float64 // hottest DIMM in the room
	MaxInletC      float64 // hottest inlet in the room
	FanChanges     int
	Tripped        int
	Failed         int

	// Room-level shared-facility accounting. RoomHeatKWh is integrated
	// independently from the rack wall meters' segment deltas; energy
	// conservation — RoomHeatKWh == WallEnergyKWh to float reordering — is
	// a tested property, not a definition.
	RoomHeatKWh        float64
	CoolingEnergyKWh   float64
	FacilityEnergyKWh  float64
	PUE                float64 // facility energy over room heat (≥ 1)
	PeakWallPowerW     float64 // highest simultaneous room wall draw
	PeakFacilityPowerW float64 // highest simultaneous wall + cooling draw

	// MaxRecircOffsetC is the worst recirculation inlet offset any rack saw
	// since the last reset — zero in an uncoupled room.
	MaxRecircOffsetC float64
}

// Telemetry aggregates the room in rack-index order.
func (rm *Room) Telemetry() Telemetry {
	tel := Telemetry{
		Racks:              len(rm.racks),
		MaxCPUTempC:        -1e9,
		MaxDIMMTempC:       -1e9,
		MaxInletC:          -1e9,
		RoomHeatKWh:        units.Joules(rm.heatJ).KWh(),
		CoolingEnergyKWh:   units.Joules(rm.coolJ).KWh(),
		FacilityEnergyKWh:  units.Joules(rm.facJ).KWh(),
		PeakWallPowerW:     rm.peakWallW,
		PeakFacilityPowerW: rm.peakFacW,
		PUE:                1,
		MaxRecircOffsetC:   rm.maxRecircC,
	}
	for _, rk := range rm.racks {
		rt := rk.Telemetry()
		tel.Servers += rt.Servers
		tel.TotalEnergyKWh += rt.TotalEnergyKWh
		tel.FanEnergyKWh += rt.FanEnergyKWh
		tel.WallEnergyKWh += rt.WallEnergyKWh
		tel.LossEnergyKWh += rt.LossEnergyKWh
		if rt.PeakPowerW > tel.PeakPowerW {
			tel.PeakPowerW = rt.PeakPowerW
		}
		if rt.MaxCPUTempC > tel.MaxCPUTempC {
			tel.MaxCPUTempC = rt.MaxCPUTempC
		}
		if rt.MaxDIMMTempC > tel.MaxDIMMTempC {
			tel.MaxDIMMTempC = rt.MaxDIMMTempC
		}
		if rt.MaxInletC > tel.MaxInletC {
			tel.MaxInletC = rt.MaxInletC
		}
		tel.FanChanges += rt.FanChanges
		tel.Tripped += rt.Tripped
		tel.Failed += rt.Failed
	}
	if rm.heatJ > 0 && rm.coolJ != 0 {
		tel.PUE = rm.facJ / rm.heatJ
	}
	return tel
}
