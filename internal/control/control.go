// Package control implements the paper's three fan-control policies:
//
//   - Default: the stock server behaviour, fans pinned near 3300 RPM
//     regardless of load — the over-cooling baseline of Table I.
//   - BangBang: temperature-threshold control with five actions on the
//     60/65/75/80 °C thresholds (Section V), reacting *after* thermal
//     events.
//   - LUT: the paper's contribution — utilization-indexed optimal fan
//     speed, polled every second, proactive, with a 60 s minimum interval
//     between fan speed changes for stability and fan reliability.
//
// Controllers are pure decision functions driven by Observations; a Runner
// in internal/experiments wires them to the simulated server. This keeps
// every policy unit-testable without a server.
//
// All three shipped controllers also implement HorizonPromiser, the
// opt-in contract the event-driven kernel (internal/sched) builds macro
// windows from. BangBang — reactive, so it can never promise quiet from
// its inputs alone — promises its own decision cadence (ticks strictly
// before the next due instant are non-mutating no-ops) and additionally
// implements BandPromiser: it publishes the temperature band [TLow,
// THigh] inside which a due decision provably changes nothing, and the
// kernel extends the promise across every future decision instant whose
// predicted observation stays inside the band (server.BandDecisionHorizon
// does the thermal forecasting).
package control

import (
	"fmt"
	"math"

	"repro/internal/lut"
	"repro/internal/units"
)

// Observation is what a controller may see at a decision instant. The LUT
// controller uses only Utilization (it is proactive); the bang-bang
// controller uses only MaxCPUTemp (it is reactive); Default uses nothing.
type Observation struct {
	Now         float64 // simulation seconds
	Utilization units.Percent
	MaxCPUTemp  units.Celsius
	CurrentRPM  units.RPM // currently commanded speed
}

// Decision is a controller's output for one tick.
type Decision struct {
	Target  units.RPM
	Changed bool // true when the controller wants a new speed
}

// Controller decides fan speeds from observations. Tick is called on every
// simulation step; controllers implement their own polling cadence
// internally (1 s for LUT, 10 s CSTH period for bang-bang).
type Controller interface {
	Name() string
	Tick(obs Observation) Decision
	// Reset clears internal state so a controller can be reused across runs.
	Reset()
}

// HorizonPromiser is the opt-in contract behind event-driven macro-stepping
// (internal/sched): a controller that can bound its own next decision.
//
// QuietUntil is queried immediately after a Tick at simulation time now and
// returns a time H ≥ now promising that — provided every observed input
// (utilization, commanded fan speed) stays constant and no external actor
// moves the fans — any Tick at a time in (now, H) would return
// Changed=false, and skipping those Ticks entirely leaves all future
// decisions unchanged. math.Inf(1) means "quiet until an input changes";
// the kernel re-ticks on every input change (a scheduling event) anyway.
//
// Controllers whose decisions depend on observations that evolve between
// scheduling events — the bang-bang policy thresholds on die temperature,
// which moves every step — can promise at most their own decision cadence
// through this interface alone (BangBang promises its nextDue: ticks
// strictly before it are non-mutating no-ops under any observation). To
// promise *past* a decision instant they additionally implement
// BandPromiser, handing the kernel the observation band within which the
// pending decisions would take no action; the kernel then verifies the
// band against the predicted thermal trajectory before extending the
// window. A controller implementing neither pins the kernel to one Tick
// per fixed-dt step, which is exactly the reference semantics.
//
// One caveat is inherited from the poll-grid collapse: a promiser's
// internal poll anchor (LUT's nextPoll) goes stale across a skipped window
// and re-anchors at the wake tick. With PollPeriod ≤ dt — the paper's 1 s
// poll at the experiments' 1 s step — every step polls in both modes and
// the collapse is exact; with a sparser poll the first decision after a
// hold-off may land up to one PollPeriod earlier than under fixed-dt.
// (BangBang instead re-anchors to its own decision lattice — see the
// catch-up in its Tick — so its skipped instants stay aligned with the
// fixed-dt cadence whenever the lattice lands on the grid.)
type HorizonPromiser interface {
	QuietUntil(now float64) float64
}

// BandPromiser extends HorizonPromiser for periodic reactive controllers:
// QuietBand, queried immediately after a Tick at time now, describes the
// decisions the controller has already committed to pending instants. It
// returns the time of the next decision instant, the spacing of the
// instants after it, and the closed observation band [lo, hi] (either side
// may be infinite) such that a decision instant observing
// MaxCPUTemp ∈ [lo, hi] provably changes nothing — neither the commanded
// speed nor any internal state that could alter a later decision. ok=false
// withdraws the band (no extension past the base QuietUntil promise).
//
// The kernel owns the other half of the bargain: it may skip a decision
// instant only after verifying, against the predicted thermal trajectory
// (server.BandDecisionHorizon), that the instant's observation falls
// inside the band with margin for sensor noise — and it must wake the
// controller at or before the first unverified instant. Skipped in-band
// instants are reconstructed by the controller's own lattice catch-up, so
// the decision cadence matches fixed-dt exactly when period and offset sit
// on the step grid (the kernel refuses band extensions otherwise).
type BandPromiser interface {
	HorizonPromiser
	QuietBand(now float64) (next, period float64, lo, hi units.Celsius, ok bool)
}

// ---------------------------------------------------------------------------
// Default controller

// Default pins the fans at a fixed speed, mimicking the server's stock
// behaviour ("the baseline setting keeps the fans rotating close to a fixed
// speed of 3300 RPM").
type Default struct {
	RPM units.RPM
	set bool
}

// NewDefault returns the stock policy at the paper's 3300 RPM.
func NewDefault() *Default { return &Default{RPM: 3300} }

// Name implements Controller.
func (d *Default) Name() string { return "Default" }

// Reset implements Controller.
func (d *Default) Reset() { d.set = false }

// Tick implements Controller: one initial command, then nothing.
func (d *Default) Tick(obs Observation) Decision {
	if !d.set {
		d.set = true
		if obs.CurrentRPM == d.RPM {
			return Decision{Target: d.RPM, Changed: false}
		}
		return Decision{Target: d.RPM, Changed: true}
	}
	return Decision{Target: d.RPM, Changed: false}
}

// QuietUntil implements HorizonPromiser: after the initial command the
// stock policy never changes speed again, under any inputs.
func (d *Default) QuietUntil(now float64) float64 {
	if !d.set {
		return now
	}
	return math.Inf(1)
}

// ---------------------------------------------------------------------------
// Bang-bang controller

// BangBangConfig holds the five-action thresholds of Section V.
type BangBangConfig struct {
	Period    float64       // decision period; paper: the 10 s CSTH cadence
	TLowFloor units.Celsius // below this → minimum speed (paper: 60)
	TLow      units.Celsius // below this → step down (paper: 65)
	THigh     units.Celsius // above this → step up (paper: 75)
	TPanic    units.Celsius // above this → maximum speed (paper: 80)
	StepRPM   units.RPM     // step size (paper: 600)
	MinRPM    units.RPM
	MaxRPM    units.RPM
}

// DefaultBangBang returns the paper's thresholds.
func DefaultBangBang() BangBangConfig {
	return BangBangConfig{
		Period:    10,
		TLowFloor: 60,
		TLow:      65,
		THigh:     75,
		TPanic:    80,
		StepRPM:   600,
		MinRPM:    1800,
		MaxRPM:    4200,
	}
}

// Validate reports configuration errors.
func (c BangBangConfig) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("control: bang-bang period must be positive")
	}
	if !(c.TLowFloor < c.TLow && c.TLow < c.THigh && c.THigh < c.TPanic) {
		return fmt.Errorf("control: bang-bang thresholds must be ordered: %v < %v < %v < %v",
			c.TLowFloor, c.TLow, c.THigh, c.TPanic)
	}
	if c.StepRPM <= 0 || c.MinRPM <= 0 || c.MaxRPM <= c.MinRPM {
		return fmt.Errorf("control: bad bang-bang RPM parameters")
	}
	return nil
}

// BangBang is the reactive thermal controller.
type BangBang struct {
	cfg     BangBangConfig
	nextDue float64
	started bool
	// lastRPM is the speed observed by the most recent Tick — the anchor of
	// the quiet band's clamp widening (QuietBand): at the rail, further
	// steps in that direction clamp to no-change.
	lastRPM units.RPM
}

// NewBangBang builds the controller, validating cfg.
func NewBangBang(cfg BangBangConfig) (*BangBang, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &BangBang{cfg: cfg}, nil
}

// Name implements Controller.
func (b *BangBang) Name() string { return "Bang-bang" }

// Reset implements Controller.
func (b *BangBang) Reset() { b.nextDue = 0; b.started = false; b.lastRPM = 0 }

// Tick implements the five actions of Section V:
//  1. Tmax < 60 °C → lowest speed;
//  2. 60–65 °C → lower by 600 RPM;
//  3. 65–75 °C → no action;
//  4. >75 °C → raise by 600 RPM;
//  5. >80 °C → maximum speed.
func (b *BangBang) Tick(obs Observation) Decision {
	if !b.started {
		b.started = true
		b.nextDue = obs.Now
	}
	b.lastRPM = obs.CurrentRPM
	if obs.Now < b.nextDue {
		return Decision{Target: obs.CurrentRPM}
	}
	if obs.Now >= b.nextDue+b.cfg.Period {
		// Lattice catch-up for the event kernel's band extension: under
		// per-step ticking (dt ≤ Period) a due decision fires within one
		// period of coming due, so this branch only runs when whole
		// decision instants were skipped — instants the kernel verified as
		// in-band no-actions. Replaying them advances nextDue exactly as
		// the skipped no-action Ticks would have (the kernel only skips
		// instants sitting on the step grid, where fixed-dt decides at the
		// due times themselves), and if the wake lands *between* lattice
		// points the decision is not yet due again.
		for b.nextDue < obs.Now {
			b.nextDue += b.cfg.Period
		}
		if obs.Now < b.nextDue {
			return Decision{Target: obs.CurrentRPM}
		}
	}
	b.nextDue = obs.Now + b.cfg.Period

	cur := obs.CurrentRPM
	target := cur
	switch {
	case obs.MaxCPUTemp > b.cfg.TPanic:
		target = b.cfg.MaxRPM
	case obs.MaxCPUTemp > b.cfg.THigh:
		target = cur + b.cfg.StepRPM
	case obs.MaxCPUTemp < b.cfg.TLowFloor:
		target = b.cfg.MinRPM
	case obs.MaxCPUTemp < b.cfg.TLow:
		target = cur - b.cfg.StepRPM
	}
	target = units.ClampRPM(target, b.cfg.MinRPM, b.cfg.MaxRPM)
	return Decision{Target: target, Changed: target != cur}
}

// QuietUntil implements HorizonPromiser with the controller's own decision
// cadence: a Tick strictly before nextDue returns the commanded speed
// unchanged and mutates nothing, under any observation — so the promise is
// sound regardless of how the die temperature moves meanwhile.
func (b *BangBang) QuietUntil(now float64) float64 {
	if !b.started || b.nextDue <= now {
		return now
	}
	return b.nextDue
}

// QuietBand implements BandPromiser: pending decision instants sit at
// nextDue + j·Period, and an instant observing MaxCPUTemp ∈ [lo, hi] takes
// no action. The base band is [TLow, THigh] (the strict-inequality
// no-action case 3 of Section V); at a rail it widens to infinity on the
// clamped side — at MinRPM both "minimum speed" and "step down" commands
// clamp to the current speed, and symmetrically at MaxRPM — since the
// thresholds are strictly ordered, so the panic and floor actions are
// subsumed by their clamps.
func (b *BangBang) QuietBand(now float64) (next, period float64, lo, hi units.Celsius, ok bool) {
	if !b.started || b.nextDue <= now {
		return 0, 0, 0, 0, false
	}
	lo, hi = b.cfg.TLow, b.cfg.THigh
	if b.lastRPM <= b.cfg.MinRPM {
		lo = units.Celsius(math.Inf(-1))
	}
	if b.lastRPM >= b.cfg.MaxRPM {
		hi = units.Celsius(math.Inf(1))
	}
	return b.nextDue, b.cfg.Period, lo, hi, true
}

// ---------------------------------------------------------------------------
// LUT controller

// LUTConfig parameterizes the paper's proactive controller.
type LUTConfig struct {
	PollPeriod float64 // utilization polling period (paper: 1 s)
	HoldOff    float64 // minimum seconds between RPM changes (paper: 60 s)
	// Hysteresis, if positive, requires the utilization to move by at least
	// this many percentage points from the value that chose the current
	// speed before a new lookup can change it. An extension beyond the
	// paper (ablated in the benchmarks); 0 reproduces the paper.
	Hysteresis units.Percent
}

// DefaultLUT returns the paper's 1 s polling / 60 s hold-off.
func DefaultLUT() LUTConfig {
	return LUTConfig{PollPeriod: 1, HoldOff: 60}
}

// Validate reports configuration errors.
func (c LUTConfig) Validate() error {
	if c.PollPeriod <= 0 {
		return fmt.Errorf("control: LUT poll period must be positive")
	}
	if c.HoldOff < 0 {
		return fmt.Errorf("control: LUT hold-off must be non-negative")
	}
	if c.Hysteresis < 0 {
		return fmt.Errorf("control: LUT hysteresis must be non-negative")
	}
	return nil
}

// LUT is the utilization-driven proactive controller.
type LUT struct {
	cfg      LUTConfig
	table    *lut.Table
	nextPoll float64
	holdTill float64
	lastUtil units.Percent
	haveLast bool
	started  bool
	// quietUntil is the horizon promise computed by the last Tick: the
	// earliest future time a Tick could command a change assuming the
	// observed utilization stays constant (see HorizonPromiser).
	quietUntil float64
}

// NewLUT builds the controller around a prepared table.
func NewLUT(table *lut.Table, cfg LUTConfig) (*LUT, error) {
	if table == nil || len(table.Entries) == 0 {
		return nil, fmt.Errorf("control: LUT controller needs a non-empty table")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &LUT{cfg: cfg, table: table}, nil
}

// Name implements Controller.
func (l *LUT) Name() string { return "LUT" }

// Reset implements Controller.
func (l *LUT) Reset() {
	l.nextPoll = 0
	l.holdTill = 0
	l.haveLast = false
	l.started = false
	l.quietUntil = 0
}

// Tick implements the paper's policy: poll utilization every second, look
// up the optimal speed, and apply it immediately — but after any change,
// refuse further changes for HoldOff seconds ("we do not allow RPM changes
// for 1 minute after each RPM update").
func (l *LUT) Tick(obs Observation) Decision {
	if !l.started {
		l.started = true
		l.nextPoll = obs.Now
		l.holdTill = obs.Now
	}
	if obs.Now < l.nextPoll {
		l.quietUntil = l.nextPoll
		return Decision{Target: obs.CurrentRPM}
	}
	l.nextPoll = obs.Now + l.cfg.PollPeriod

	if obs.Now < l.holdTill {
		// Blocked by the hold-off: the first poll at or after holdTill may
		// act on utilization that changed meanwhile.
		l.quietUntil = l.holdTill
		return Decision{Target: obs.CurrentRPM}
	}
	if l.cfg.Hysteresis > 0 && l.haveLast {
		d := obs.Utilization - l.lastUtil
		if d < 0 {
			d = -d
		}
		if d < l.cfg.Hysteresis {
			// Hysteresis blocks until the utilization moves — an input
			// change, which re-ticks the controller anyway.
			l.quietUntil = math.Inf(1)
			return Decision{Target: obs.CurrentRPM}
		}
	}
	target, err := l.table.Lookup(obs.Utilization)
	if err != nil || target == obs.CurrentRPM {
		// The table already agrees with the commanded speed (or will keep
		// failing identically): under constant utilization every future
		// poll repeats this outcome.
		l.quietUntil = math.Inf(1)
		return Decision{Target: obs.CurrentRPM}
	}
	l.holdTill = obs.Now + l.cfg.HoldOff
	l.lastUtil = obs.Utilization
	l.haveLast = true
	// Under constant inputs the next poll would find target == current, but
	// promising only up to the hold-off expiry is cheap and keeps the
	// kernel re-checking right when a mid-hold-off load change first
	// becomes actionable.
	l.quietUntil = l.holdTill
	return Decision{Target: target, Changed: true}
}

// QuietUntil implements HorizonPromiser; see the interface contract. It
// reflects the promise computed by the most recent Tick.
func (l *LUT) QuietUntil(now float64) float64 {
	if !l.started || l.quietUntil < now {
		return now
	}
	return l.quietUntil
}
