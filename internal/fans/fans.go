// Package fans models the cooling subsystem of the simulated server: six
// fans arranged in three rows of two, each pair driven by its own external
// power supply, exactly as in the paper's experimental setup (Section III).
//
// The physical fans cannot jump between speeds instantaneously; a slew-rate
// limit models spin-up/spin-down. A fan can be forced into a "stuck" fault
// state for failure-injection experiments (an extension beyond the paper).
package fans

import (
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/units"
)

// Fan models a single fan unit.
type Fan struct {
	actual   units.RPM // current physical speed
	target   units.RPM
	minRPM   units.RPM
	maxRPM   units.RPM
	slewRate float64 // RPM per second toward the target
	law      power.FanLaw
	stuck    bool
}

// Config describes the fan population of a server.
type Config struct {
	Pairs      int       // number of fan pairs (paper: 3)
	MinRPM     units.RPM // lowest commanded speed (paper: 1800)
	MaxRPM     units.RPM // highest commanded speed (paper: 4200)
	InitialRPM units.RPM // speed at power-on (paper protocol: 3600)
	SlewRate   float64   // RPM/s a fan can change (default 600)
	BankCoeff  float64   // cubic coefficient for the WHOLE bank, W/RPM³
}

// DefaultConfig returns the paper's fan arrangement with the calibrated
// cubic coefficient.
func DefaultConfig() Config {
	return Config{
		Pairs:      3,
		MinRPM:     1800,
		MaxRPM:     4200,
		InitialRPM: 3600,
		SlewRate:   600,
		BankCoeff:  3.5e-10,
	}
}

// Bank is the set of fan pairs plus their supplies.
type Bank struct {
	fans   []*Fan
	cfg    Config
	perFan power.FanLaw

	// meanValid/powerValid cache MeanRPM and Power between speed changes:
	// the server layer asks for both every simulation step while the fans
	// only move in Step. The cached values are the same summations, just
	// not repeated.
	meanValid  bool
	meanRPM    units.RPM
	powerValid bool
	powerW     units.Watts

	// settled is true while every healthy fan sits exactly at its target,
	// making Step a no-op; commanding a new speed clears it.
	settled bool
}

// NewBank constructs a bank from cfg. It validates the configuration.
func NewBank(cfg Config) (*Bank, error) {
	if cfg.Pairs <= 0 {
		return nil, fmt.Errorf("fans: need at least one pair, got %d", cfg.Pairs)
	}
	if cfg.MinRPM <= 0 || cfg.MaxRPM <= cfg.MinRPM {
		return nil, fmt.Errorf("fans: bad RPM range [%v, %v]", cfg.MinRPM, cfg.MaxRPM)
	}
	if cfg.SlewRate <= 0 {
		cfg.SlewRate = 600
	}
	init := units.ClampRPM(cfg.InitialRPM, cfg.MinRPM, cfg.MaxRPM)
	n := cfg.Pairs * 2
	b := &Bank{
		cfg:    cfg,
		perFan: power.FanLaw{Coeff: cfg.BankCoeff / float64(n)},
	}
	for i := 0; i < n; i++ {
		b.fans = append(b.fans, &Fan{
			actual:   init,
			target:   init,
			minRPM:   cfg.MinRPM,
			maxRPM:   cfg.MaxRPM,
			slewRate: cfg.SlewRate,
			law:      b.perFan,
		})
	}
	return b, nil
}

// NumFans returns the number of individual fans.
func (b *Bank) NumFans() int { return len(b.fans) }

// SetAll commands every pair to the same speed, the mode the paper's
// experiments use ("we set the same fan speed for all three pairs").
// The command is clamped to the legal range.
func (b *Bank) SetAll(r units.RPM) {
	for i := range b.fans {
		b.setFan(i, r)
	}
}

func (b *Bank) setFan(i int, r units.RPM) {
	f := b.fans[i]
	if f.stuck {
		return
	}
	f.target = units.ClampRPM(r, f.minRPM, f.maxRPM)
	if f.target != f.actual {
		b.settled = false
	}
}

// Settled reports whether every healthy fan sits exactly at its commanded
// target, making Step a no-op for any dt. The thermal macro-stepping
// kernel uses this as an eligibility gate: while a fan is slewing, the
// airflow conductances move every step and the system is not
// time-invariant, so the server pins itself to plain fixed-dt steps until
// the bank settles.
func (b *Bank) Settled() bool { return b.settled }

// Step advances fan physics by dt seconds: each fan slews toward its target.
func (b *Bank) Step(dt float64) {
	if dt <= 0 || b.settled {
		return
	}
	b.meanValid = false
	b.powerValid = false
	b.settled = true
	for _, f := range b.fans {
		if f.stuck {
			continue
		}
		delta := float64(f.target - f.actual)
		maxMove := f.slewRate * dt
		switch {
		case math.Abs(delta) <= maxMove:
			f.actual = f.target
		case delta > 0:
			f.actual += units.RPM(maxMove)
		default:
			f.actual -= units.RPM(maxMove)
		}
		if f.actual != f.target {
			b.settled = false
		}
	}
}

// Power returns the electrical power drawn by the whole bank right now.
// This is the quantity the paper's external supplies make separately
// measurable.
func (b *Bank) Power() units.Watts {
	if b.powerValid {
		return b.powerW
	}
	var total units.Watts
	for _, f := range b.fans {
		total += f.law.Power(f.actual)
	}
	b.powerW = total
	b.powerValid = true
	return total
}

// MeanRPM returns the average actual speed across fans.
func (b *Bank) MeanRPM() units.RPM {
	if len(b.fans) == 0 {
		return 0
	}
	if b.meanValid {
		return b.meanRPM
	}
	var s float64
	for _, f := range b.fans {
		s += float64(f.actual)
	}
	b.meanRPM = units.RPM(s / float64(len(b.fans)))
	b.meanValid = true
	return b.meanRPM
}

// Target returns the commanded speed of the first healthy fan (the bank is
// normally commanded uniformly).
func (b *Bank) Target() units.RPM {
	for _, f := range b.fans {
		if !f.stuck {
			return f.target
		}
	}
	if len(b.fans) > 0 {
		return b.fans[0].target
	}
	return 0
}

// StickFan freezes fan i at its current speed (fault injection). Commands to
// a stuck fan are ignored until UnstickFan.
func (b *Bank) StickFan(i int) error {
	if i < 0 || i >= len(b.fans) {
		return fmt.Errorf("fans: fan %d out of range", i)
	}
	b.fans[i].stuck = true
	return nil
}

// FailFan spins fan i down to zero and latches it there — an outright
// failure, unlike StickFan's freeze-at-current-speed: a failed fan moves no
// air and draws no power. Commands are ignored until UnstickFan, which lets
// the fan slew back to its commanded target.
func (b *Bank) FailFan(i int) error {
	if i < 0 || i >= len(b.fans) {
		return fmt.Errorf("fans: fan %d out of range", i)
	}
	b.fans[i].stuck = true
	b.fans[i].actual = 0
	b.meanValid = false
	b.powerValid = false
	return nil
}

// UnstickFan clears the fault on fan i.
func (b *Bank) UnstickFan(i int) error {
	if i < 0 || i >= len(b.fans) {
		return fmt.Errorf("fans: fan %d out of range", i)
	}
	b.fans[i].stuck = false
	// The fan may have drifted from its target while frozen; let Step slew
	// it again.
	b.settled = false
	return nil
}

// Spindown drops every fan to zero immediately — host power loss, not a
// commanded speed — and marks the bank unsettled so that, once the host is
// powered again and Step runs, the fans slew back to their targets.
func (b *Bank) Spindown() {
	for _, f := range b.fans {
		f.actual = 0
	}
	b.meanValid = false
	b.powerValid = false
	b.settled = false
}

// Range returns the legal command range.
func (b *Bank) Range() (lo, hi units.RPM) { return b.cfg.MinRPM, b.cfg.MaxRPM }
