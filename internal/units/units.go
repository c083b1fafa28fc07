// Package units defines the physical quantity types shared across the
// simulator, the controllers and the experiment harness.
//
// All quantities are thin float64 wrappers. They exist so that a CPU
// temperature cannot be accidentally passed where a fan speed is expected,
// and so that formatting is uniform across reports.
package units

import "fmt"

// Celsius is a temperature in degrees Celsius.
type Celsius float64

// Watts is an instantaneous power.
type Watts float64

// Joules is an energy.
type Joules float64

// RPM is a fan rotational speed in revolutions per minute.
type RPM float64

// Percent is a utilization level in [0, 100].
type Percent float64

// GramsPerSecond is an air mass flow.
type GramsPerSecond float64

// KWh converts an energy to kilowatt-hours, the unit used by Table I of the
// paper.
func (j Joules) KWh() float64 { return float64(j) / 3.6e6 }

// Energy accumulates power over a time step of dt seconds.
func Energy(p Watts, dtSeconds float64) Joules { return Joules(float64(p) * dtSeconds) }

func (c Celsius) String() string { return fmt.Sprintf("%.2f°C", float64(c)) }
func (w Watts) String() string   { return fmt.Sprintf("%.2fW", float64(w)) }
func (r RPM) String() string     { return fmt.Sprintf("%.0fRPM", float64(r)) }
func (p Percent) String() string { return fmt.Sprintf("%.1f%%", float64(p)) }

// Clamp limits p to the valid utilization range [0, 100].
func (p Percent) Clamp() Percent {
	if p < 0 {
		return 0
	}
	if p > 100 {
		return 100
	}
	return p
}

// Fraction returns the utilization as a fraction in [0, 1].
func (p Percent) Fraction() float64 { return float64(p.Clamp()) / 100 }

// FromFraction builds a Percent from a [0, 1] fraction.
func FromFraction(f float64) Percent { return Percent(f * 100).Clamp() }

// ClampRPM limits r to [lo, hi].
func ClampRPM(r, lo, hi RPM) RPM {
	if r < lo {
		return lo
	}
	if r > hi {
		return hi
	}
	return r
}
