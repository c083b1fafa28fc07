// Package loadgen reimplements the paper's LoadGen: a dynamic load-synthesis
// tool that reaches any target CPU utilization by duty-cycling between 100%
// and idle at fine granularity (PWM), spreading the load evenly across all
// cores.
//
// A Generator combines a Profile — the target utilization as a function of
// time — with the PWM mechanism. The PWM is what produces the thermal
// oscillations visible in Fig. 1(b) of the paper.
package loadgen

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Profile yields the target utilization at simulation time t (seconds).
type Profile interface {
	// Target returns the desired utilization at time t.
	Target(t float64) units.Percent
	// Duration returns the length of the profile in seconds (0 = unbounded).
	Duration() float64
}

// Generator drives a load sink (the simulated server) with PWM so that the
// average utilization over each PWM period equals the profile target.
type Generator struct {
	profile Profile
	period  float64 // PWM period, seconds
	pwm     bool    // false = apply target directly (ideal averaging)
}

// Option configures a Generator.
type Option func(*Generator)

// WithPWMPeriod sets the duty-cycle period (default 30 s, producing the
// paper's visible thermal oscillations).
func WithPWMPeriod(seconds float64) Option {
	return func(g *Generator) { g.period = seconds }
}

// WithoutPWM applies the target utilization directly instead of
// duty-cycling; useful for controller tests that do not care about
// oscillation.
func WithoutPWM() Option {
	return func(g *Generator) { g.pwm = false }
}

// New builds a Generator for a profile.
func New(p Profile, opts ...Option) (*Generator, error) {
	if p == nil {
		return nil, fmt.Errorf("loadgen: nil profile")
	}
	g := &Generator{profile: p, period: 30, pwm: true}
	for _, o := range opts {
		o(g)
	}
	if g.period <= 0 {
		return nil, fmt.Errorf("loadgen: PWM period must be positive, got %g", g.period)
	}
	return g, nil
}

// Load returns the instantaneous utilization the generator applies at time
// t. With PWM enabled the machine is either flat out (100%) or idle within
// each period; the duty fraction equals the profile target.
func (g *Generator) Load(t float64) units.Percent {
	target := g.profile.Target(t).Clamp()
	if !g.pwm {
		return target
	}
	duty := target.Fraction()
	phase := math.Mod(t, g.period) / g.period
	if phase < duty {
		return 100
	}
	return 0
}

// ---------------------------------------------------------------------------
// Profiles

// Constant holds a fixed utilization forever (or for Dur seconds).
type Constant struct {
	Level units.Percent
	Dur   float64
}

// Target implements Profile.
func (c Constant) Target(float64) units.Percent { return c.Level.Clamp() }

// Duration implements Profile.
func (c Constant) Duration() float64 { return c.Dur }

// Step is one segment of a piecewise-constant profile.
type Step struct {
	Start float64 // seconds from profile start
	Level units.Percent
}

// Steps is a piecewise-constant profile built from ordered segments.
type Steps struct {
	steps []Step
	dur   float64
}

// NewSteps validates and builds a step profile lasting dur seconds. Steps
// must be ordered by start time, beginning at or before 0.
func NewSteps(dur float64, steps ...Step) (*Steps, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("loadgen: step profile needs at least one step")
	}
	if dur <= 0 {
		return nil, fmt.Errorf("loadgen: step profile duration must be positive, got %g", dur)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].Start <= steps[i-1].Start {
			return nil, fmt.Errorf("loadgen: steps not strictly ordered at %d", i)
		}
	}
	if steps[0].Start > 0 {
		return nil, fmt.Errorf("loadgen: first step must start at t<=0, got %g", steps[0].Start)
	}
	return &Steps{steps: steps, dur: dur}, nil
}

// Target implements Profile.
func (s *Steps) Target(t float64) units.Percent {
	level := s.steps[0].Level
	for _, st := range s.steps {
		if st.Start <= t {
			level = st.Level
		} else {
			break
		}
	}
	return level.Clamp()
}

// Duration implements Profile.
func (s *Steps) Duration() float64 { return s.dur }

// Ramp linearly interpolates utilization between breakpoints.
type Ramp struct {
	times  []float64
	levels []float64
	dur    float64
}

// NewRamp builds a piecewise-linear profile through (times[i], levels[i]).
func NewRamp(times []float64, levels []units.Percent) (*Ramp, error) {
	if len(times) != len(levels) || len(times) < 2 {
		return nil, fmt.Errorf("loadgen: ramp needs >=2 matching breakpoints")
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return nil, fmt.Errorf("loadgen: ramp times not increasing at %d", i)
		}
	}
	r := &Ramp{dur: times[len(times)-1]}
	for i := range times {
		r.times = append(r.times, times[i])
		r.levels = append(r.levels, float64(levels[i].Clamp()))
	}
	return r, nil
}

// Target implements Profile.
func (r *Ramp) Target(t float64) units.Percent {
	if t <= r.times[0] {
		return units.Percent(r.levels[0])
	}
	if t >= r.times[len(r.times)-1] {
		return units.Percent(r.levels[len(r.levels)-1])
	}
	for i := 1; i < len(r.times); i++ {
		if t <= r.times[i] {
			f := (t - r.times[i-1]) / (r.times[i] - r.times[i-1])
			return units.Percent(r.levels[i-1] + f*(r.levels[i]-r.levels[i-1]))
		}
	}
	return units.Percent(r.levels[len(r.levels)-1])
}

// Duration implements Profile.
func (r *Ramp) Duration() float64 { return r.dur }

// Square alternates between two levels with the given half-period.
type Square struct {
	High, Low  units.Percent
	HalfPeriod float64
	Dur        float64
}

// Target implements Profile.
func (s Square) Target(t float64) units.Percent {
	if s.HalfPeriod <= 0 {
		return s.High.Clamp()
	}
	if int(math.Floor(t/s.HalfPeriod))%2 == 0 {
		return s.High.Clamp()
	}
	return s.Low.Clamp()
}

// Duration implements Profile.
func (s Square) Duration() float64 { return s.Dur }

// Trace plays back an explicit utilization trace sampled at fixed intervals.
type Trace struct {
	dt     float64
	levels []float64
}

// NewTrace builds a trace profile with samples dt seconds apart.
func NewTrace(dt float64, levels []units.Percent) (*Trace, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("loadgen: trace dt must be positive")
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("loadgen: empty trace")
	}
	tr := &Trace{dt: dt}
	for _, l := range levels {
		tr.levels = append(tr.levels, float64(l.Clamp()))
	}
	return tr, nil
}

// Target implements Profile.
func (tr *Trace) Target(t float64) units.Percent {
	if t < 0 {
		return units.Percent(tr.levels[0])
	}
	i := int(t / tr.dt)
	if i >= len(tr.levels) {
		i = len(tr.levels) - 1
	}
	return units.Percent(tr.levels[i])
}

// Duration implements Profile.
func (tr *Trace) Duration() float64 { return float64(len(tr.levels)) * tr.dt }
