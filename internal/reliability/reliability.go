// Package reliability quantifies the thermal-reliability consequences of a
// fan-control policy — the concern behind the paper's 75 °C operational
// cap ("for reliability purposes [7] we target a maximum operational
// temperature of 75 °C") and its observation that wide bang-bang bands
// create "higher fan speeds and larger thermal cycles".
//
// Two standard models are implemented:
//
//   - Arrhenius acceleration of steady-state wear-out: the failure rate
//     scales as exp(-Ea/kT); AccelerationFactor reports the average rate
//     relative to operation at a reference temperature.
//   - Coffin-Manson thermal cycling: interconnect fatigue damage grows as
//     ΔT^q per cycle; cycles are extracted from a temperature trace with a
//     three-point rainflow-style reduction.
package reliability

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Boltzmann constant in eV/K.
const boltzmannEV = 8.617e-5

// ArrheniusConfig parameterizes the wear-out model.
type ArrheniusConfig struct {
	ActivationEV float64       // activation energy, typically 0.7 eV for electromigration
	ReferenceC   units.Celsius // temperature at which the factor is 1
}

// DefaultArrhenius uses 0.7 eV against a 55 °C reference, typical for
// electromigration analyses of server silicon.
func DefaultArrhenius() ArrheniusConfig {
	return ArrheniusConfig{ActivationEV: 0.7, ReferenceC: 55}
}

// Factor returns the instantaneous failure-rate acceleration at temp
// relative to the reference (>1 = aging faster than reference).
func (c ArrheniusConfig) Factor(temp units.Celsius) float64 {
	tK := float64(temp) + 273.15
	refK := float64(c.ReferenceC) + 273.15
	if tK <= 0 || refK <= 0 {
		return math.NaN()
	}
	return math.Exp(c.ActivationEV / boltzmannEV * (1/refK - 1/tK))
}

// AccelerationFactor integrates the Arrhenius factor over a sampled
// temperature trace (uniform sampling assumed) and returns the average.
func (c ArrheniusConfig) AccelerationFactor(tempsC []float64) (float64, error) {
	if len(tempsC) == 0 {
		return 0, fmt.Errorf("reliability: empty temperature trace")
	}
	var sum float64
	for _, t := range tempsC {
		sum += c.Factor(units.Celsius(t))
	}
	return sum / float64(len(tempsC)), nil
}

// Cycle is one extracted thermal cycle.
type Cycle struct {
	AmplitudeC float64 // peak-to-peak ΔT
	MeanC      float64
}

// ExtractCycles reduces a temperature trace to thermal cycles using a
// three-point rainflow-style pass: the trace is first compressed to its
// turning points, then successive min-max pairs are emitted as cycles.
// Cycles smaller than minAmplitude are ignored (sensor noise).
func ExtractCycles(tempsC []float64, minAmplitude float64) []Cycle {
	if len(tempsC) < 3 {
		return nil
	}
	// Compress to turning points.
	var turns []float64
	for i, t := range tempsC {
		if i == 0 || i == len(tempsC)-1 {
			turns = append(turns, t)
			continue
		}
		prev, next := tempsC[i-1], tempsC[i+1]
		if (t > prev && t >= next) || (t < prev && t <= next) {
			turns = append(turns, t)
		}
	}
	// Three-point reduction: whenever |b-c| <= |a-b| for consecutive
	// turning points a,b,c, the pair (b,c) forms a cycle and is removed.
	var cycles []Cycle
	stack := make([]float64, 0, len(turns))
	emit := func(a, b float64) {
		amp := math.Abs(a - b)
		if amp >= minAmplitude {
			cycles = append(cycles, Cycle{AmplitudeC: amp, MeanC: (a + b) / 2})
		}
	}
	for _, t := range turns {
		stack = append(stack, t)
		for len(stack) >= 3 {
			n := len(stack)
			a, b, c := stack[n-3], stack[n-2], stack[n-1]
			if math.Abs(c-b) < math.Abs(b-a) {
				break
			}
			emit(a, b)
			stack = append(stack[:n-3], c)
		}
	}
	// Remaining alternations count as half-cycles; emit them as cycles so
	// a monotone ramp still registers once.
	for i := 1; i < len(stack); i++ {
		emit(stack[i-1], stack[i])
	}
	return cycles
}

// CoffinMansonConfig parameterizes cycling fatigue.
type CoffinMansonConfig struct {
	Exponent     float64 // q, typically 2-3 for solder joints
	ReferenceDT  float64 // ΔT at which one cycle contributes damage 1
	MinAmplitude float64 // ignore cycles below this ΔT
}

// DefaultCoffinManson uses q=2.35 against a 20 °C reference swing.
func DefaultCoffinManson() CoffinMansonConfig {
	return CoffinMansonConfig{Exponent: 2.35, ReferenceDT: 20, MinAmplitude: 2}
}

// Damage accumulates normalized fatigue damage over a temperature trace:
// each extracted cycle contributes (ΔT/ReferenceDT)^q.
func (c CoffinMansonConfig) Damage(tempsC []float64) float64 {
	if c.ReferenceDT <= 0 {
		return math.NaN()
	}
	var damage float64
	for _, cyc := range ExtractCycles(tempsC, c.MinAmplitude) {
		damage += math.Pow(cyc.AmplitudeC/c.ReferenceDT, c.Exponent)
	}
	return damage
}

// Report summarizes the reliability exposure of one controller run.
type Report struct {
	MeanTempC     float64
	MaxTempC      float64
	TimeAbove75   float64 // fraction of samples above 75 °C
	Acceleration  float64 // mean Arrhenius factor vs 55 °C
	ThermalCycles int
	CyclingDamage float64 // normalized Coffin-Manson damage
}

// Analyze produces a Report from a sampled temperature trace.
func Analyze(tempsC []float64) (Report, error) {
	if len(tempsC) == 0 {
		return Report{}, fmt.Errorf("reliability: empty temperature trace")
	}
	arr := DefaultArrhenius()
	cm := DefaultCoffinManson()
	var r Report
	r.MaxTempC = math.Inf(-1)
	above := 0
	for _, t := range tempsC {
		r.MeanTempC += t
		if t > r.MaxTempC {
			r.MaxTempC = t
		}
		if t > 75 {
			above++
		}
	}
	r.MeanTempC /= float64(len(tempsC))
	r.TimeAbove75 = float64(above) / float64(len(tempsC))
	accel, err := arr.AccelerationFactor(tempsC)
	if err != nil {
		return Report{}, err
	}
	r.Acceleration = accel
	cycles := ExtractCycles(tempsC, cm.MinAmplitude)
	r.ThermalCycles = len(cycles)
	r.CyclingDamage = cm.Damage(tempsC)
	return r, nil
}
