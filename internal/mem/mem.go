// Package mem models the 32-DIMM memory subsystem of the simulated server.
//
// The paper's airflow path matters: cold air crosses the DIMMs before it
// reaches the CPUs, so memory power both heats the DIMMs and preheats the
// CPU inlet air. Each DIMM temperature follows a first-order lag toward an
// airflow-dependent equilibrium; the bank also reports the inlet-air
// preheat the server model applies to the CPU boundary.
package mem

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Config parameterizes the DIMM bank.
type Config struct {
	NumDIMMs   int     // paper: 32 × 8 GB
	IdlePower  float64 // W for the whole bank at zero utilization
	DynPerUtil float64 // W per percentage point of utilization (whole bank)
	// RBase and RFlow define the per-DIMM thermal resistance
	// R(RPM) = RBase + RFlow/RPM (°C/W).
	RBase, RFlow float64
	TimeConstant float64 // s, first-order DIMM lag
	// SpreadFactor staggers equilibrium temps along the airflow direction:
	// downstream DIMMs sit in slightly warmer air.
	SpreadFactor float64
	// CouplingFrac is the fraction of DIMM heat that ends up preheating the
	// CPU inlet air.
	CouplingFrac float64
	// AirflowPerRPM converts fan speed to air mass flow (g/s per RPM).
	AirflowPerRPM float64
	AirCp         float64 // J/(g·°C), specific heat of air
}

// Validate reports configuration errors. NewBank and every stateless
// steady-state query (server.SteadyTemp) go through it, so an invalid
// airflow model fails loudly instead of silently saturating the preheat.
func (c Config) Validate() error {
	if c.NumDIMMs <= 0 {
		return fmt.Errorf("mem: need at least one DIMM, got %d", c.NumDIMMs)
	}
	if c.TimeConstant <= 0 {
		return fmt.Errorf("mem: time constant must be positive, got %g", c.TimeConstant)
	}
	if c.AirflowPerRPM <= 0 || c.AirCp <= 0 {
		return fmt.Errorf("mem: airflow parameters must be positive")
	}
	return nil
}

// Power returns the whole-bank memory power at utilization u. It depends
// only on the configuration, so steady-state predictors can evaluate it
// without instantiating a Bank.
func (c Config) Power(u units.Percent) units.Watts {
	return units.Watts(c.IdlePower + c.DynPerUtil*float64(u.Clamp()))
}

// Airflow returns the air mass flow at the given fan speed.
func (c Config) Airflow(r units.RPM) units.GramsPerSecond {
	v := float64(r)
	if v < 0 {
		v = 0
	}
	return units.GramsPerSecond(c.AirflowPerRPM * v)
}

// InletPreheat returns the temperature rise of the CPU inlet air caused by
// DIMM heat at utilization u and fan speed r. Like Power it is a pure
// function of the configuration: server.SteadyTemp and lut.Build call it
// directly instead of building a throwaway Bank per query.
func (c Config) InletPreheat(u units.Percent, r units.RPM) units.Celsius {
	flow := float64(c.Airflow(r))
	if flow <= 0 {
		// No airflow: cap the preheat at a large but finite value.
		return 15
	}
	dt := c.CouplingFrac * float64(c.Power(u)) / (c.AirCp * flow)
	if dt > 15 {
		dt = 15
	}
	return units.Celsius(dt)
}

// DefaultConfig returns the calibrated 32-DIMM bank.
func DefaultConfig() Config {
	return Config{
		NumDIMMs:     32,
		IdlePower:    40,
		DynPerUtil:   0.86,
		RBase:        2.0,
		RFlow:        6000,
		TimeConstant: 60,
		SpreadFactor: 0.15,
		// 0.4 of DIMM heat preheats the CPU inlet: calibrated so the
		// 1800 RPM / 100% utilization operating point settles at ~85 °C
		// (Fig. 1a anchor) instead of running away.
		CouplingFrac:  0.4,
		AirflowPerRPM: 0.012,
		AirCp:         1.005,
	}
}

// Bank is the runtime DIMM state.
type Bank struct {
	cfg   Config
	temps []float64

	// Cached roll-ups of temps, so MaxTemp and TempSum are O(1) reads: the
	// server, the rack observation and the divergence guard ask for them
	// several times per step. Every writer of temps — NewBank, Step, StepN,
	// Settle, SetState — must refresh both, with the same scan MaxTemp and
	// TempSum would run: a > comparison from −Inf (NaN skipped) and a plain
	// index-order sum (NaN poisons it).
	maxTemp float64
	tempSum float64

	// first-order lag coefficient cache: alpha = 1 - e^(-dt/τ) for the last
	// step size seen. Experiments step with a fixed dt, so this saves one
	// math.Exp per step.
	alphaDt  float64
	alphaVal float64

	// rowFrac[i] = i / NumDIMMs, the airflow position of DIMM i, hoisted
	// out of the per-step loop.
	rowFrac []float64

	// Memo of the last InletPreheat evaluation: the server asks for the
	// preheat at the same (utilization, fan speed) twice per step — once
	// for the CPU inlet boundary, once inside the DIMM equilibrium.
	phValid bool
	phU     units.Percent
	phR     units.RPM
	phVal   units.Celsius
}

// NewBank builds a bank in equilibrium with the given ambient temperature.
func NewBank(cfg Config, ambient units.Celsius) (*Bank, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &Bank{
		cfg:     cfg,
		temps:   make([]float64, cfg.NumDIMMs),
		rowFrac: make([]float64, cfg.NumDIMMs),
	}
	for i := range b.temps {
		b.temps[i] = float64(ambient)
		b.rowFrac[i] = float64(i) / float64(cfg.NumDIMMs-1+1)
	}
	b.refreshRollups()
	return b, nil
}

// Power returns the whole-bank memory power at utilization u.
func (b *Bank) Power(u units.Percent) units.Watts { return b.cfg.Power(u) }

// InletPreheat returns the temperature rise of the CPU inlet air caused by
// the DIMM bank heat at utilization u and fan speed r.
func (b *Bank) InletPreheat(u units.Percent, r units.RPM) units.Celsius {
	if b.phValid && u == b.phU && r == b.phR {
		return b.phVal
	}
	v := b.inletPreheat(u, r)
	b.phValid, b.phU, b.phR, b.phVal = true, u, r, v
	return v
}

func (b *Bank) inletPreheat(u units.Percent, r units.RPM) units.Celsius {
	return b.cfg.InletPreheat(u, r)
}

// eqTerms returns the parts of the per-DIMM equilibrium that do not depend
// on the DIMM index: the conductive rise above ambient and the inlet
// preheat scale. equilibrium(i) = ambient + preheat·SpreadFactor·row_i·2 +
// rth·perDIMM, and only row_i varies across the bank, so one evaluation
// serves all 32 DIMMs.
func (b *Bank) eqTerms(u units.Percent, r units.RPM) (rise, preheat float64) {
	perDIMM := float64(b.Power(u)) / float64(b.cfg.NumDIMMs)
	rpm := float64(r)
	if rpm < 1 {
		rpm = 1
	}
	rth := b.cfg.RBase + b.cfg.RFlow/rpm
	return rth * perDIMM, float64(b.InletPreheat(u, r))
}

// equilibrium returns the steady temperature of DIMM i.
func (b *Bank) equilibrium(i int, ambient units.Celsius, u units.Percent, r units.RPM) float64 {
	rise, preheat := b.eqTerms(u, r)
	return b.eqAt(i, ambient, rise, preheat)
}

// eqAt combines precomputed terms with the index-dependent airflow
// position: downstream DIMMs (higher index) see warmer air.
func (b *Bank) eqAt(i int, ambient units.Celsius, rise, preheat float64) float64 {
	return float64(ambient) + preheat*b.cfg.SpreadFactor*b.rowFrac[i]*2 + rise
}

// Step advances DIMM temperatures by dt seconds with first-order lag toward
// the current equilibrium for the given conditions. The shared equilibrium
// terms are hoisted out of the DIMM loop and the lag coefficient is cached
// per step size, so one step is ~N fused multiply-adds.
func (b *Bank) Step(dt float64, ambient units.Celsius, u units.Percent, r units.RPM) {
	if dt <= 0 {
		return
	}
	if dt != b.alphaDt {
		b.alphaDt = dt
		b.alphaVal = 1 - math.Exp(-dt/b.cfg.TimeConstant)
	}
	alpha := b.alphaVal
	rise, preheat := b.eqTerms(u, r)
	m, sum := math.Inf(-1), 0.0
	for i := range b.temps {
		eq := b.eqAt(i, ambient, rise, preheat)
		b.temps[i] += alpha * (eq - b.temps[i])
		v := b.temps[i]
		if v > m {
			m = v
		}
		sum += v
	}
	b.maxTemp, b.tempSum = m, sum
}

// StepN advances DIMM temperatures by n consecutive Step(dt, …) calls with
// the conditions held constant, in closed form: n applications of the
// first-order lag T += α·(eq−T) compose to T = eq + (1−α)ⁿ·(T−eq), so one
// call stands in for the whole run — the memory half of a thermal
// macro-step. Identical to the n-fold loop up to float rounding (the lag is
// a pure geometric contraction toward a constant equilibrium).
func (b *Bank) StepN(dt float64, n int, ambient units.Celsius, u units.Percent, r units.RPM) {
	if dt <= 0 || n <= 0 {
		return
	}
	if n == 1 {
		b.Step(dt, ambient, u, r)
		return
	}
	if dt != b.alphaDt {
		b.alphaDt = dt
		b.alphaVal = 1 - math.Exp(-dt/b.cfg.TimeConstant)
	}
	shrink := math.Pow(1-b.alphaVal, float64(n))
	rise, preheat := b.eqTerms(u, r)
	m, sum := math.Inf(-1), 0.0
	for i := range b.temps {
		eq := b.eqAt(i, ambient, rise, preheat)
		b.temps[i] = eq + shrink*(b.temps[i]-eq)
		v := b.temps[i]
		if v > m {
			m = v
		}
		sum += v
	}
	b.maxTemp, b.tempSum = m, sum
}

// Temp returns DIMM i's temperature.
func (b *Bank) Temp(i int) (units.Celsius, error) {
	if i < 0 || i >= len(b.temps) {
		return 0, fmt.Errorf("mem: DIMM %d out of range [0,%d)", i, len(b.temps))
	}
	return units.Celsius(b.temps[i]), nil
}

// MaxTemp returns the hottest DIMM. NaN temperatures are skipped.
func (b *Bank) MaxTemp() units.Celsius { return units.Celsius(b.maxTemp) }

// NumDIMMs returns the DIMM count.
func (b *Bank) NumDIMMs() int { return len(b.temps) }

// TempSum returns the plain sum of all DIMM temperatures. A NaN or Inf
// DIMM poisons the sum, whereas MaxTemp's comparisons would skip it —
// the divergence guard reads this, not the max.
func (b *Bank) TempSum() float64 { return b.tempSum }

// refreshRollups recomputes the cached MaxTemp and TempSum from temps, for
// the writers that do not already walk the bank in an update loop.
func (b *Bank) refreshRollups() {
	m, sum := math.Inf(-1), 0.0
	for _, v := range b.temps {
		if v > m {
			m = v
		}
		sum += v
	}
	b.maxTemp, b.tempSum = m, sum
}

// Settle snaps all DIMMs to equilibrium for the given conditions.
func (b *Bank) Settle(ambient units.Celsius, u units.Percent, r units.RPM) {
	for i := range b.temps {
		b.temps[i] = b.equilibrium(i, ambient, u, r)
	}
	b.refreshRollups()
}
