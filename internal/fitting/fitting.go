// Package fitting implements the paper's Section IV analysis: collect
// steady-state telemetry across a utilization × fan-speed sweep, attribute
// CPU power from the per-core voltage/current sensors, and fit the
// empirical model
//
//	Pcpu = k1·U + C + k2·e^(k3·T)
//
// by nonlinear least squares. The simulator's ground-truth constants are the
// paper's fitted values, so a correct pipeline must recover k1 ≈ 0.4452,
// k2 ≈ 0.3231 and k3 ≈ 0.04749 from noisy sensor data with an RMSE of a
// couple of Watts — the paper reports 2.243 W and "98% accuracy".
package fitting

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/units"
)

// Point is one steady-state characterization measurement.
type Point struct {
	Util     units.Percent // commanded utilization
	Temp     units.Celsius // average CPU temperature
	CPUPower units.Watts   // Σ per-core V·I (active + leakage)
	FanRPM   units.RPM
	FanPower units.Watts // separately metered
}

// Dataset is a collection of characterization points.
type Dataset struct {
	Points []Point
}

// SweepConfig controls the characterization campaign.
type SweepConfig struct {
	Utils      []units.Percent // paper: 10,25,40,50,60,75,90,100
	RPMs       []units.RPM     // paper: 1800..4200 step 600
	Stabilize  float64         // idle seconds before loading (paper: 5 min)
	Warmup     float64         // loaded seconds before measuring
	Measure    float64         // measurement window seconds
	PollPeriod float64         // telemetry cadence (paper: 10 s)
	Dt         float64         // simulation step
	// PerPoll records one dataset point per telemetry poll (the paper fits
	// on raw CSTH samples, so its 2.243 W RMSE reflects sensor noise).
	// When false, each (U, RPM) combination contributes a single
	// noise-averaged point.
	PerPoll bool
}

// DefaultSweep returns the paper's Section IV sweep, shortened warm-up
// handled by starting measurement once the slow thermal pole has settled.
func DefaultSweep() SweepConfig {
	return SweepConfig{
		Utils:      []units.Percent{10, 25, 40, 50, 60, 75, 90, 100},
		RPMs:       []units.RPM{1800, 2400, 3000, 3600, 4200},
		Stabilize:  5 * 60,
		Warmup:     20 * 60,
		Measure:    10 * 60,
		PollPeriod: 10,
		Dt:         2,
		PerPoll:    true,
	}
}

// Validate reports configuration errors.
func (c SweepConfig) Validate() error {
	if len(c.Utils) == 0 || len(c.RPMs) == 0 {
		return fmt.Errorf("fitting: sweep needs utilization levels and fan speeds")
	}
	if c.Dt <= 0 || c.Measure <= 0 || c.PollPeriod <= 0 {
		return fmt.Errorf("fitting: non-positive timing in sweep config")
	}
	return nil
}

// Collect runs the steady-state sweep against fresh simulated servers built
// by newServer. Each (U, RPM) combination follows the paper's protocol:
// cold start, fan speed set at t=0, idle stabilization, load, warm-up, then
// a measurement window whose telemetry is averaged into one Point.
func Collect(newServer func() (*server.Server, error), cfg SweepConfig) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ds := &Dataset{}
	for _, rpm := range cfg.RPMs {
		for _, u := range cfg.Utils {
			pts, err := collectOne(newServer, cfg, u, rpm)
			if err != nil {
				return nil, fmt.Errorf("fitting: U=%v RPM=%v: %w", u, rpm, err)
			}
			ds.Points = append(ds.Points, pts...)
		}
	}
	return ds, nil
}

func collectOne(newServer func() (*server.Server, error), cfg SweepConfig, u units.Percent, rpm units.RPM) ([]Point, error) {
	srv, err := newServer()
	if err != nil {
		return nil, err
	}
	srv.Fans().SetAll(rpm)

	run := func(seconds float64) {
		for elapsed := 0.0; elapsed < seconds; elapsed += cfg.Dt {
			srv.Step(cfg.Dt)
		}
	}
	// Idle stabilization at the target fan speed, then load and warm up.
	run(cfg.Stabilize)
	srv.SetLoad(u)
	run(cfg.Warmup)

	// Measurement window: poll CSTH-style every PollPeriod.
	var raw []Point
	var tempAcc, cpuAcc, fanAcc stats.Online
	nextPoll := srv.Now()
	end := srv.Now() + cfg.Measure
	for srv.Now() < end {
		if srv.Now() >= nextPoll {
			temp := avgSensors(srv.CPUTempSensors())
			cpuP := float64(srv.MeasuredCPUPower())
			fanP := float64(srv.MeasuredFanPower())
			tempAcc.Add(temp)
			cpuAcc.Add(cpuP)
			fanAcc.Add(fanP)
			if cfg.PerPoll {
				raw = append(raw, Point{
					Util:     u,
					Temp:     units.Celsius(temp),
					CPUPower: units.Watts(cpuP),
					FanRPM:   rpm,
					FanPower: units.Watts(fanP),
				})
			}
			nextPoll += cfg.PollPeriod
		}
		srv.Step(cfg.Dt)
	}
	if tempAcc.N() == 0 {
		return nil, fmt.Errorf("measurement window too short for polling period")
	}
	if cfg.PerPoll {
		return raw, nil
	}
	return []Point{{
		Util:     u,
		Temp:     units.Celsius(tempAcc.Mean()),
		CPUPower: units.Watts(cpuAcc.Mean()),
		FanRPM:   rpm,
		FanPower: units.Watts(fanAcc.Mean()),
	}}, nil
}

func avgSensors(readings []units.Celsius) float64 {
	var s float64
	for _, r := range readings {
		s += float64(r)
	}
	return s / float64(len(readings))
}

// FitResult holds the recovered model and its quality.
type FitResult struct {
	K1, C, K2, K3 float64
	RMSE          float64 // W
	R2            float64
	AccuracyPct   float64 // 100·(1 − mean|residual| / mean power)
	N             int
	Iterations    int
}

// Predict evaluates the fitted model at a utilization and temperature.
func (r FitResult) Predict(u units.Percent, t units.Celsius) units.Watts {
	return units.Watts(r.K1*float64(u.Clamp()) + r.C + r.K2*math.Exp(r.K3*float64(t)))
}

// FitLeakage fits Pcpu = k1·U + C + k2·e^(k3·T) to the dataset by
// Levenberg–Marquardt.
func FitLeakage(ds *Dataset) (FitResult, error) {
	if ds == nil || len(ds.Points) < 4 {
		return FitResult{}, fmt.Errorf("fitting: need at least 4 points, got %d", pointCount(ds))
	}
	pts := ds.Points
	resid := func(p, out []float64) {
		for i, pt := range pts {
			pred := p[0]*float64(pt.Util) + p[1] + p[2]*math.Exp(p[3]*float64(pt.Temp))
			out[i] = pred - float64(pt.CPUPower)
		}
	}
	start := []float64{0.5, 5, 0.5, 0.03}
	res, err := mathx.LevenbergMarquardt(resid, start, len(pts), mathx.LMOptions{MaxIter: 500})
	if err != nil {
		return FitResult{}, fmt.Errorf("fitting: %w", err)
	}

	out := FitResult{
		K1: res.Params[0], C: res.Params[1], K2: res.Params[2], K3: res.Params[3],
		RMSE: res.RMSE, N: len(pts), Iterations: res.Iterations,
	}
	pred := make([]float64, len(pts))
	truth := make([]float64, len(pts))
	var absErr, meanP float64
	for i, pt := range pts {
		pred[i] = float64(out.Predict(pt.Util, pt.Temp))
		truth[i] = float64(pt.CPUPower)
		absErr += math.Abs(pred[i] - truth[i])
		meanP += truth[i]
	}
	absErr /= float64(len(pts))
	meanP /= float64(len(pts))
	out.R2 = stats.RSquared(pred, truth)
	if meanP > 0 {
		out.AccuracyPct = 100 * (1 - absErr/meanP)
	}
	return out, nil
}

func pointCount(ds *Dataset) int {
	if ds == nil {
		return 0
	}
	return len(ds.Points)
}
