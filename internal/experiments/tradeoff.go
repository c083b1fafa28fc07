package experiments

import (
	"fmt"
	"sort"

	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/units"
)

// TradeoffPoint is one steady operating point of Fig. 2: at a fan speed,
// the equilibrium temperature and the fan/leakage power split.
type TradeoffPoint struct {
	RPM      units.RPM
	Temp     units.Celsius
	FanPower units.Watts
	Leakage  units.Watts
}

// Sum returns fan + leakage power, the quantity Fig. 2(a) shows is convex.
func (p TradeoffPoint) Sum() units.Watts { return p.FanPower + p.Leakage }

// TradeoffCurve is a Fig. 2 series for one utilization level.
type TradeoffCurve struct {
	Util   units.Percent
	Points []TradeoffPoint // sorted by temperature (i.e. descending RPM)
}

// Optimum returns the point minimizing fan+leakage power.
func (c TradeoffCurve) Optimum() (TradeoffPoint, error) {
	if len(c.Points) == 0 {
		return TradeoffPoint{}, fmt.Errorf("experiments: empty tradeoff curve")
	}
	best := c.Points[0]
	for _, p := range c.Points[1:] {
		if p.Sum() < best.Sum() {
			best = p
		}
	}
	return best, nil
}

// Tradeoff computes the steady-state fan/leakage tradeoff curve at one
// utilization across a set of fan speeds, using the analytic steady-state
// solver. Unstable (runaway) points are skipped. The per-RPM solves fan out
// over all cores.
func Tradeoff(cfg server.Config, util units.Percent, rpms []units.RPM) (TradeoffCurve, error) {
	return tradeoffWorkers(cfg, util, rpms, 0)
}

// tradeoffWorkers solves every RPM's operating point over a bounded pool;
// results are gathered in grid order, so the curve is identical to the
// serial evaluation for any worker count.
func tradeoffWorkers(cfg server.Config, util units.Percent, rpms []units.RPM, workers int) (TradeoffCurve, error) {
	if len(rpms) == 0 {
		rpms = denseRPMGrid()
	}
	points := make([]TradeoffPoint, len(rpms))
	stable := make([]bool, len(rpms))
	par.ForEach(len(rpms), workers, func(i int) {
		r := rpms[i]
		temp, err := server.SteadyTemp(cfg, util, r)
		if err != nil {
			return // thermally unstable operating point
		}
		points[i] = TradeoffPoint{
			RPM:      r,
			Temp:     temp,
			FanPower: cfg.Power.Fans.Power(r),
			Leakage:  cfg.Power.Leakage.Power(temp),
		}
		stable[i] = true
	})
	curve := TradeoffCurve{Util: util}
	for i, ok := range stable {
		if ok {
			curve.Points = append(curve.Points, points[i])
		}
	}
	if len(curve.Points) == 0 {
		return curve, fmt.Errorf("experiments: no stable operating points at U=%v", util)
	}
	sort.Slice(curve.Points, func(i, j int) bool { return curve.Points[i].Temp < curve.Points[j].Temp })
	return curve, nil
}

// Fig2a reproduces Figure 2(a): the tradeoff at 100% utilization over a
// dense RPM grid.
func Fig2a(cfg server.Config) (TradeoffCurve, error) {
	return Tradeoff(cfg, 100, denseRPMGrid())
}

// Fig2b reproduces Figure 2(b): fan+leakage curves for the paper's
// utilization levels. The pool fans out across utilization levels, with
// each level's grid solved serially inside its worker (so the total
// goroutine count stays bounded by one pool).
func Fig2b(cfg server.Config) ([]TradeoffCurve, error) {
	utils := []units.Percent{25, 50, 60, 75, 90, 100}
	out := make([]TradeoffCurve, len(utils))
	errs := make([]error, len(utils))
	par.ForEach(len(utils), 0, func(i int) {
		out[i], errs[i] = tradeoffWorkers(cfg, utils[i], denseRPMGrid(), 1)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: fig2b U=%v: %w", utils[i], err)
		}
	}
	return out, nil
}

// denseRPMGrid spans the fan range at 100 RPM resolution for smooth curves.
func denseRPMGrid() []units.RPM {
	var out []units.RPM
	for r := units.RPM(1800); r <= 4200; r += 100 {
		out = append(out, r)
	}
	return out
}
