package experiments

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/cooling"
	"repro/internal/lut"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/units"
)

// rackAmbient returns server i's inlet ambient: a cold→hot aisle gradient
// repeating every four slots (21, 24, 27, 30 °C), the heterogeneity that
// gives thermally aware placement something to exploit.
func rackAmbient(i int) units.Celsius { return units.Celsius(21 + 3*(i%4)) }

// RackServerConfigs builds the heterogeneous per-slot server
// configurations from a base config: the ambient gradient, a mixed DIMM
// population (odd slots run 24 instead of 32 DIMMs) and per-server sensor
// noise seeds.
func RackServerConfigs(base server.Config, n int) []server.Config {
	cfgs := make([]server.Config, n)
	for i := range cfgs {
		cfg := base
		cfg.Ambient = rackAmbient(i)
		cfg.NoiseSeed = base.NoiseSeed + int64(1000*i)
		if i%2 == 1 {
			cfg.Mem.NumDIMMs = 24
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// rackConfigFor builds one rack's configuration over cfgs: each server under
// its own fan controller (LUT controllers share the read-only tables), the
// scenario's delivery chain and reliability sampling, and fac — nil in a
// room, which owns the facility. The rack steps serially: parallelism
// lives at the cell level (see Scenario.Workers).
func rackConfigFor(cfgs []server.Config, tables []*lut.Table, sc Scenario, fac *cooling.Facility) (rack.Config, error) {
	specs := make([]rack.ServerSpec, len(cfgs))
	for i, cfg := range cfgs {
		var ctl control.Controller
		switch sc.FanControl {
		case "", "lut":
			lc, err := control.NewLUT(tables[i], control.DefaultLUT())
			if err != nil {
				return rack.Config{}, err
			}
			ctl = lc
		case "bang", "bangbang":
			bb, err := control.NewBangBang(control.DefaultBangBang())
			if err != nil {
				return rack.Config{}, err
			}
			ctl = bb
		default:
			return rack.Config{}, fmt.Errorf("experiments: unknown fan control %q (want lut or bang)", sc.FanControl)
		}
		specs[i] = rack.ServerSpec{
			Name:       fmt.Sprintf("srv%02d-amb%g", i, float64(cfg.Ambient)),
			Config:     cfg,
			Controller: ctl,
		}
	}
	return rack.Config{
		Servers: specs, Workers: 1, PSU: sc.PSU, PDU: sc.PDU, Facility: fac,
		ReliabilitySampleEvery: sc.ReliabilitySampleEvery,
	}, nil
}

// buildRackTables builds one LUT per distinct server configuration
// (ignoring noise seeds), in slot order, consulting the on-disk cache
// when the scenario names a directory.
func buildRackTables(cfgs []server.Config, sc Scenario) ([]*lut.Table, error) {
	bc := lut.DefaultBuild()
	bc.Workers = sc.Workers
	tables, err := lut.DiskCache{Dir: sc.LUTCacheDir}.BuildPerConfig(cfgs, bc)
	if err != nil {
		return nil, fmt.Errorf("experiments: rack LUTs: %w", err)
	}
	return tables, nil
}

// RackPolicies returns the five placement policies under comparison, in
// table order. The leakage-aware and cap-aware policies reuse the per-slot
// tables the rack's fan controllers are built from — one grid of
// steady-state solves serves all three consumers; cap-aware additionally
// sees each slot's PSU so it can rank placements by marginal wall power.
func RackPolicies(cfgs []server.Config, tables []*lut.Table, psus []*power.PSUModel) ([]sched.Policy, error) {
	la, err := sched.NewLeakageAwareFromTables(tables)
	if err != nil {
		return nil, err
	}
	models := make([]power.ServerModel, len(cfgs))
	for i, cfg := range cfgs {
		models[i] = cfg.Power
	}
	ca, err := sched.NewCapAwareFromTables(tables, models, psus)
	if err != nil {
		return nil, err
	}
	return []sched.Policy{
		sched.NewRoundRobin(),
		sched.NewLeastUtilized(),
		sched.NewCoolestFirst(),
		la,
		ca,
	}, nil
}
