// Benchmarks regenerating every table and figure of the paper, plus
// ablations of the design choices called out in DESIGN.md. Each benchmark
// reports the headline quantities of its experiment as custom metrics, so
// `go test -bench=. -benchmem` doubles as the experiment record consumed by
// EXPERIMENTS.md.
package leakctl

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/control"
	"repro/internal/cooling"
	"repro/internal/dvfs"
	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/reliability"
	"repro/internal/room"
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

// --------------------------------------------------------------------------
// Figure 1: thermal transients

// BenchmarkFig1aTransients regenerates Fig. 1(a): CPU temperature over time
// at 100% utilization for fan speeds 1800..4200. Reported metrics are the
// steady temperatures of the slowest and fastest fan settings.
func BenchmarkFig1aTransients(b *testing.B) {
	cfg := T3Config()
	var results []TransientResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = Fig1a(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(results[0].SteadyC, "steadyC@1800rpm")
	b.ReportMetric(results[len(results)-1].SteadyC, "steadyC@4200rpm")
	b.ReportMetric(results[0].SettleAt, "settleMin@1800rpm")
	b.ReportMetric(results[len(results)-1].SettleAt, "settleMin@4200rpm")
}

// BenchmarkFig1bUtilizationSweep regenerates Fig. 1(b): transients at
// 1800 RPM for 25/50/75/100% utilization.
func BenchmarkFig1bUtilizationSweep(b *testing.B) {
	cfg := T3Config()
	var results []TransientResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = Fig1b(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(results[0].SteadyC, "steadyC@25pct")
	b.ReportMetric(results[len(results)-1].SteadyC, "steadyC@100pct")
}

// --------------------------------------------------------------------------
// Section IV: leakage model fit

// BenchmarkCharacterizationSweep times the full Section IV telemetry
// collection campaign (8 utilization levels × 5 fan speeds).
func BenchmarkCharacterizationSweep(b *testing.B) {
	cfg := T3Config()
	sweep := DefaultSweep()
	var ds *Dataset
	for i := 0; i < b.N; i++ {
		var err error
		ds, err = Characterize(cfg, sweep)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ds.Points)), "points")
}

// BenchmarkLeakageFit times the Levenberg–Marquardt fit and reports the
// recovered constants (paper: k1=0.4452, k2=0.3231, k3=0.04749,
// RMSE=2.243 W, accuracy 98%).
func BenchmarkLeakageFit(b *testing.B) {
	cfg := T3Config()
	sweep := DefaultSweep()
	ds, err := Characterize(cfg, sweep)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var fit FitResult
	for i := 0; i < b.N; i++ {
		fit, err = FitLeakage(ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fit.K1, "k1")
	b.ReportMetric(fit.K2*1000, "k2_milli")
	b.ReportMetric(fit.K3*1000, "k3_milli")
	b.ReportMetric(fit.RMSE, "rmseW")
	b.ReportMetric(fit.AccuracyPct, "accuracyPct")
}

// --------------------------------------------------------------------------
// Figure 2: leakage/fan tradeoff

// BenchmarkFig2aTradeoff regenerates Fig. 2(a) and reports the optimum
// (paper: minimum near 70 °C at 2400 RPM).
func BenchmarkFig2aTradeoff(b *testing.B) {
	cfg := T3Config()
	var curve TradeoffCurve
	for i := 0; i < b.N; i++ {
		var err error
		curve, err = Fig2a(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	opt, err := curve.Optimum()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(opt.RPM), "optRPM")
	b.ReportMetric(float64(opt.Temp), "optTempC")
	b.ReportMetric(float64(opt.Sum()), "optFanLeakW")
}

// BenchmarkFig2bAllDutycycles regenerates Fig. 2(b) and reports the hottest
// optimum temperature across utilization levels (paper: never above 70 °C).
func BenchmarkFig2bAllDutycycles(b *testing.B) {
	cfg := T3Config()
	var curves []TradeoffCurve
	for i := 0; i < b.N; i++ {
		var err error
		curves, err = Fig2b(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	maxOpt := 0.0
	for _, c := range curves {
		opt, err := c.Optimum()
		if err != nil {
			b.Fatal(err)
		}
		if float64(opt.Temp) > maxOpt {
			maxOpt = float64(opt.Temp)
		}
	}
	b.ReportMetric(maxOpt, "maxOptTempC")
}

// --------------------------------------------------------------------------
// Table I: controller comparison

func benchTableITest(b *testing.B, id int) {
	benchTableITestCfg(b, id, T3Config())
}

// benchTableITestCfg regenerates one workload's Table I rows: the LUT is
// built and the three controller runs fan out over the worker pool, so this
// benchmark scales with cores on top of the exact-integrator win.
func benchTableITestCfg(b *testing.B, id int, cfg ServerConfig) {
	ec := DefaultEval()
	ec.SampleEvery = 0 // no traces in the benchmark
	var row TableIRow
	for i := 0; i < b.N; i++ {
		w, err := workload.ByID(id, 42)
		if err != nil {
			b.Fatal(err)
		}
		table, err := lut.Build(cfg, lut.DefaultBuild())
		if err != nil {
			b.Fatal(err)
		}
		row, err = experiments.TableIRowFor(cfg, table, w, ec, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	idle := experiments.IdleEnergyKWh(cfg, workload.TestDuration)
	denom := row.Default.EnergyKWh - idle
	b.ReportMetric(row.Default.EnergyKWh*1000, "defaultWh")
	b.ReportMetric(row.BangBang.EnergyKWh*1000, "bangWh")
	b.ReportMetric(row.LUT.EnergyKWh*1000, "lutWh")
	if denom > 0 {
		b.ReportMetric(100*(row.Default.EnergyKWh-row.LUT.EnergyKWh)/denom, "lutNetSavPct")
		b.ReportMetric(100*(row.Default.EnergyKWh-row.BangBang.EnergyKWh)/denom, "bangNetSavPct")
	}
	b.ReportMetric(row.Default.PeakPowerW-row.LUT.PeakPowerW, "lutPeakCutW")
	b.ReportMetric(row.LUT.MaxTempC, "lutMaxTempC")
	b.ReportMetric(float64(row.LUT.FanChanges), "lutFanChanges")
	b.ReportMetric(row.LUT.AvgRPM, "lutAvgRPM")
}

// BenchmarkTableITest1 regenerates the Test-1 (ramp) rows of Table I.
func BenchmarkTableITest1(b *testing.B) { benchTableITest(b, 1) }

// BenchmarkTableITest2 regenerates the Test-2 (periods) rows of Table I.
func BenchmarkTableITest2(b *testing.B) { benchTableITest(b, 2) }

// BenchmarkTableITest3 regenerates the Test-3 (random steps) rows of Table I.
func BenchmarkTableITest3(b *testing.B) { benchTableITest(b, 3) }

// BenchmarkTableITest4 regenerates the Test-4 (shell workload) rows of Table I.
func BenchmarkTableITest4(b *testing.B) { benchTableITest(b, 4) }

// BenchmarkTableITest1RK4 is the pre-optimization baseline of Test 1: the
// same rows integrated with the fixed-step RK4 fallback. Compare against
// BenchmarkTableITest1 for the exact-propagator speedup.
func BenchmarkTableITest1RK4(b *testing.B) {
	cfg := T3Config()
	cfg.ThermalIntegrator = thermal.IntegratorRK4
	benchTableITestCfg(b, 1, cfg)
}

// BenchmarkTableIFull regenerates the entire Table I (4 workloads × 3
// controllers) through the parallel harness — the headline end-to-end run.
func BenchmarkTableIFull(b *testing.B) {
	cfg := T3Config()
	ec := DefaultEval()
	ec.SampleEvery = 0
	var rows []TableIRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.TableIParallel(cfg, 42, ec, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "rows")
	b.ReportMetric(rows[0].LUT.NetSavingsPct, "test1LutNetSavPct")
}

// BenchmarkFig3Traces regenerates Figure 3's three Test-3 temperature traces.
func BenchmarkFig3Traces(b *testing.B) {
	cfg := T3Config()
	var series []Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = Fig3(cfg, 42, DefaultEval())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(series)), "controllers")
	b.ReportMetric(float64(len(series[0].X)), "samples")
}

// --------------------------------------------------------------------------
// Ablations (design choices from DESIGN.md §5)

// BenchmarkAblationHoldoff sweeps the LUT controller's minimum interval
// between fan changes (paper: 60 s) on the stochastic Test-4 shell
// workload, whose fast utilization fluctuations make the hold-off bind.
func BenchmarkAblationHoldoff(b *testing.B) {
	cfg := T3Config()
	table, err := lut.Build(cfg, lut.DefaultBuild())
	if err != nil {
		b.Fatal(err)
	}
	for _, holdoff := range []float64{0, 30, 60, 180} {
		b.Run(fmtSeconds(holdoff), func(b *testing.B) {
			ec := DefaultEval()
			ec.SampleEvery = 0
			var res RunResult
			for i := 0; i < b.N; i++ {
				w, err := workload.ByID(4, 42)
				if err != nil {
					b.Fatal(err)
				}
				lcfg := control.DefaultLUT()
				lcfg.HoldOff = holdoff
				lc, err := control.NewLUT(table, lcfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err = experiments.RunControlled(cfg, w.Profile, lc, ec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.EnergyKWh*1000, "Wh")
			b.ReportMetric(float64(res.FanChanges), "fanChanges")
			b.ReportMetric(res.MaxTempC, "maxTempC")
		})
	}
}

// BenchmarkAblationLUTResolution compares the paper's 9-level utilization
// grid against a dense 5%-step table on Test-1's ramp.
func BenchmarkAblationLUTResolution(b *testing.B) {
	cfg := T3Config()
	grids := map[string][]units.Percent{
		"paper9": lut.DefaultBuild().Utils,
		"dense21": func() []units.Percent {
			var g []units.Percent
			for u := units.Percent(0); u <= 100; u += 5 {
				g = append(g, u)
			}
			return g
		}(),
	}
	for name, grid := range grids {
		b.Run(name, func(b *testing.B) {
			bc := lut.DefaultBuild()
			bc.Utils = grid
			table, err := lut.Build(cfg, bc)
			if err != nil {
				b.Fatal(err)
			}
			ec := DefaultEval()
			ec.SampleEvery = 0
			var res RunResult
			for i := 0; i < b.N; i++ {
				w, err := workload.ByID(1, 42)
				if err != nil {
					b.Fatal(err)
				}
				lc, err := control.NewLUT(table, control.DefaultLUT())
				if err != nil {
					b.Fatal(err)
				}
				res, err = experiments.RunControlled(cfg, w.Profile, lc, ec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.EnergyKWh*1000, "Wh")
			b.ReportMetric(float64(res.FanChanges), "fanChanges")
		})
	}
}

// BenchmarkAblationBangBand sweeps the bang-bang dead band (paper: 65-75;
// narrower bands change fans more, wider bands overshoot more).
func BenchmarkAblationBangBand(b *testing.B) {
	cfg := T3Config()
	bands := []struct {
		name      string
		low, high units.Celsius
	}{
		{"paper65to75", 65, 75},
		{"narrow70to75", 70, 75},
		{"wide60to80", 60, 80},
	}
	for _, band := range bands {
		b.Run(band.name, func(b *testing.B) {
			ec := DefaultEval()
			ec.SampleEvery = 0
			var res RunResult
			for i := 0; i < b.N; i++ {
				w, err := workload.ByID(2, 42)
				if err != nil {
					b.Fatal(err)
				}
				bcfg := control.DefaultBangBang()
				bcfg.TLow = band.low
				bcfg.THigh = band.high
				bcfg.TLowFloor = band.low - 5
				bcfg.TPanic = band.high + 5
				bb, err := control.NewBangBang(bcfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err = experiments.RunControlled(cfg, w.Profile, bb, ec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.EnergyKWh*1000, "Wh")
			b.ReportMetric(float64(res.FanChanges), "fanChanges")
			b.ReportMetric(res.MaxTempC, "maxTempC")
		})
	}
}

// BenchmarkAblationTempCap compares the LUT built with the paper's 75 °C
// reliability cap against an uncapped energy-only table. Run at a 32 °C
// data-center ambient, where the energy-only optimum is hot enough for the
// cap to bind (at the paper's 24 °C lab ambient it never does).
func BenchmarkAblationTempCap(b *testing.B) {
	cfg := T3Config()
	cfg.Ambient = 32
	for _, cap75 := range []bool{true, false} {
		name := "cap75C"
		bc := lut.DefaultBuild()
		if !cap75 {
			name = "uncapped"
			bc.MaxTemp = 0
		}
		b.Run(name, func(b *testing.B) {
			table, err := lut.Build(cfg, bc)
			if err != nil {
				b.Fatal(err)
			}
			ec := DefaultEval()
			ec.SampleEvery = 0
			var res RunResult
			for i := 0; i < b.N; i++ {
				w, err := workload.ByID(2, 42)
				if err != nil {
					b.Fatal(err)
				}
				lc, err := control.NewLUT(table, control.DefaultLUT())
				if err != nil {
					b.Fatal(err)
				}
				res, err = experiments.RunControlled(cfg, w.Profile, lc, ec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.EnergyKWh*1000, "Wh")
			b.ReportMetric(res.MaxTempC, "maxTempC")
			b.ReportMetric(float64(table.MaxPredictedTemp()), "tableMaxTempC")
		})
	}
}

// BenchmarkAblationAmbient sweeps ambient temperature (the paper notes its
// lab is colder than a production data center).
func BenchmarkAblationAmbient(b *testing.B) {
	for _, amb := range []units.Celsius{18, 24, 30, 35} {
		b.Run(fmtCelsius(amb), func(b *testing.B) {
			cfg := T3Config()
			cfg.Ambient = amb
			table, err := lut.Build(cfg, lut.DefaultBuild())
			if err != nil {
				b.Fatal(err)
			}
			ec := DefaultEval()
			ec.SampleEvery = 0
			var res RunResult
			for i := 0; i < b.N; i++ {
				w, err := workload.ByID(3, 42)
				if err != nil {
					b.Fatal(err)
				}
				lc, err := control.NewLUT(table, control.DefaultLUT())
				if err != nil {
					b.Fatal(err)
				}
				res, err = experiments.RunControlled(cfg, w.Profile, lc, ec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.EnergyKWh*1000, "Wh")
			b.ReportMetric(res.MaxTempC, "maxTempC")
			b.ReportMetric(res.AvgRPM, "avgRPM")
		})
	}
}

// BenchmarkExtensionDVFS compares the paper's fan-only LUT against the
// coordinated DVFS+fan extension (DESIGN.md §6) on the Test-4 shell
// workload, reporting both energies and the coordinated policy's deepest
// P-state.
func BenchmarkExtensionDVFS(b *testing.B) {
	cfg := T3Config()
	fanTable, err := lut.Build(cfg, lut.DefaultBuild())
	if err != nil {
		b.Fatal(err)
	}
	coordTable, err := dvfs.Build(cfg, dvfs.DefaultBuild())
	if err != nil {
		b.Fatal(err)
	}
	ec := DefaultEval()
	ec.SampleEvery = 0
	ec.PWM = false
	var fanOnly RunResult
	var coord dvfs.RunResult
	for i := 0; i < b.N; i++ {
		w, err := workload.ByID(4, 42)
		if err != nil {
			b.Fatal(err)
		}
		lc, err := control.NewLUT(fanTable, control.DefaultLUT())
		if err != nil {
			b.Fatal(err)
		}
		fanOnly, err = experiments.RunControlled(cfg, w.Profile, lc, ec)
		if err != nil {
			b.Fatal(err)
		}
		coord, err = dvfs.Run(cfg, coordTable, w.Profile, dvfs.DefaultRun())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fanOnly.EnergyKWh*1000, "fanOnlyWh")
	b.ReportMetric(coord.EnergyKWh*1000, "coordWh")
	b.ReportMetric(100*(fanOnly.EnergyKWh-coord.EnergyKWh)/fanOnly.EnergyKWh, "extraSavPct")
	b.ReportMetric(coord.MinFreq, "minFreqScale")
	b.ReportMetric(coord.MaxTempC, "coordMaxTempC")
}

// BenchmarkExtensionReliability analyzes the Fig. 3 temperature traces with
// the Arrhenius + Coffin-Manson reliability models: the LUT's steadier
// trace should accumulate less cycling damage than bang-bang's.
func BenchmarkExtensionReliability(b *testing.B) {
	cfg := T3Config()
	series, err := Fig3(cfg, 42, DefaultEval())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	reports := map[string]reliability.Report{}
	for i := 0; i < b.N; i++ {
		for _, s := range series {
			rep, err := reliability.Analyze(s.Y)
			if err != nil {
				b.Fatal(err)
			}
			reports[s.Name] = rep
		}
	}
	b.ReportMetric(reports["LUT"].CyclingDamage, "lutDamage")
	b.ReportMetric(reports["Bang-bang"].CyclingDamage, "bangDamage")
	b.ReportMetric(reports["Default"].CyclingDamage, "defaultDamage")
	b.ReportMetric(reports["LUT"].Acceleration, "lutArrhenius")
	b.ReportMetric(reports["Bang-bang"].Acceleration, "bangArrhenius")
}

// --------------------------------------------------------------------------
// Microbenchmarks of the substrates

// BenchmarkServerStep measures one 1-second simulation step of the full
// composite server.
func BenchmarkServerStep(b *testing.B) {
	srv, err := NewServer(T3Config())
	if err != nil {
		b.Fatal(err)
	}
	srv.SetLoad(70)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Step(1)
	}
}

// BenchmarkServerStepRK4 is the pre-optimization baseline: the same step
// integrated with the fixed-step RK4 fallback at the original 0.5 s bound.
// Compare against BenchmarkServerStep for the exact-propagator speedup.
func BenchmarkServerStepRK4(b *testing.B) {
	cfg := T3Config()
	cfg.ThermalIntegrator = thermal.IntegratorRK4
	srv, err := NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv.SetLoad(70)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Step(1)
	}
}

// --------------------------------------------------------------------------
// Rack-scale simulation (internal/rack + internal/sched)

// rackOf builds an n-server heterogeneous rack with no fan controllers —
// the pure stepping substrate — at a fixed 70% load. The per-slot
// configurations come from experiments.RackServerConfigs, so the bench
// measures the same rack the policy-comparison experiment runs.
func rackOf(b *testing.B, n, workers int) *rack.Rack {
	b.Helper()
	cfgs := experiments.RackServerConfigs(T3Config(), n)
	specs := make([]rack.ServerSpec, n)
	for i := range specs {
		specs[i] = rack.ServerSpec{Config: cfgs[i]}
	}
	r, err := rack.New(rack.Config{Servers: specs, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r.SetLoad(i, 70)
	}
	return r
}

// BenchmarkRackStep measures one 1-second step of the whole rack across
// rack sizes. On the exact-integrator path each server's step is one
// cached matvec, so ns/op must scale near-linearly in server count
// (compare the servers=1/4/16/64 sub-benchmarks; per-server cost is
// ns/op ÷ servers).
func BenchmarkRackStep(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			r := rackOf(b, n, 1) // serial: isolates per-server step cost from pool scheduling
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Step(1)
			}
			b.ReportMetric(float64(n), "servers")
		})
	}
}

// BenchmarkRackStepParallel is BenchmarkRackStep/servers=16 with the
// fan-out enabled — the wall-clock win on multicore hosts.
func BenchmarkRackStepParallel(b *testing.B) {
	r := rackOf(b, 16, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step(1)
	}
}

// benchRackTrace regenerates the rack policy-comparison experiment — the
// five placement policies over the default Poisson trace — and reports
// the headline energies plus the rack-step count of the selected kernel.
func benchRackTrace(b *testing.B, eventStepping, metrics bool, rateScale float64) {
	base := T3Config()
	ev := experiments.DefaultRackEval()
	ev.EventStepping = eventStepping
	ev.Rate *= rateScale
	var rows []experiments.RackPolicyResult
	for i := 0; i < b.N; i++ {
		if metrics {
			// Fresh registry per iteration, like a real instrumented run;
			// its cost is what the CI overhead gate bounds.
			ev.Metrics = obs.NewRegistry()
		}
		var err error
		rows, err = experiments.RackPolicyComparison(base, ev)
		if err != nil {
			b.Fatal(err)
		}
	}
	steps := 0
	for _, r := range rows {
		steps += r.Sched.RackSteps
		switch r.Policy {
		case "round-robin":
			b.ReportMetric(r.TotalWh(), "roundRobinWh")
		case "coolest-first":
			b.ReportMetric(r.TotalWh(), "coolestWh")
		case "leakage-aware":
			b.ReportMetric(r.TotalWh(), "leakageAwareWh")
			b.ReportMetric(float64(r.Rack.FanChanges), "leakageAwareFanChanges")
		}
	}
	b.ReportMetric(float64(steps), "rackSteps")
}

// BenchmarkRackTrace is the headline trace benchmark on the event-driven
// kernel (PR 5): wall-clock scales with the number of scheduling events,
// not horizon/dt. Compare against BenchmarkRackTraceFixed for the
// macro-stepping speedup; physics metrics agree within 1e-6 relative
// (asserted by TestEventSteppingSmoke).
func BenchmarkRackTrace(b *testing.B) { benchRackTrace(b, true, false, 1) }

// BenchmarkRackTraceFixed is the fixed-dt reference path of the same
// experiment — the pre-PR 5 baseline, bit-identical to PR 4's metrics.
func BenchmarkRackTraceFixed(b *testing.B) { benchRackTrace(b, false, false, 1) }

// BenchmarkRackTraceSaturated is the event kernel on the overloaded
// variant of the same trace (4× the default arrival rate ≈ 1.2× rack
// capacity, the TestEventSteppingSmoke saturated shape): before PR 8 the
// never-draining backlog pinned every policy to fixed-dt stepping; with
// the load-only refusal un-pin the load-only policies macro-step
// completion-to-completion, so this benchmark tracks the kernel's
// saturated-regime cost alongside the drained-queue headline above.
func BenchmarkRackTraceSaturated(b *testing.B) { benchRackTrace(b, true, false, 4) }

// BenchmarkRackTraceSaturatedFixed is the fixed-dt reference of the
// saturated trace — the denominator of the PR 8 collapse claim.
func BenchmarkRackTraceSaturatedFixed(b *testing.B) { benchRackTrace(b, false, false, 4) }

// BenchmarkRackTraceMetrics is BenchmarkRackTrace with a live obs
// registry attached to every cell: the full pin-reason/macro-window/
// scheduler instrumentation on the hot path. CI gates its ns/op within
// 5% of the nil-registry baseline — the "observability is free enough
// to leave on" contract.
func BenchmarkRackTraceMetrics(b *testing.B) { benchRackTrace(b, true, true, 1) }

// BenchmarkRackStepWall is BenchmarkRackStep/servers=16 with the full
// power-delivery chain attached (per-server PSU + shared PDU): the wall
// roll-up is a per-step serial reduction, so its overhead over the plain
// DC step bounds what AC accounting costs.
func BenchmarkRackStepWall(b *testing.B) {
	n := 16
	cfgs := experiments.RackServerConfigs(T3Config(), n)
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	specs := make([]rack.ServerSpec, n)
	for i := range specs {
		specs[i] = rack.ServerSpec{Config: cfgs[i]}
	}
	r, err := rack.New(rack.Config{Servers: specs, Workers: 1, PSU: &psu, PDU: &pdu})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r.SetLoad(i, 70)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step(1)
	}
	b.ReportMetric(float64(r.WallPower()), "wallW")
	b.ReportMetric(float64(r.DCPower()), "dcW")
}

// benchRackACTrace regenerates the AC-side rack experiment — five
// policies, uncapped and capped halves, PSU/PDU losses at the wall — on
// the selected kernel, and reports the headline wall-side quantities plus
// the capped half's rack advances and deferrals.
func benchRackACTrace(b *testing.B, eventStepping bool) {
	base := T3Config()
	ev := experiments.DefaultRackEval()
	ev.EventStepping = eventStepping
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	ev.PSU, ev.PDU = &psu, &pdu
	var res *experiments.RackACResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RackACComparison(base, ev)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.CapW, "autoCapW")
	for _, r := range res.Uncapped {
		switch r.Policy {
		case "round-robin":
			b.ReportMetric(r.WallWh(), "roundRobinWallWh")
			b.ReportMetric(r.LossWh(), "roundRobinLossWh")
		case "cap-aware":
			b.ReportMetric(r.WallWh(), "capAwareWallWh")
		}
	}
	steps, deferrals := 0, 0
	for _, r := range res.Capped {
		steps += r.Sched.RackSteps
		deferrals += r.Sched.Deferrals
		if r.Policy == "cap-aware" {
			b.ReportMetric(float64(r.Sched.Deferrals), "capAwareDeferrals")
			b.ReportMetric(r.Rack.PeakWallPowerW, "capAwareCappedPeakWallW")
		}
	}
	b.ReportMetric(float64(steps), "cappedRackSteps")
	b.ReportMetric(float64(deferrals), "cappedDeferrals")
}

// BenchmarkRackACTrace is the AC-side experiment on the event-driven
// kernel. In the capped half, round-robin, least-utilized and
// leakage-aware cross a cap-deferred queue head in macro windows as far
// as the wall-floor proof reaches (rack.WallFloorSteps), while
// coolest-first and cap-aware, which rank slots by temperature and DC
// draw, retry it every step; cappedRackSteps counts the advances that
// leaves, cappedDeferrals the deferrals, identical to the fixed-dt twin's.
func BenchmarkRackACTrace(b *testing.B) { benchRackACTrace(b, true) }

// BenchmarkRackACTraceFixed is the fixed-dt reference of the same
// experiment: cappedRackSteps is the full grid, five policies long.
func BenchmarkRackACTraceFixed(b *testing.B) { benchRackACTrace(b, false) }

// BenchmarkRackStepFacility is BenchmarkRackStepWall with the CRAC/chiller
// loop attached on top of the delivery chain: the facility roll-up is two
// scalar model evaluations per step, so its overhead over the wall step
// bounds what total-facility accounting costs.
func BenchmarkRackStepFacility(b *testing.B) {
	n := 16
	cfgs := experiments.RackServerConfigs(T3Config(), n)
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	fac := cooling.DefaultFacility(22)
	specs := make([]rack.ServerSpec, n)
	for i := range specs {
		specs[i] = rack.ServerSpec{Config: cfgs[i]}
	}
	r, err := rack.New(rack.Config{Servers: specs, Workers: 1, PSU: &psu, PDU: &pdu, Facility: &fac})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r.SetLoad(i, 70)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step(1)
	}
	b.ReportMetric(float64(r.CoolingPower()), "coolingW")
	b.ReportMetric(r.PUE(), "pue")
}

// BenchmarkRackFacilityTrace regenerates the facility sweep — six
// policies × three cold-aisle setpoints with the CRAC/chiller loop — on
// the event-driven kernel, and reports the headline facility quantities,
// including the sweet-spot setpoint the sweep exists to find.
func BenchmarkRackFacilityTrace(b *testing.B) {
	base := T3Config()
	fe := experiments.DefaultFacilityEval()
	fe.Rack.EventStepping = true
	var rows []experiments.FacilityPolicyResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RackFacilityComparison(base, fe)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Policy == "pue-aware" && r.SetpointC == float64(fe.SetpointsC[0]) {
			b.ReportMetric(r.Rack.PUE, "pueAwareColdPUE")
		}
	}
	sp, wh, err := experiments.FacilitySweetSpot(rows, "pue-aware")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(sp, "sweetSpotC")
	b.ReportMetric(wh, "sweetSpotFacilityWh")
}

// BenchmarkRackFaultTrace runs the full fault-scenario × policy
// degradation catalogue (event-stepped). Reported metrics are the cascade
// scenario's disruption bill under round-robin: requeues, destroyed
// job-seconds and surviving servers.
func BenchmarkRackFaultTrace(b *testing.B) {
	base := T3Config()
	fe := experiments.DefaultFaultEval()
	fe.Rack.EventStepping = true
	var rows []experiments.RackFaultResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RackFaultComparison(base, fe)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Scenario == "cascade" && r.Policy == "round-robin" {
			b.ReportMetric(float64(r.Sched.Requeued), "cascadeRequeued")
			b.ReportMetric(r.Sched.LostJobSeconds, "cascadeLostJobSec")
			b.ReportMetric(float64(r.HealthyAtEnd), "cascadeSurvivors")
		}
	}
}

// BenchmarkSteadyTemp measures the analytic steady-state solve.
func BenchmarkSteadyTemp(b *testing.B) {
	cfg := T3Config()
	for i := 0; i < b.N; i++ {
		if _, err := SteadyTemp(cfg, 75, 2400); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLUTLookup measures one controller table lookup.
func BenchmarkLUTLookup(b *testing.B) {
	table, err := lut.Build(T3Config(), lut.DefaultBuild())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.Lookup(units.Percent(i % 101)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMMCQueue measures the Test-4 M/M/c queueing simulation.
func BenchmarkMMCQueue(b *testing.B) {
	cfg := workload.DefaultShellConfig()
	for i := 0; i < b.N; i++ {
		if _, err := workload.SimulateMMC(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadGenPWM measures LoadGen's duty-cycle evaluation.
func BenchmarkLoadGenPWM(b *testing.B) {
	gen, err := loadgen.New(loadgen.Constant{Level: 40}, loadgen.WithPWMPeriod(30))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Load(float64(i) * 0.5)
	}
}

// --------------------------------------------------------------------------
// Room-scale simulation (internal/room)

// roomOf builds a racks×servers room — the rackOf substrate replicated
// behind the shared default CRAC bank with the neighbor recirculation
// coupling — at a fixed 70% load. Serial workers isolate per-server step
// cost; the room's own overhead (recirc re-anchor, shared-bank COP, the
// cross-rack reductions) is what BenchmarkRoomStep charges on top of
// BenchmarkRackStep.
func roomOf(b *testing.B, racks, servers, workers int) *room.Room {
	b.Helper()
	fac := cooling.DefaultFacility(cooling.DefaultCRAC().ReferenceC)
	specs := make([]room.RackSpec, racks)
	for r := range specs {
		cfgs := experiments.RackServerConfigs(T3Config(), servers)
		srv := make([]rack.ServerSpec, servers)
		for i := range srv {
			srv[i] = rack.ServerSpec{Config: cfgs[i]}
		}
		specs[r] = room.RackSpec{
			Name:   fmt.Sprintf("rack%02d", r),
			Config: rack.Config{Servers: srv},
		}
	}
	rm, err := room.New(room.Config{
		Racks:    specs,
		Workers:  workers,
		Recirc:   room.NeighborMatrix(racks),
		Facility: &fac,
	})
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < racks; r++ {
		for i := 0; i < servers; i++ {
			rm.Rack(r).SetLoad(i, 70)
		}
	}
	return rm
}

// BenchmarkRoomStep measures one 1-second step of a whole room across room
// sizes, 16 servers per rack. Per-server cost is ns/op ÷ servers; the
// acceptance gate holds it within 1.3× of BenchmarkRackStep's per-server
// cost from 1 to 16 racks — the room layer (recirculation, shared CRAC,
// serial reductions) must stay a thin wrapper around rack stepping.
func BenchmarkRoomStep(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("racks=%d", n), func(b *testing.B) {
			rm := roomOf(b, n, 16, 1) // serial: isolates per-server cost from pool scheduling
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rm.Step(1)
			}
			b.ReportMetric(float64(n), "racks")
			b.ReportMetric(float64(n*16), "servers")
		})
	}
}

// BenchmarkRoomStepParallel is BenchmarkRoomStep/racks=16 with the
// per-rack fan-out enabled — the wall-clock win on multicore hosts.
func BenchmarkRoomStepParallel(b *testing.B) {
	rm := roomOf(b, 16, 16, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rm.Step(1)
	}
}

// BenchmarkRoomTrace regenerates the round-robin cell of the room
// policy-comparison experiment at datacenter scale — 16 racks × 64 servers
// on the event kernel — and reports the headline energies plus simPerWall,
// simulated seconds per wall-clock second (settle + measured trace over
// elapsed time). The acceptance gate is simPerWall > 1: a 1024-server room
// must simulate faster than real time, LUT builds included.
func BenchmarkRoomTrace(b *testing.B) {
	ev := experiments.DefaultRoomEval()
	ev.Racks = 16
	ev.Servers = 64
	ev.Rate *= 32 // hold per-server offered load at the 4×8 default
	ev.Policy = "rr"
	ev.EventStepping = true
	var rows []experiments.RoomPolicyResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RoomPolicyComparison(T3Config(), ev)
		if err != nil {
			b.Fatal(err)
		}
	}
	r := rows[0]
	steps := 0
	for _, st := range r.Sched.Kernel {
		steps += st.Advances
	}
	b.ReportMetric(float64(r.Room.Servers), "servers")
	b.ReportMetric(r.WallWh(), "wallWh")
	b.ReportMetric(r.FacilityWh(), "facilityWh")
	b.ReportMetric(float64(steps), "rackSteps")
	simSeconds := (ev.Stabilize + ev.Horizon) * float64(b.N)
	if wall := b.Elapsed().Seconds(); wall > 0 {
		b.ReportMetric(simSeconds/wall, "simPerWall")
	}
}

func fmtSeconds(s float64) string { return strconv.FormatFloat(s, 'g', -1, 64) + "s" }

func fmtCelsius(c units.Celsius) string {
	return strconv.FormatFloat(float64(c), 'g', -1, 64) + "C"
}
