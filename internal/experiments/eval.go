package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/control"
	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/plot"
	"repro/internal/server"
	"repro/internal/units"
	"repro/internal/workload"
)

// EvalConfig controls a Table I controller run.
type EvalConfig struct {
	Dt          float64 // simulation step (1 s: the LUT polling period)
	Stabilize   float64 // idle seconds before the measured window (paper: 5 min)
	PWM         bool    // duty-cycle the workload
	PWMPeriod   float64
	UtilWindow  float64 // sar-style utilization averaging window, seconds
	SampleEvery float64 // trace sampling period (0 = no traces)
}

// DefaultEval returns the standard Table I configuration.
func DefaultEval() EvalConfig {
	return EvalConfig{
		Dt:          1,
		Stabilize:   5 * 60,
		PWM:         true,
		PWMPeriod:   30,
		UtilWindow:  30,
		SampleEvery: 10,
	}
}

// RunResult carries every Table I column for one (workload, controller)
// pair, plus sampled traces for Fig. 3.
type RunResult struct {
	Workload   string
	Controller string

	EnergyKWh     float64
	FanEnergyKWh  float64
	NetSavingsPct float64 // filled by TableI relative to the baseline
	PeakPowerW    float64
	MaxTempC      float64
	FanChanges    int
	AvgRPM        float64
	Tripped       bool

	// Traces sampled every EvalConfig.SampleEvery seconds.
	TimeMin []float64
	TempC   []float64
	RPM     []float64
	UtilPct []float64
	PowerW  []float64
}

// movingAvg is the sar-style windowed utilization monitor: the controller
// sees the average utilization over the last window seconds rather than the
// instantaneous PWM state. The sum is maintained incrementally — O(1) per
// sample instead of re-summing the window every controller tick. (With PWM
// the samples are exact small integers, so the incremental sum is exact.)
type movingAvg struct {
	window  float64
	dt      float64
	samples []float64
	sum     float64
	idx     int
	full    bool
}

func newMovingAvg(window, dt float64) *movingAvg {
	n := int(window / dt)
	if n < 1 {
		n = 1
	}
	return &movingAvg{window: window, dt: dt, samples: make([]float64, n)}
}

func (m *movingAvg) add(v float64) {
	m.sum += v - m.samples[m.idx]
	m.samples[m.idx] = v
	m.idx++
	if m.idx == len(m.samples) {
		m.idx = 0
		m.full = true
		// Re-sum once per wrap so incremental-update rounding residue
		// cannot accumulate when samples are fractional (non-PWM runs).
		var s float64
		for _, x := range m.samples {
			s += x
		}
		m.sum = s
	}
}

func (m *movingAvg) mean() float64 {
	n := len(m.samples)
	if !m.full {
		n = m.idx
	}
	if n == 0 {
		return 0
	}
	return m.sum / float64(n)
}

// RunControlled evaluates one controller on one workload profile following
// the paper's protocol and returns all Table I metrics.
func RunControlled(cfg server.Config, prof loadgen.Profile, ctrl control.Controller, ec EvalConfig) (RunResult, error) {
	if ec.Dt <= 0 {
		return RunResult{}, fmt.Errorf("experiments: non-positive dt")
	}
	if prof == nil || ctrl == nil {
		return RunResult{}, fmt.Errorf("experiments: nil profile or controller")
	}
	srv, err := server.New(cfg)
	if err != nil {
		return RunResult{}, err
	}
	ctrl.Reset()

	opts := []loadgen.Option{loadgen.WithPWMPeriod(ec.PWMPeriod)}
	if !ec.PWM {
		opts = []loadgen.Option{loadgen.WithoutPWM()}
	}
	gen, err := loadgen.New(prof, opts...)
	if err != nil {
		return RunResult{}, err
	}

	res := RunResult{Controller: ctrl.Name()}
	util := newMovingAvg(ec.UtilWindow, ec.Dt)

	tick := func() {
		// The bang-bang controller acts on Tmax — the hottest CSTH CPU
		// temperature reading — exactly as in Section V of the paper.
		obs := control.Observation{
			Now:         srv.Now(),
			Utilization: units.Percent(util.mean()),
			MaxCPUTemp:  maxC(srv.CPUTempSensorsReuse()),
			CurrentRPM:  srv.Fans().Target(),
		}
		dec := ctrl.Tick(obs)
		if dec.Changed {
			srv.Fans().SetAll(dec.Target)
			res.FanChanges++
		}
	}

	// Idle stabilization with the controller already active, as the paper
	// sets the fan speed at t=0 and idles for 5 minutes.
	for now := 0.0; now < ec.Stabilize; now += ec.Dt {
		srv.SetLoad(0)
		util.add(0)
		tick()
		srv.Step(ec.Dt)
	}

	// Measured window: the 80-minute workload.
	res.FanChanges = 0
	srv.ResetAccounting()
	start := srv.Now()
	dur := prof.Duration()
	if dur <= 0 {
		dur = workload.TestDuration
	}
	var rpmIntegral, maxTemp float64
	nextSample := 0.0
	steps := 0
	for elapsed := 0.0; elapsed < dur; elapsed += ec.Dt {
		srv.SetLoad(gen.Load(elapsed))
		util.add(float64(srv.Utilization()))
		tick()
		srv.Step(ec.Dt)
		steps++

		rpmIntegral += float64(srv.Fans().MeanRPM())
		if t := float64(srv.MaxCPUTemp()); t > maxTemp {
			maxTemp = t
		}
		if ec.SampleEvery > 0 && elapsed >= nextSample {
			res.TimeMin = append(res.TimeMin, (srv.Now()-start)/60)
			res.TempC = append(res.TempC, avgC(srv.CPUTempSensorsReuse()))
			res.RPM = append(res.RPM, float64(srv.Fans().MeanRPM()))
			res.UtilPct = append(res.UtilPct, float64(srv.Utilization()))
			res.PowerW = append(res.PowerW, float64(srv.Breakdown().Total()))
			nextSample += ec.SampleEvery
		}
	}

	res.EnergyKWh = srv.Energy().KWh()
	res.FanEnergyKWh = srv.FanEnergy().KWh()
	res.PeakPowerW = float64(srv.PeakPower())
	res.MaxTempC = maxTemp
	res.AvgRPM = rpmIntegral / float64(steps)
	res.Tripped = srv.Tripped()
	return res, nil
}

// TableIRow is one test workload's comparison across the three controllers.
type TableIRow struct {
	TestID   int
	TestName string
	Default  RunResult
	BangBang RunResult
	LUT      RunResult
}

// IdleEnergyKWh returns the reference idle energy the paper subtracts when
// computing net savings: the uncontrollable floor (chassis + idle memory)
// over the test duration.
func IdleEnergyKWh(cfg server.Config, duration float64) float64 {
	floor := float64(cfg.Power.IdleFloor) + cfg.Mem.IdlePower
	return units.Energy(units.Watts(floor), duration).KWh()
}

// TableI reproduces the paper's Table I: all four test workloads under the
// Default, bang-bang and LUT controllers, with net savings computed against
// the Default baseline after subtracting idle energy. The twelve
// controller×workload runs fan out over all cores; see TableIParallel to
// bound or disable the parallelism.
func TableI(cfg server.Config, seed int64, ec EvalConfig) ([]TableIRow, error) {
	return TableIParallel(cfg, seed, ec, 0)
}

// TableIParallel is TableI with an explicit worker bound: each
// controller×workload run already builds its own server, so the runs are
// embarrassingly parallel. workers ≤ 0 uses GOMAXPROCS; workers = 1 is the
// serial reference path. Results are assembled in workload order and are
// identical for every worker count.
func TableIParallel(cfg server.Config, seed int64, ec EvalConfig, workers int) ([]TableIRow, error) {
	tests, err := workload.AllTests(seed)
	if err != nil {
		return nil, err
	}
	bc := lut.DefaultBuild()
	bc.Workers = workers // workers=1 must mean fully serial, LUT build included
	table, err := lut.Build(cfg, bc)
	if err != nil {
		return nil, err
	}

	var specs []RunSpec
	for _, w := range tests {
		specs = append(specs, controllerSpecs(cfg, table, w, ec)...)
	}
	results, err := RunMany(specs, workers)
	if err != nil {
		return nil, err
	}

	idleKWh := IdleEnergyKWh(cfg, workload.TestDuration)
	rows := make([]TableIRow, 0, len(tests))
	for k, w := range tests {
		rows = append(rows, assembleRow(w, results[3*k:3*k+3], idleKWh))
	}
	return rows, nil
}

// controllerSpecs returns the three Table I runs (Default, bang-bang, LUT)
// for one workload, in the table's column order.
func controllerSpecs(cfg server.Config, table *lut.Table, w workload.Named, ec EvalConfig) []RunSpec {
	return []RunSpec{
		{
			Label: w.Name + "/default", Cfg: cfg, Prof: w.Profile, EC: ec,
			Controller: func() (control.Controller, error) { return control.NewDefault(), nil },
		},
		{
			Label: w.Name + "/bang", Cfg: cfg, Prof: w.Profile, EC: ec,
			Controller: func() (control.Controller, error) { return control.NewBangBang(control.DefaultBangBang()) },
		},
		{
			Label: w.Name + "/lut", Cfg: cfg, Prof: w.Profile, EC: ec,
			Controller: func() (control.Controller, error) { return control.NewLUT(table, control.DefaultLUT()) },
		},
	}
}

// assembleRow combines one workload's three controller results (in
// controllerSpecs order) into a Table I row with net savings filled in.
func assembleRow(w workload.Named, results []RunResult, idleKWh float64) TableIRow {
	row := TableIRow{
		TestID:   w.ID,
		TestName: w.Name,
		Default:  results[0],
		BangBang: results[1],
		LUT:      results[2],
	}
	base := row.Default.EnergyKWh
	denom := base - idleKWh
	if denom > 0 {
		row.BangBang.NetSavingsPct = 100 * (base - row.BangBang.EnergyKWh) / denom
		row.LUT.NetSavingsPct = 100 * (base - row.LUT.EnergyKWh) / denom
	}
	row.Default.Workload = w.Name
	row.BangBang.Workload = w.Name
	row.LUT.Workload = w.Name
	return row
}

// FormatTableI renders rows in the paper's Table I layout.
func FormatTableI(w io.Writer, rows []TableIRow) error {
	headers := []string{"Test", "Control", "Energy(kWh)", "NetSav(%)", "Peak(W)", "MaxT(°C)", "#fan", "AvgRPM"}
	var cells [][]string
	for _, r := range rows {
		for _, res := range []RunResult{r.Default, r.BangBang, r.LUT} {
			sav := "-"
			if res.Controller != "Default" {
				sav = fmt.Sprintf("%.1f", res.NetSavingsPct)
			}
			cells = append(cells, []string{
				fmt.Sprintf("%d", r.TestID),
				res.Controller,
				fmt.Sprintf("%.4f", res.EnergyKWh),
				sav,
				fmt.Sprintf("%.0f", res.PeakPowerW),
				fmt.Sprintf("%.0f", res.MaxTempC),
				fmt.Sprintf("%d", res.FanChanges),
				fmt.Sprintf("%.0f", res.AvgRPM),
			})
		}
	}
	return plot.Table(w, headers, cells)
}

// Fig3 extracts the Test-3 temperature traces for the three controllers —
// the content of the paper's Figure 3. It reuses TableI runs when provided,
// otherwise it runs Test-3 afresh.
func Fig3(cfg server.Config, seed int64, ec EvalConfig) ([]plot.Series, error) {
	if ec.SampleEvery <= 0 {
		ec.SampleEvery = 10
	}
	w, err := workload.ByID(3, seed)
	if err != nil {
		return nil, err
	}
	table, err := lut.Build(cfg, lut.DefaultBuild())
	if err != nil {
		return nil, err
	}
	bb, err := control.NewBangBang(control.DefaultBangBang())
	if err != nil {
		return nil, err
	}
	lc, err := control.NewLUT(table, control.DefaultLUT())
	if err != nil {
		return nil, err
	}
	var out []plot.Series
	for _, ctrl := range []control.Controller{control.NewDefault(), bb, lc} {
		res, err := RunControlled(cfg, w.Profile, ctrl, ec)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig3 %s: %w", ctrl.Name(), err)
		}
		out = append(out, plot.Series{Name: ctrl.Name(), X: res.TimeMin, Y: res.TempC})
	}
	return out, nil
}

// SeriesFromTransients converts Fig. 1 results to plottable series.
func SeriesFromTransients(results []TransientResult) []plot.Series {
	out := make([]plot.Series, 0, len(results))
	for _, r := range results {
		out = append(out, plot.Series{Name: r.Label, X: r.TimeMin, Y: r.TempC})
	}
	return out
}

// SeriesFromTradeoff converts a Fig. 2 curve into (temp, power) series.
func SeriesFromTradeoff(c TradeoffCurve) []plot.Series {
	var temps, fanP, leakP, sum []float64
	for _, p := range c.Points {
		temps = append(temps, float64(p.Temp))
		fanP = append(fanP, float64(p.FanPower))
		leakP = append(leakP, float64(p.Leakage))
		sum = append(sum, float64(p.Sum()))
	}
	label := strings.TrimSpace(fmt.Sprintf("U=%.0f%%", float64(c.Util)))
	return []plot.Series{
		{Name: "Fan power " + label, X: temps, Y: fanP},
		{Name: "Leakage power " + label, X: temps, Y: leakP},
		{Name: "Fan+Leakage " + label, X: temps, Y: sum},
	}
}
