package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/server"
	"repro/internal/units"
)

func TestRunTransientProtocol(t *testing.T) {
	tc := DefaultTransient(4200, 100)
	tc.LoadFor = 15 * 60 // shortened but still settles at 4200
	res, err := RunTransient(server.T3Config(), tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TimeMin) == 0 || len(res.TimeMin) != len(res.TempC) {
		t.Fatalf("trace lengths: %d/%d", len(res.TimeMin), len(res.TempC))
	}
	// The trace covers stabilization + load + idle tail.
	wantDur := (tc.Stabilize + tc.LoadFor + tc.IdleTail) / 60
	last := res.TimeMin[len(res.TimeMin)-1]
	if math.Abs(last-wantDur) > 1 {
		t.Fatalf("trace ends at %g min, want ~%g", last, wantDur)
	}
	// Steady temperature near the Fig. 1(a) anchor for 4200 RPM.
	if res.SteadyC < 48 || res.SteadyC > 57 {
		t.Fatalf("steady temp = %g, want ~52", res.SteadyC)
	}
	// Temperature returns toward idle in the tail.
	finalTemp := res.TempC[len(res.TempC)-1]
	if finalTemp > res.SteadyC-10 {
		t.Fatalf("idle tail temp %g did not drop from %g", finalTemp, res.SteadyC)
	}
}

func TestRunTransientValidation(t *testing.T) {
	tc := DefaultTransient(3000, 50)
	tc.Dt = 0
	if _, err := RunTransient(server.T3Config(), tc); err == nil {
		t.Fatal("zero dt should error")
	}
}

func TestFig1aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long transient sweep")
	}
	results, err := Fig1a(server.T3Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("curves = %d", len(results))
	}
	// Steady temperature decreases with fan speed (85 → 52 span).
	for i := 1; i < len(results); i++ {
		if results[i].SteadyC >= results[i-1].SteadyC {
			t.Fatalf("steady temps not decreasing: %v then %v",
				results[i-1].SteadyC, results[i].SteadyC)
		}
	}
	span := results[0].SteadyC - results[len(results)-1].SteadyC
	if span < 20 {
		t.Fatalf("temp span across fan speeds = %g, want ≳30", span)
	}
	// Settling is slower at 1800 than at 4200.
	if results[0].SettleAt > 0 && results[len(results)-1].SettleAt > 0 &&
		results[0].SettleAt <= results[len(results)-1].SettleAt {
		t.Fatalf("1800 RPM settle %g min should exceed 4200's %g",
			results[0].SettleAt, results[len(results)-1].SettleAt)
	}
}

func TestFig1bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long transient sweep")
	}
	results, err := Fig1b(server.T3Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("curves = %d", len(results))
	}
	// Steady temps increase with utilization.
	for i := 1; i < len(results); i++ {
		if results[i].SteadyC <= results[i-1].SteadyC {
			t.Fatalf("steady temps not increasing with util")
		}
	}
	// PWM produces visible oscillation in the loaded phase at partial load.
	mid := results[1] // 50%
	var loaded []float64
	for i, tm := range mid.TimeMin {
		if tm > 20 && tm < 30 {
			loaded = append(loaded, mid.TempC[i])
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range loaded {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo < 1 {
		t.Fatalf("no PWM thermal oscillation visible: range %g", hi-lo)
	}
}

func TestFig2aConvexWithMinAt2400(t *testing.T) {
	curve, err := Fig2a(server.T3Config())
	if err != nil {
		t.Fatal(err)
	}
	if !curve.IsConvexish() {
		t.Fatal("Fig 2a sum curve is not convex-like")
	}
	opt, err := curve.Optimum()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: minimum around 70 °C corresponding to 2400 RPM.
	if opt.RPM < 2100 || opt.RPM > 2700 {
		t.Fatalf("optimum at %v, want ≈2400 RPM", opt.RPM)
	}
	if opt.Temp < 60 || opt.Temp > 73 {
		t.Fatalf("optimum temp %v, want ≈68-70 °C", opt.Temp)
	}
}

func TestFig2aComponentsMonotone(t *testing.T) {
	curve, err := Fig2a(server.T3Config())
	if err != nil {
		t.Fatal(err)
	}
	// Along rising temperature: leakage rises, fan power falls.
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].Leakage <= curve.Points[i-1].Leakage {
			t.Fatal("leakage not increasing with temperature")
		}
		if curve.Points[i].FanPower >= curve.Points[i-1].FanPower {
			t.Fatal("fan power not decreasing with temperature")
		}
	}
}

func TestFig2bEveryCurveHasOptimum(t *testing.T) {
	curves, err := Fig2b(server.T3Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 6 {
		t.Fatalf("curves = %d", len(curves))
	}
	var prevOptTemp units.Celsius
	for i, c := range curves {
		opt, err := c.Optimum()
		if err != nil {
			t.Fatal(err)
		}
		// Paper: "for all the optimum points, average temperature is never
		// higher than 70°C" (small margin for calibration).
		if opt.Temp > 72 {
			t.Fatalf("U=%v optimum temp %v > 70°C", c.Util, opt.Temp)
		}
		if i > 0 && opt.Temp+10 < prevOptTemp {
			t.Fatalf("optimum temps wildly non-monotonic at U=%v", c.Util)
		}
		prevOptTemp = opt.Temp
	}
}

func TestTradeoffUnknownUtil(t *testing.T) {
	// Even 0% utilization has stable points everywhere.
	c, err := Tradeoff(server.T3Config(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) == 0 {
		t.Fatal("no points at idle")
	}
}

func TestRunControlledValidation(t *testing.T) {
	ec := DefaultEval()
	if _, err := RunControlled(server.T3Config(), nil, control.NewDefault(), ec); err == nil {
		t.Error("nil profile should error")
	}
	prof := loadgen.Constant{Level: 50, Dur: 60}
	if _, err := RunControlled(server.T3Config(), prof, nil, ec); err == nil {
		t.Error("nil controller should error")
	}
	bad := ec
	bad.Dt = 0
	if _, err := RunControlled(server.T3Config(), prof, control.NewDefault(), bad); err == nil {
		t.Error("zero dt should error")
	}
}

func TestRunControlledDefaultBasics(t *testing.T) {
	cfg := server.T3Config()
	prof := loadgen.Constant{Level: 60, Dur: 10 * 60}
	ec := DefaultEval()
	res, err := RunControlled(cfg, prof, control.NewDefault(), ec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Controller != "Default" {
		t.Fatal("controller name")
	}
	// Default holds 3300 the whole time with no changes in the window.
	if res.FanChanges != 0 {
		t.Fatalf("default fan changes = %d", res.FanChanges)
	}
	if math.Abs(res.AvgRPM-3300) > 5 {
		t.Fatalf("default avg RPM = %g", res.AvgRPM)
	}
	if res.EnergyKWh <= 0 || res.PeakPowerW <= 0 || res.MaxTempC <= 0 {
		t.Fatalf("metrics missing: %+v", res)
	}
	// 10 minutes at ~480-520 W is ~0.085 kWh.
	if res.EnergyKWh < 0.05 || res.EnergyKWh > 0.12 {
		t.Fatalf("energy = %g kWh", res.EnergyKWh)
	}
	if len(res.TimeMin) == 0 || len(res.TimeMin) != len(res.TempC) {
		t.Fatal("traces missing")
	}
}

func TestRunControlledLUTSavesEnergy(t *testing.T) {
	cfg := server.T3Config()
	prof := loadgen.Constant{Level: 50, Dur: 20 * 60}
	ec := DefaultEval()

	defRes, err := RunControlled(cfg, prof, control.NewDefault(), ec)
	if err != nil {
		t.Fatal(err)
	}
	table, err := lut.Build(cfg, lut.DefaultBuild())
	if err != nil {
		t.Fatal(err)
	}
	lc, err := control.NewLUT(table, control.DefaultLUT())
	if err != nil {
		t.Fatal(err)
	}
	lutRes, err := RunControlled(cfg, prof, lc, ec)
	if err != nil {
		t.Fatal(err)
	}
	if lutRes.EnergyKWh >= defRes.EnergyKWh {
		t.Fatalf("LUT %g kWh should beat default %g kWh", lutRes.EnergyKWh, defRes.EnergyKWh)
	}
	if lutRes.AvgRPM >= defRes.AvgRPM {
		t.Fatalf("LUT avg RPM %g should be below default %g", lutRes.AvgRPM, defRes.AvgRPM)
	}
	// LUT runs hotter but below the 75 °C reliability target (+ sensor noise).
	if lutRes.MaxTempC <= defRes.MaxTempC {
		t.Fatal("LUT should run hotter than the overcooled default")
	}
	if lutRes.MaxTempC > 76 {
		t.Fatalf("LUT max temp %g violates the 75°C target", lutRes.MaxTempC)
	}
}

func TestMovingAvg(t *testing.T) {
	m := newMovingAvg(3, 1)
	if m.mean() != 0 {
		t.Fatal("empty mean")
	}
	m.add(10)
	if m.mean() != 10 {
		t.Fatalf("mean after 1 = %g", m.mean())
	}
	m.add(20)
	m.add(30)
	if m.mean() != 20 {
		t.Fatalf("mean after 3 = %g", m.mean())
	}
	m.add(40) // evicts 10
	if m.mean() != 30 {
		t.Fatalf("rolling mean = %g", m.mean())
	}
	// Degenerate window still works.
	tiny := newMovingAvg(0.1, 1)
	tiny.add(5)
	if tiny.mean() != 5 {
		t.Fatal("tiny window broken")
	}
}

func TestIdleEnergyKWh(t *testing.T) {
	cfg := server.T3Config()
	got := IdleEnergyKWh(cfg, 4800)
	want := (365.0 + 40.0) * 4800 / 3.6e6
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("idle energy = %g, want %g", got, want)
	}
}

func TestSeriesHelpers(t *testing.T) {
	tr := []TransientResult{{Label: "a", TimeMin: []float64{0, 1}, TempC: []float64{40, 50}}}
	s := SeriesFromTransients(tr)
	if len(s) != 1 || s[0].Name != "a" || len(s[0].X) != 2 {
		t.Fatalf("series = %+v", s)
	}
	curve := TradeoffCurve{Util: 100, Points: []TradeoffPoint{
		{RPM: 4200, Temp: 52, FanPower: 26, Leakage: 14},
		{RPM: 1800, Temp: 85, FanPower: 2, Leakage: 28},
	}}
	ss := SeriesFromTradeoff(curve)
	if len(ss) != 3 || !strings.Contains(ss[2].Name, "Fan+Leakage") {
		t.Fatalf("tradeoff series = %+v", ss)
	}
}

func TestConvexishDetector(t *testing.T) {
	mk := func(sums ...float64) TradeoffCurve {
		c := TradeoffCurve{}
		for i, s := range sums {
			c.Points = append(c.Points, TradeoffPoint{Temp: units.Celsius(i), FanPower: units.Watts(s)})
		}
		return c
	}
	if !mk(5, 3, 2, 4, 8).IsConvexish() {
		t.Error("valley should be convexish")
	}
	if mk(5, 3, 6, 2, 8).IsConvexish() {
		t.Error("double dip should not be convexish")
	}
	if mk(1, 2).IsConvexish() {
		t.Error("two points cannot be convexish")
	}
	if _, err := (TradeoffCurve{}).Optimum(); err == nil {
		t.Error("empty optimum should error")
	}
}

// IsConvexish reports whether the sum decreases to a single minimum and
// then increases along the temperature axis — the qualitative claim of
// Fig. 2(a).
func (c TradeoffCurve) IsConvexish() bool {
	if len(c.Points) < 3 {
		return false
	}
	sums := make([]float64, len(c.Points))
	for i, p := range c.Points {
		sums[i] = float64(p.Sum())
	}
	minIdx := 0
	for i, s := range sums {
		if s < sums[minIdx] {
			minIdx = i
		}
	}
	for i := 1; i <= minIdx; i++ {
		if sums[i] > sums[i-1]+1e-9 {
			return false
		}
	}
	for i := minIdx + 1; i < len(sums); i++ {
		if sums[i] < sums[i-1]-1e-9 {
			return false
		}
	}
	return true
}
