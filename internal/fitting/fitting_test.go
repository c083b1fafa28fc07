package fitting

import (
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/server"
	"repro/internal/units"
)

// syntheticDataset builds points straight from the paper's model plus noise.
func syntheticDataset(noise float64, seed int64) *Dataset {
	const k1, c0, k2, k3 = 0.4452, 10.0, 0.3231, 0.04749
	rng := randx.New(seed)
	ds := &Dataset{}
	temps := map[units.RPM]map[units.Percent]float64{}
	cfg := server.T3Config()
	for _, rpm := range []units.RPM{1800, 2400, 3000, 3600, 4200} {
		temps[rpm] = map[units.Percent]float64{}
		for _, u := range []units.Percent{10, 25, 40, 50, 60, 75, 90, 100} {
			t, err := server.SteadyTemp(cfg, u, rpm)
			if err != nil {
				continue
			}
			temps[rpm][u] = float64(t)
		}
	}
	for rpm, us := range temps {
		for u, t := range us {
			p := k1*float64(u) + c0 + k2*math.Exp(k3*t)
			ds.Points = append(ds.Points, Point{
				Util:     u,
				Temp:     units.Celsius(t + rng.Normal(0, noise/4)),
				CPUPower: units.Watts(p + rng.Normal(0, noise)),
				FanRPM:   rpm,
			})
		}
	}
	return ds
}

func TestFitRecoverExactConstants(t *testing.T) {
	ds := syntheticDataset(0, 1)
	res, err := FitLeakage(ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.K1-0.4452) > 1e-3 {
		t.Errorf("k1 = %g, want 0.4452", res.K1)
	}
	if math.Abs(res.C-10) > 0.2 {
		t.Errorf("C = %g, want 10", res.C)
	}
	if math.Abs(res.K2-0.3231) > 0.05 {
		t.Errorf("k2 = %g, want 0.3231", res.K2)
	}
	if math.Abs(res.K3-0.04749) > 0.003 {
		t.Errorf("k3 = %g, want 0.04749", res.K3)
	}
	if res.RMSE > 0.05 {
		t.Errorf("noise-free RMSE = %g", res.RMSE)
	}
	if res.R2 < 0.999 {
		t.Errorf("R² = %g", res.R2)
	}
}

func TestFitNoisyAccuracy(t *testing.T) {
	// Noise comparable to the real sensors; the paper reports 2.243 W RMSE
	// and 98% accuracy.
	ds := syntheticDataset(2.0, 7)
	res, err := FitLeakage(ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.K1-0.4452) > 0.05 {
		t.Errorf("k1 = %g", res.K1)
	}
	if res.RMSE > 4 {
		t.Errorf("RMSE = %g, want a few Watts", res.RMSE)
	}
	if res.AccuracyPct < 90 {
		t.Errorf("accuracy = %g%%, paper reports ~98%%", res.AccuracyPct)
	}
}

func TestFitPredictConsistency(t *testing.T) {
	ds := syntheticDataset(0, 1)
	res, err := FitLeakage(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range ds.Points {
		pred := float64(res.Predict(pt.Util, pt.Temp))
		if math.Abs(pred-float64(pt.CPUPower)) > 0.2 {
			t.Fatalf("predict(%v, %v) = %g vs %v", pt.Util, pt.Temp, pred, pt.CPUPower)
		}
	}
}

func TestFitRejectsTinyDatasets(t *testing.T) {
	if _, err := FitLeakage(nil); err == nil {
		t.Error("nil dataset should error")
	}
	if _, err := FitLeakage(&Dataset{Points: make([]Point, 3)}); err == nil {
		t.Error("3 points should error")
	}
}

func TestSweepConfigValidate(t *testing.T) {
	good := DefaultSweep()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultSweep()
	bad.Utils = nil
	if err := bad.Validate(); err == nil {
		t.Error("no utils should fail")
	}
	bad = DefaultSweep()
	bad.Dt = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero dt should fail")
	}
}

// TestCollectAndFitEndToEnd runs a reduced characterization sweep against
// the full simulated server and checks the fit recovers the ground truth.
func TestCollectAndFitEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("long characterization sweep")
	}
	cfg := DefaultSweep()
	// Reduced grid keeps the test fast while spanning temps and utils.
	cfg.Utils = []units.Percent{10, 40, 75, 100}
	cfg.RPMs = []units.RPM{1800, 3000, 4200}
	cfg.Warmup = 15 * 60
	cfg.Measure = 5 * 60
	cfg.PerPoll = false

	ds, err := Collect(func() (*server.Server, error) {
		return server.New(server.T3Config())
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Points) != 12 {
		t.Fatalf("points = %d", len(ds.Points))
	}
	for _, pt := range ds.Points {
		if pt.Temp < 25 || pt.Temp > 95 {
			t.Fatalf("implausible temp %v at U=%v RPM=%v", pt.Temp, pt.Util, pt.FanRPM)
		}
		if pt.CPUPower < 5 || pt.CPUPower > 100 {
			t.Fatalf("implausible CPU power %v", pt.CPUPower)
		}
		if pt.FanPower < 0 || pt.FanPower > 40 {
			t.Fatalf("implausible fan power %v", pt.FanPower)
		}
	}

	res, err := FitLeakage(ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.K1-0.4452) > 0.08 {
		t.Errorf("k1 = %g, want ≈0.4452", res.K1)
	}
	if math.Abs(res.K3-0.04749) > 0.015 {
		t.Errorf("k3 = %g, want ≈0.04749", res.K3)
	}
	if res.RMSE > 4 {
		t.Errorf("end-to-end RMSE = %g W, paper reports 2.243 W", res.RMSE)
	}
	if res.AccuracyPct < 90 {
		t.Errorf("accuracy = %g%%", res.AccuracyPct)
	}
}

// TestCollectPerPollMatchesPaperRMSE runs the raw-sample fit the paper
// reports: fitting on individual CSTH polls puts the RMSE at the sensor
// noise level, a couple of Watts (paper: 2.243 W, 98% accuracy).
func TestCollectPerPollMatchesPaperRMSE(t *testing.T) {
	if testing.Short() {
		t.Skip("long characterization sweep")
	}
	cfg := DefaultSweep()
	cfg.Utils = []units.Percent{10, 40, 75, 100}
	cfg.RPMs = []units.RPM{1800, 3000, 4200}
	cfg.Warmup = 15 * 60
	cfg.Measure = 5 * 60

	ds, err := Collect(func() (*server.Server, error) {
		return server.New(server.T3Config())
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 12 combos × 30 polls (5 min / 10 s).
	if len(ds.Points) < 300 {
		t.Fatalf("per-poll points = %d", len(ds.Points))
	}
	res, err := FitLeakage(ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.RMSE < 0.3 || res.RMSE > 4 {
		t.Errorf("per-poll RMSE = %g W, paper reports 2.243 W", res.RMSE)
	}
	if res.AccuracyPct < 90 {
		t.Errorf("accuracy = %g%%, paper reports 98%%", res.AccuracyPct)
	}
	if math.Abs(res.K1-0.4452) > 0.08 {
		t.Errorf("k1 = %g", res.K1)
	}
}

func TestCollectInvalidConfig(t *testing.T) {
	bad := DefaultSweep()
	bad.RPMs = nil
	_, err := Collect(func() (*server.Server, error) {
		return server.New(server.T3Config())
	}, bad)
	if err == nil {
		t.Fatal("invalid sweep should error")
	}
}
