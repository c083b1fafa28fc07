package server

import (
	"math"
	"testing"

	"repro/internal/units"
)

func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(T3Config())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	good := T3Config()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := T3Config()
	bad.RDie = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero RDie should fail")
	}
	bad = T3Config()
	bad.CriticalTemp = 20
	if err := bad.Validate(); err == nil {
		t.Error("critical below ambient should fail")
	}
	bad = T3Config()
	bad.TargetMaxTemp = 95
	if err := bad.Validate(); err == nil {
		t.Error("target above critical should fail")
	}
	bad = T3Config()
	bad.CPU.Sockets = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad topology should fail")
	}
}

func TestNewStartsNearAmbientIdle(t *testing.T) {
	s := newServer(t)
	temp := s.MaxCPUTemp()
	if temp < 24 || temp > 40 {
		t.Fatalf("idle equilibrium temp = %v, want ~30°C", temp)
	}
	if s.Utilization() != 0 {
		t.Fatal("server not idle at start")
	}
	if s.Tripped() {
		t.Fatal("tripped at start")
	}
}

// steadyAt runs the server at a fixed load and fan speed until settled and
// returns the die temperature.
func steadyAt(t *testing.T, u units.Percent, r units.RPM, seconds float64) units.Celsius {
	t.Helper()
	s := newServer(t)
	s.SetLoad(u)
	s.Fans().SetAll(r)
	for i := 0.0; i < seconds; i += 5 {
		s.Step(5)
	}
	return s.MaxCPUTemp()
}

func TestFig1aSteadyStateAnchors(t *testing.T) {
	// The calibration anchors from Fig. 1(a) at 100% utilization.
	cases := []struct {
		rpm  units.RPM
		want units.Celsius
		tol  units.Celsius
	}{
		{1800, 85, 4},
		{2400, 68, 4},
		{3000, 60, 4},
		{3600, 55, 4},
		{4200, 52, 4},
	}
	for _, c := range cases {
		got := steadyAt(t, 100, c.rpm, 3600)
		if math.Abs(float64(got-c.want)) > float64(c.tol) {
			t.Errorf("steady temp at %v = %v, want %v ± %v", c.rpm, got, c.want, c.tol)
		}
	}
}

func TestSteadyTempMonotonicInUtilAndRPM(t *testing.T) {
	cfg := T3Config()
	var prev units.Celsius
	for i, u := range []units.Percent{0, 25, 50, 75, 100} {
		temp, err := SteadyTemp(cfg, u, 2400)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && temp <= prev {
			t.Fatalf("steady temp not increasing with util at %v", u)
		}
		prev = temp
	}
	prev = 200
	for _, r := range []units.RPM{1800, 2400, 3000, 3600, 4200} {
		temp, err := SteadyTemp(cfg, 100, r)
		if err != nil {
			t.Fatal(err)
		}
		if temp >= prev {
			t.Fatalf("steady temp not decreasing with RPM at %v", r)
		}
		prev = temp
	}
}

func TestSteadyTempMatchesIntegration(t *testing.T) {
	cfg := T3Config()
	want, err := SteadyTemp(cfg, 75, 2400)
	if err != nil {
		t.Fatal(err)
	}
	got := steadyAt(t, 75, 2400, 3600)
	if math.Abs(float64(got-want)) > 1.0 {
		t.Fatalf("integrated %v vs analytic %v", got, want)
	}
}

func TestSteadyTempRunawayDetection(t *testing.T) {
	cfg := T3Config()
	cfg.Ambient = 45 // hot data center + low fan = runaway
	if _, err := SteadyTemp(cfg, 100, 1800); err == nil {
		t.Fatal("expected runaway error at 45°C ambient, 1800 RPM, 100% load")
	}
}

func TestSettlingTimeDependsOnFanSpeed(t *testing.T) {
	// Fig. 1(a): 1800 RPM settles in ~15 min, 4200 RPM in ~5-8 min.
	measure := func(rpm units.RPM) (settle float64, final units.Celsius) {
		s := newServer(t)
		s.SetLoad(100)
		s.Fans().SetAll(rpm)
		var temps []float64
		for i := 0; i < 720; i++ { // 1 h in 5 s steps
			s.Step(5)
			temps = append(temps, float64(s.MaxCPUTemp()))
		}
		final = units.Celsius(temps[len(temps)-1])
		for i, temp := range temps {
			if math.Abs(temp-float64(final)) < 1 {
				return float64(i+1) * 5, final
			}
		}
		return 3600, final
	}
	slow, _ := measure(1800)
	fast, _ := measure(4200)
	if fast >= slow {
		t.Fatalf("4200 RPM settle %gs should be faster than 1800 RPM %gs", fast, slow)
	}
	if slow < 600 || slow > 1800 {
		t.Errorf("1800 RPM settling %gs, want ~900-1200s (15 min)", slow)
	}
	if fast > 700 {
		t.Errorf("4200 RPM settling %gs, want ≲ 8 min", fast)
	}
}

func TestFastTransientJump(t *testing.T) {
	// Fig. 1(b): idle→full step raises die temp 5-8 °C within 30 s.
	s := newServer(t)
	s.Fans().SetAll(1800)
	for i := 0; i < 360; i++ {
		s.Step(5)
	}
	before := s.MaxCPUTemp()
	s.SetLoad(100)
	for i := 0; i < 6; i++ {
		s.Step(5)
	}
	jump := float64(s.MaxCPUTemp() - before)
	if jump < 4 || jump > 12 {
		t.Fatalf("30s jump = %g °C, want near the paper's 5-8 °C", jump)
	}
}

func TestEnergyAccounting(t *testing.T) {
	s := newServer(t)
	s.ResetAccounting()
	// Hold constant conditions so energy ≈ P·t.
	for i := 0; i < 60; i++ {
		s.Step(1)
	}
	p := float64(s.Breakdown().Total())
	e := float64(s.Energy())
	if math.Abs(e-p*60) > p*0.02*60 {
		t.Fatalf("energy %g vs P·t %g", e, p*60)
	}
	if s.FanEnergy() <= 0 || s.FanEnergy() >= s.Energy() {
		t.Fatalf("fan energy %v out of bounds vs total %v", s.FanEnergy(), s.Energy())
	}
	s.ResetAccounting()
	if s.Energy() != 0 || s.PeakPower() != 0 || s.FanEnergy() != 0 {
		t.Fatal("accounting not reset")
	}
}

func TestPeakPowerTracksMaximum(t *testing.T) {
	s := newServer(t)
	s.ResetAccounting()
	s.Step(1)
	idleP := s.Breakdown().Total()
	s.SetLoad(100)
	for i := 0; i < 30; i++ {
		s.Step(1)
	}
	if s.PeakPower() <= idleP {
		t.Fatalf("peak %v should exceed idle %v", s.PeakPower(), idleP)
	}
	fullP := s.Breakdown().Total()
	s.SetLoad(0)
	for i := 0; i < 30; i++ {
		s.Step(1)
	}
	if s.PeakPower() < fullP {
		t.Fatalf("peak %v lost the full-load maximum %v", s.PeakPower(), fullP)
	}
}

func TestPowerBreakdownComponents(t *testing.T) {
	s := newServer(t)
	s.SetLoad(100)
	s.Fans().SetAll(3300)
	for i := 0; i < 600; i++ {
		s.Step(5)
	}
	b := s.Breakdown()
	if b.Idle != 365 {
		t.Fatalf("idle floor = %v", b.Idle)
	}
	if math.Abs(float64(b.Active)-44.52) > 0.01 {
		t.Fatalf("active = %v, want 44.52", b.Active)
	}
	// Peak total should be near the calibrated ~540 W.
	if tot := float64(b.Total()); tot < 510 || tot > 580 {
		t.Fatalf("full-load total = %g", tot)
	}
}

func TestThermalTripForcesMaxCooling(t *testing.T) {
	cfg := T3Config()
	cfg.Ambient = 45 // unstable at low fan speed
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLoad(100)
	s.Fans().SetAll(1800)
	for i := 0; i < 2400 && !s.Tripped(); i++ {
		s.Step(5)
	}
	if !s.Tripped() {
		t.Fatalf("expected thermal trip; temp reached %v", s.MaxCPUTemp())
	}
	// Protection must have commanded maximum speed.
	for i := 0; i < 5; i++ {
		s.Step(1)
	}
	if s.Fans().Target() != 4200 {
		t.Fatalf("trip should force 4200 RPM, got %v", s.Fans().Target())
	}
}

func TestSensors(t *testing.T) {
	s := newServer(t)
	s.SetLoad(50)
	for i := 0; i < 120; i++ {
		s.Step(5)
	}
	readings := s.CPUTempSensors()
	if len(readings) != 4 {
		t.Fatalf("CPU temp sensors = %d, want 4 (2 per die)", len(readings))
	}
	truth := float64(s.MaxCPUTemp())
	for _, r := range readings {
		// Within hot-spot/edge placement offsets (±2.5) plus noise.
		if math.Abs(float64(r)-truth) > 4 {
			t.Fatalf("sensor %v too far from truth %g", r, truth)
		}
	}
	// The hot-spot sensor reads above the edge sensor of the same die.
	if readings[0] <= readings[1]-1 || readings[2] <= readings[3]-1 {
		t.Fatalf("hot-spot/edge ordering violated: %v", readings)
	}
	p := float64(s.MeasuredSystemPower())
	if math.Abs(p-float64(s.Breakdown().Total())) > 8 {
		t.Fatalf("power sensor %g too far from %v", p, s.Breakdown().Total())
	}
	fp := float64(s.MeasuredFanPower())
	if math.Abs(fp-float64(s.Fans().Power())) > 3 {
		t.Fatalf("fan power sensor %g too far from %v", fp, s.Fans().Power())
	}
	// The per-core V/I channel reconstructs CPU power within sensor noise.
	cpuTruth := float64(s.Config().Power.CPUHeat(s.Utilization(), s.MaxCPUTemp()))
	cpuMeas := float64(s.MeasuredCPUPower())
	if math.Abs(cpuMeas-cpuTruth) > 8 {
		t.Fatalf("CPU power sensor %g too far from truth %g", cpuMeas, cpuTruth)
	}
}

func TestClockAdvances(t *testing.T) {
	s := newServer(t)
	s.Step(10)
	s.Step(2.5)
	if math.Abs(s.Now()-12.5) > 1e-9 {
		t.Fatalf("clock = %g", s.Now())
	}
	s.Step(0) // no-op
	if s.Now() != 12.5 {
		t.Fatal("zero step advanced clock")
	}
}

func TestRthServerShape(t *testing.T) {
	cfg := T3Config()
	// Rth(1800) ≈ 0.806, Rth(4200) ≈ 0.457 (server-level).
	if got := cfg.RthServer(1800); math.Abs(got-0.806) > 0.01 {
		t.Fatalf("Rth(1800) = %g", got)
	}
	if got := cfg.RthServer(4200); math.Abs(got-0.457) > 0.01 {
		t.Fatalf("Rth(4200) = %g", got)
	}
	// Degenerate RPM must not divide by zero.
	if got := cfg.RthServer(0); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Rth(0) = %g", got)
	}
}

// TestSteadyTempRejectsInvalidMemConfig guards the validation that used to
// come from the per-call mem.Bank construction: an invalid airflow model
// must fail loudly, not silently saturate the preheat.
func TestSteadyTempRejectsInvalidMemConfig(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Mem.AirflowPerRPM = 0 },
		func(c *Config) { c.Mem.AirCp = -1 },
		func(c *Config) { c.Mem.NumDIMMs = 0 },
		func(c *Config) { c.Mem.TimeConstant = 0 },
	} {
		cfg := T3Config()
		mutate(&cfg)
		if _, err := SteadyTemp(cfg, 50, 2400); err == nil {
			t.Errorf("SteadyTemp accepted invalid mem config %+v", cfg.Mem)
		}
	}
}
