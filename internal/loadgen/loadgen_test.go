package loadgen

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil profile should error")
	}
	if _, err := New(Constant{Level: 50}, WithPWMPeriod(0)); err == nil {
		t.Error("zero PWM period should error")
	}
}

func TestPWMBinaryOutput(t *testing.T) {
	g, err := New(Constant{Level: 40}, WithPWMPeriod(10))
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0.0; ti < 100; ti += 0.5 {
		l := g.Load(ti)
		if l != 0 && l != 100 {
			t.Fatalf("PWM output at %g = %v, want 0 or 100", ti, l)
		}
	}
}

func TestPWMDutyCycleAverage(t *testing.T) {
	for _, target := range []units.Percent{0, 10, 25, 40, 50, 60, 75, 90, 100} {
		g, err := New(Constant{Level: target}, WithPWMPeriod(10))
		if err != nil {
			t.Fatal(err)
		}
		avg := g.AverageLoad(0, 1000, 0.1)
		if math.Abs(float64(avg-target)) > 1.0 {
			t.Errorf("PWM average for %v = %v", target, avg)
		}
	}
}

func TestPWMDutyCycleProperty(t *testing.T) {
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		target := units.Percent(math.Mod(math.Abs(raw), 100))
		g, err := New(Constant{Level: target}, WithPWMPeriod(5))
		if err != nil {
			return false
		}
		avg := g.AverageLoad(0, 500, 0.05)
		return math.Abs(float64(avg-target)) < 1.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWithoutPWM(t *testing.T) {
	g, err := New(Constant{Level: 42}, WithoutPWM())
	if err != nil {
		t.Fatal(err)
	}
	if g.Load(12.3) != 42 {
		t.Fatalf("direct load = %v", g.Load(12.3))
	}
}

func TestAverageLoadDegenerate(t *testing.T) {
	g, _ := New(Constant{Level: 50})
	if g.AverageLoad(10, 10, 1) != 0 || g.AverageLoad(10, 5, 1) != 0 || g.AverageLoad(0, 10, 0) != 0 {
		t.Fatal("degenerate AverageLoad should be 0")
	}
}

func TestConstantProfile(t *testing.T) {
	c := Constant{Level: 150, Dur: 60}
	if c.Target(0) != 100 {
		t.Fatal("constant should clamp")
	}
	if c.Duration() != 60 {
		t.Fatal("duration wrong")
	}
}

func TestStepsProfile(t *testing.T) {
	s, err := NewSteps(300,
		Step{Start: 0, Level: 10},
		Step{Start: 100, Level: 50},
		Step{Start: 200, Level: 90},
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t    float64
		want units.Percent
	}{
		{0, 10}, {50, 10}, {100, 50}, {150, 50}, {200, 90}, {299, 90},
	}
	for _, c := range cases {
		if got := s.Target(c.t); got != c.want {
			t.Errorf("Target(%g) = %v, want %v", c.t, got, c.want)
		}
	}
	if s.Duration() != 300 {
		t.Fatal("duration wrong")
	}
}

func TestStepsValidation(t *testing.T) {
	if _, err := NewSteps(100); err == nil {
		t.Error("no steps should error")
	}
	if _, err := NewSteps(0, Step{0, 10}); err == nil {
		t.Error("zero duration should error")
	}
	if _, err := NewSteps(100, Step{0, 1}, Step{0, 2}); err == nil {
		t.Error("non-increasing starts should error")
	}
	if _, err := NewSteps(100, Step{5, 1}); err == nil {
		t.Error("first step after 0 should error")
	}
}

func TestRampProfile(t *testing.T) {
	r, err := NewRamp([]float64{0, 100, 200}, []units.Percent{0, 100, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ t, want float64 }{
		{-5, 0}, {0, 0}, {50, 50}, {100, 100}, {150, 50}, {200, 0}, {999, 0},
	}
	for _, c := range cases {
		if got := float64(r.Target(c.t)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("ramp Target(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if r.Duration() != 200 {
		t.Fatal("ramp duration wrong")
	}
}

func TestRampValidation(t *testing.T) {
	if _, err := NewRamp([]float64{0}, []units.Percent{0}); err == nil {
		t.Error("single point should error")
	}
	if _, err := NewRamp([]float64{0, 0}, []units.Percent{0, 1}); err == nil {
		t.Error("non-increasing times should error")
	}
	if _, err := NewRamp([]float64{0, 1}, []units.Percent{0}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestSquareProfile(t *testing.T) {
	s := Square{High: 90, Low: 10, HalfPeriod: 300, Dur: 1200}
	if s.Target(0) != 90 || s.Target(299) != 90 {
		t.Fatal("first half wrong")
	}
	if s.Target(300) != 10 || s.Target(599) != 10 {
		t.Fatal("second half wrong")
	}
	if s.Target(600) != 90 {
		t.Fatal("third half wrong")
	}
	degenerate := Square{High: 70, Low: 10, HalfPeriod: 0}
	if degenerate.Target(123) != 70 {
		t.Fatal("degenerate square should hold High")
	}
}

func TestTraceProfile(t *testing.T) {
	tr, err := NewTrace(10, []units.Percent{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Target(-1) != 10 {
		t.Fatal("pre-start should hold first sample")
	}
	if tr.Target(0) != 10 || tr.Target(9.9) != 10 {
		t.Fatal("first bucket wrong")
	}
	if tr.Target(10) != 20 || tr.Target(25) != 30 {
		t.Fatal("later buckets wrong")
	}
	if tr.Target(1e9) != 30 {
		t.Fatal("past-end should hold last sample")
	}
	if tr.Duration() != 30 {
		t.Fatal("duration wrong")
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := NewTrace(0, []units.Percent{1}); err == nil {
		t.Error("zero dt should error")
	}
	if _, err := NewTrace(1, nil); err == nil {
		t.Error("empty trace should error")
	}
}

// TestPoissonTrace covers the rack job-trace generator: determinism,
// arrival ordering, horizon bounds and validation.
func TestPoissonTrace(t *testing.T) {
	cfg := PoissonTraceConfig{Seed: 42, Horizon: 3600, Rate: 0.02, MeanDuration: 300, Demands: []units.Percent{20, 40, 60}}
	a, err := PoissonTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PoissonTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must give identical traces")
	}
	// Expect roughly Rate·Horizon arrivals (72); allow wide slack.
	if len(a) < 30 || len(a) > 150 {
		t.Fatalf("implausible job count %d for rate %g over %g s", len(a), cfg.Rate, cfg.Horizon)
	}
	for i, j := range a {
		if j.Arrival < 0 || j.Arrival >= cfg.Horizon {
			t.Fatalf("job %d arrival %g outside [0,%g)", i, j.Arrival, cfg.Horizon)
		}
		if i > 0 && j.Arrival < a[i-1].Arrival {
			t.Fatalf("arrivals unsorted at %d", i)
		}
		if j.Duration < 0 || j.Demand <= 0 || j.Demand > 100 {
			t.Fatalf("job %d implausible: %+v", i, j)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 7
	c, err := PoissonTrace(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds must give different traces")
	}

	for _, bad := range []PoissonTraceConfig{
		{Seed: 1, Horizon: 0, Rate: 1, MeanDuration: 1, Demands: []units.Percent{50}},
		{Seed: 1, Horizon: 10, Rate: 0, MeanDuration: 1, Demands: []units.Percent{50}},
		{Seed: 1, Horizon: 10, Rate: 1, MeanDuration: 0, Demands: []units.Percent{50}},
		{Seed: 1, Horizon: 10, Rate: 1, MeanDuration: 1},
		{Seed: 1, Horizon: 10, Rate: 1, MeanDuration: 1, Demands: []units.Percent{150}},
	} {
		if _, err := PoissonTrace(bad); err == nil {
			t.Fatalf("config %+v must be rejected", bad)
		}
	}
}

// AverageLoad integrates the generated load over [t0, t1] with the given
// sampling step and returns the mean utilization — a check that PWM hits its
// target.
func (g *Generator) AverageLoad(t0, t1, dt float64) units.Percent {
	if t1 <= t0 || dt <= 0 {
		return 0
	}
	var sum float64
	n := 0
	for t := t0; t < t1; t += dt {
		sum += float64(g.Load(t))
		n++
	}
	return units.Percent(sum / float64(n))
}
