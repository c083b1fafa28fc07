package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// The paper's fitted constants.
const (
	k1 = 0.4452
	c0 = 10.0
	k2 = 0.3231
	k3 = 0.04749
)

func paperModel() ServerModel {
	return ServerModel{
		IdleFloor: 365,
		Active:    ActiveModel{K1: k1},
		Leakage:   LeakageModel{C: c0, K2: k2, K3: k3},
		Fans:      FanLaw{Coeff: 3.5e-10},
		Memory:    MemoryModel{Idle: 40, KU: 0.86},
	}
}

func TestActiveLinear(t *testing.T) {
	m := ActiveModel{K1: k1}
	if got := m.Power(0); got != 0 {
		t.Fatalf("P(0) = %v", got)
	}
	if got := m.Power(100); math.Abs(float64(got)-44.52) > 1e-9 {
		t.Fatalf("P(100) = %v, want 44.52W", got)
	}
	if got := m.Power(50); math.Abs(float64(got)-22.26) > 1e-9 {
		t.Fatalf("P(50) = %v", got)
	}
	// Clamped outside range.
	if m.Power(-10) != m.Power(0) || m.Power(200) != m.Power(100) {
		t.Fatal("utilization not clamped")
	}
}

func TestLeakageExponential(t *testing.T) {
	m := LeakageModel{C: c0, K2: k2, K3: k3}
	// At 70°C the paper's curve gives ~10 + 0.3231·e^3.3243 ≈ 19.0 W.
	got := float64(m.Power(70))
	if math.Abs(got-19.0) > 0.3 {
		t.Fatalf("Pleak(70) = %g, want ≈19.0", got)
	}
	// Strictly increasing in T.
	prev := m.Power(20)
	for temp := units.Celsius(25); temp <= 95; temp += 5 {
		cur := m.Power(temp)
		if cur <= prev {
			t.Fatalf("leakage not increasing at %v", temp)
		}
		prev = cur
	}
}

func TestLeakageSlopeMatchesFiniteDifference(t *testing.T) {
	m := LeakageModel{C: c0, K2: k2, K3: k3}
	for _, temp := range []units.Celsius{40, 60, 80} {
		h := 1e-5
		fd := (float64(m.Power(temp+units.Celsius(h))) - float64(m.Power(temp))) / h
		if math.Abs(fd-m.Slope(temp)) > 1e-4 {
			t.Fatalf("slope at %v: analytic %g vs fd %g", temp, m.Slope(temp), fd)
		}
	}
}

func TestFanCubic(t *testing.T) {
	f := FanLaw{Coeff: 3.5e-10}
	// Doubling RPM multiplies power by 8.
	p1 := float64(f.Power(2000))
	p2 := float64(f.Power(4000))
	if math.Abs(p2/p1-8) > 1e-9 {
		t.Fatalf("cubic law violated: %g/%g", p2, p1)
	}
	if f.Power(0) != 0 {
		t.Fatal("P(0) != 0")
	}
	if f.Power(-100) != 0 {
		t.Fatal("negative RPM should clamp to 0")
	}
	// Sanity magnitudes for the calibrated bank.
	if p := float64(f.Power(3300)); p < 10 || p > 16 {
		t.Fatalf("Pfan(3300) = %g, expected ~12.6W", p)
	}
}

func TestFanMonotoneProperty(t *testing.T) {
	f := FanLaw{Coeff: 3.5e-10}
	prop := func(a, b float64) bool {
		ra, rb := math.Abs(a), math.Abs(b)
		if math.IsNaN(ra) || math.IsNaN(rb) || ra > 1e6 || rb > 1e6 {
			return true
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		return f.Power(units.RPM(ra)) <= f.Power(units.RPM(rb))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryModel(t *testing.T) {
	m := MemoryModel{Idle: 40, KU: 0.86}
	if got := float64(m.Power(0)); got != 40 {
		t.Fatalf("Pmem(0) = %g", got)
	}
	if got := float64(m.Power(100)); math.Abs(got-126) > 1e-9 {
		t.Fatalf("Pmem(100) = %g, want 126", got)
	}
}

func TestBreakdownTotals(t *testing.T) {
	b := Breakdown{Idle: 365, Active: 44.5, Leakage: 19, Memory: 126, Fan: 12.6}
	if math.Abs(float64(b.Total())-567.1) > 1e-9 {
		t.Fatalf("total = %v", b.Total())
	}
	if math.Abs(float64(b.AboveIdle())-202.1) > 1e-9 {
		t.Fatalf("above idle = %v", b.AboveIdle())
	}
	if b.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestServerModelAt(t *testing.T) {
	s := paperModel()
	b := s.At(100, 70, 2400)
	if b.Active != s.Active.Power(100) || b.Leakage != s.Leakage.Power(70) || b.Fan != s.Fans.Power(2400) {
		t.Fatal("breakdown components inconsistent")
	}
	// Full-load peak at default fan speed should be in the high 500s W:
	// the back-solved Table I calibration.
	peak := float64(s.At(100, 60, 3300).Total())
	if peak < 520 || peak > 580 {
		t.Fatalf("peak power = %g, want ~540W calibration", peak)
	}
}

func TestCPUHeatExcludesFanAndMemory(t *testing.T) {
	s := paperModel()
	h := s.CPUHeat(50, 60)
	want := s.Active.Power(50) + s.Leakage.Power(60)
	if h != want {
		t.Fatalf("CPUHeat = %v, want %v", h, want)
	}
}

func TestPSUModel(t *testing.T) {
	p := PSUModel{Eta0: 0.94, Droop: 0.10, Knee: 100}
	if p.Wall(0) != 0 {
		t.Fatal("Wall(0) != 0")
	}
	// Efficiency improves with load.
	if !(p.Efficiency(50) < p.Efficiency(500)) {
		t.Fatal("efficiency should rise with load")
	}
	// Wall power always exceeds DC power.
	for _, dc := range []units.Watts{10, 100, 400, 700} {
		if p.Wall(dc) <= dc {
			t.Fatalf("wall %v <= dc %v", p.Wall(dc), dc)
		}
	}
	// Efficiency floor guards degenerate parameters, which Validate
	// rejects.
	bad := PSUModel{Eta0: 0.0, Droop: 1.0, Knee: 0}
	if bad.Efficiency(10) < 0.05 {
		t.Fatal("efficiency floor not applied")
	}
	if bad.Validate() == nil {
		t.Fatal("degenerate PSU validated")
	}
}

// TestCurveValidateRejects: every malformed curve is a configuration
// error, for both stages — including the one whose Wall falls as the load
// rises (Eta0 0.5, Droop 0.9, Knee 100: 2 000 W at 100 W DC, 1 000 W at
// 200 W) and NaN parameters, which would otherwise surface only at the
// divergence guard.
func TestCurveValidateRejects(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name              string
		eta0, droop, knee float64
	}{
		{"droop above eta0", 0.5, 0.9, 100},
		{"droop equals eta0", 0.9, 0.9, 100},
		{"negative droop", 0.9, -0.1, 100},
		{"zero eta0", 0, 0, 100},
		{"negative eta0", -0.5, 0, 100},
		{"eta0 above one", 1.2, 0.1, 100},
		{"zero knee", 0.94, 0.1, 0},
		{"negative knee", 0.94, 0.1, -5},
		{"NaN eta0", nan, 0.1, 100},
		{"NaN droop", 0.94, nan, 100},
		{"NaN knee", 0.94, 0.1, nan},
		{"infinite knee", 0.94, 0.1, inf},
		{"infinite droop", 0.94, -inf, 100},
	} {
		if err := (PSUModel{Eta0: c.eta0, Droop: c.droop, Knee: c.knee}).Validate(); err == nil {
			t.Errorf("PSU %s: validated", c.name)
		}
		if err := (PDUModel{Eta0: c.eta0, Droop: c.droop, Knee: c.knee}).Validate(); err == nil {
			t.Errorf("PDU %s: validated", c.name)
		}
	}
	// The counterexample really is non-monotone, which is why it must go.
	p := PSUModel{Eta0: 0.5, Droop: 0.9, Knee: 100}
	if !(p.Wall(200) < p.Wall(100)) {
		t.Fatalf("counterexample lost: Wall(100) %v, Wall(200) %v", p.Wall(100), p.Wall(200))
	}
	for _, err := range []error{DefaultPSU().Validate(), DefaultPDU().Validate(),
		(PSUModel{Eta0: 1, Droop: 0, Knee: 1}).Validate()} {
		if err != nil {
			t.Errorf("valid curve rejected: %v", err)
		}
	}
}

// TestValidCurveWallNondecreasing is the property the wall-floor proof
// stands on: over random valid curves, the input power of a PSU — also
// scaled by a slot droop derate 1/(1−d), d < 1 — and of a PDU never falls
// as the load rises.
func TestValidCurveWallNondecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	for trial := 0; trial < 2000; trial++ {
		eta0 := 0.01 + 0.99*rng.Float64()
		droop := eta0 * rng.Float64()
		if rng.Intn(8) == 0 {
			droop = math.Nextafter(eta0, 0) // the edge of the valid range
		}
		knee := math.Exp(rng.Float64()*12 - 4) // ~0.02 W … 3 kW
		derate := 0.999 * rng.Float64()
		psu := PSUModel{Eta0: eta0, Droop: droop, Knee: knee}
		pdu := PDUModel{Eta0: eta0, Droop: droop, Knee: knee}
		if err := psu.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := pdu.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		scale := math.Exp(rng.Float64()*14 - 4)
		prevPSU, prevPDU := -1.0, -1.0
		for k := 0; k <= 200; k++ {
			load := units.Watts(scale * float64(k) / 100)
			w := float64(psu.Wall(load)) / (1 - derate)
			d := float64(pdu.Wall(load))
			if w < prevPSU || d < prevPDU {
				t.Fatalf("trial %d (%+v, derate %g): input falls at load %v: PSU %g→%g, PDU %g→%g",
					trial, psu, derate, load, prevPSU, w, prevPDU, d)
			}
			prevPSU, prevPDU = w, d
		}
	}
}

func TestPSUZeroLoadEfficiency(t *testing.T) {
	p := DefaultPSU()
	// The curve's zero-load limit is Eta0−Droop, well above the 5% floor.
	want := p.Eta0 - p.Droop
	if got := p.Efficiency(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Efficiency(0) = %g, want %g", got, want)
	}
	// Zero (and negative) DC load draws nothing from the wall: an off
	// server cannot consume AC power through the efficiency curve.
	if p.Wall(0) != 0 || p.Wall(-5) != 0 {
		t.Fatal("zero/negative load must draw zero wall power")
	}
	// Negative load clamps to the zero-load efficiency, not beyond.
	if got := p.Efficiency(-100); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Efficiency(-100) = %g, want clamp to %g", got, want)
	}
}

func TestPSUKneeCrossover(t *testing.T) {
	p := DefaultPSU()
	// At exactly the knee, half the droop is recovered:
	// eta(Knee) = Eta0 − Droop/2.
	want := p.Eta0 - p.Droop/2
	if got := p.Efficiency(units.Watts(p.Knee)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Efficiency(knee) = %g, want %g", got, want)
	}
	// The curve is strictly increasing through the knee and approaches
	// Eta0 from below at high load.
	below := p.Efficiency(units.Watts(p.Knee / 2))
	at := p.Efficiency(units.Watts(p.Knee))
	above := p.Efficiency(units.Watts(p.Knee * 2))
	if !(below < at && at < above && above < p.Eta0) {
		t.Fatalf("knee crossover not monotone: %g %g %g (eta0 %g)", below, at, above, p.Eta0)
	}
}

func TestPSUWallMonotoneInLoad(t *testing.T) {
	// More DC out always needs more AC in — the property power-capped
	// placement relies on (a deferred job can never lower the wall draw).
	p := DefaultPSU()
	prev := p.Wall(0)
	for dc := units.Watts(10); dc <= 1200; dc += 10 {
		cur := p.Wall(dc)
		if cur <= prev {
			t.Fatalf("wall draw not increasing at %v", dc)
		}
		prev = cur
	}
}

func TestPDUModel(t *testing.T) {
	d := DefaultPDU()
	if d.Wall(0) != 0 {
		t.Fatal("idle PDU must draw nothing")
	}
	// Same curve family as the PSU: zero-load limit, knee crossover.
	if got, want := d.Efficiency(0), d.Eta0-d.Droop; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Efficiency(0) = %g, want %g", got, want)
	}
	if got, want := d.Efficiency(units.Watts(d.Knee)), d.Eta0-d.Droop/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Efficiency(knee) = %g, want %g", got, want)
	}
	// A rack-scale load passes with low single-digit losses.
	if eta := d.Efficiency(8000); eta < 0.95 || eta >= d.Eta0 {
		t.Fatalf("Efficiency(8kW) = %g, want in [0.95, %g)", eta, d.Eta0)
	}
	for _, w := range []units.Watts{100, 2000, 10000} {
		if d.Wall(w) <= w {
			t.Fatalf("PDU wall %v <= load %v", d.Wall(w), w)
		}
	}
}

func TestDefaultChainComposition(t *testing.T) {
	// A typical 8-server rack point: per-server DC through the PSU, summed,
	// through the PDU. The wall draw must exceed DC by the compounded
	// losses — between ~6% (asymptotes) and ~20% (floors) overall.
	psu, pdu := DefaultPSU(), DefaultPDU()
	perServer := units.Watts(550)
	var acIn units.Watts
	for i := 0; i < 8; i++ {
		acIn += psu.Wall(perServer)
	}
	wall := float64(pdu.Wall(acIn))
	dc := float64(perServer) * 8
	if ratio := wall / dc; ratio < 1.06 || ratio > 1.20 {
		t.Fatalf("chain amplification %g, want in [1.06, 1.20]", ratio)
	}
}

func TestLeakageTradeoffConvexity(t *testing.T) {
	// The core insight of Fig 2(a): over the operating range there is an
	// interior minimum of fan+leakage power. Emulate with the calibrated
	// steady-state map: higher RPM → lower temp → less leakage, more fan.
	s := paperModel()
	rpms := []units.RPM{1800, 2400, 3000, 3600, 4200}
	// Steady temps at 100% util from the calibrated anchors.
	temps := []units.Celsius{85, 68, 60, 55, 52}
	sum := make([]float64, len(rpms))
	for i := range rpms {
		sum[i] = float64(s.Fans.Power(rpms[i]) + s.Leakage.Power(temps[i]))
	}
	// Minimum strictly inside the range, at 2400 RPM (index 1).
	minIdx := 0
	for i, v := range sum {
		if v < sum[minIdx] {
			minIdx = i
		}
	}
	if minIdx != 1 {
		t.Fatalf("fan+leak minimum at %v, want 2400RPM; sums=%v", rpms[minIdx], sum)
	}
}
