package reliability

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestArrheniusReference(t *testing.T) {
	arr := DefaultArrhenius()
	if got := arr.Factor(55); math.Abs(got-1) > 1e-12 {
		t.Fatalf("factor at reference = %g, want 1", got)
	}
	// Hotter → faster aging; colder → slower.
	if arr.Factor(75) <= 1 {
		t.Fatal("hot factor should exceed 1")
	}
	if arr.Factor(35) >= 1 {
		t.Fatal("cold factor should be below 1")
	}
}

func TestArrheniusDoublingRule(t *testing.T) {
	// With Ea=0.7 eV a 10 °C rise around 55-65 °C roughly doubles the rate
	// (the classic rule of thumb).
	arr := DefaultArrhenius()
	ratio := arr.Factor(65) / arr.Factor(55)
	if ratio < 1.7 || ratio > 2.6 {
		t.Fatalf("10°C ratio = %g, want ~2", ratio)
	}
}

func TestArrheniusMonotoneProperty(t *testing.T) {
	arr := DefaultArrhenius()
	f := func(a, b float64) bool {
		ta := math.Mod(math.Abs(a), 80) + 10 // 10..90 °C
		tb := math.Mod(math.Abs(b), 80) + 10
		if math.IsNaN(ta) || math.IsNaN(tb) {
			return true
		}
		if ta > tb {
			ta, tb = tb, ta
		}
		return arr.Factor(units.Celsius(ta)) <= arr.Factor(units.Celsius(tb))+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccelerationFactor(t *testing.T) {
	arr := DefaultArrhenius()
	// Constant trace equals the pointwise factor.
	got, err := arr.AccelerationFactor([]float64{70, 70, 70})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-arr.Factor(70)) > 1e-12 {
		t.Fatalf("constant trace factor = %g", got)
	}
	if _, err := arr.AccelerationFactor(nil); err == nil {
		t.Fatal("empty trace should error")
	}
}

func TestExtractCyclesSquareWave(t *testing.T) {
	// Five full swings 40↔70: expect ~5 cycles of amplitude 30.
	var trace []float64
	for i := 0; i < 5; i++ {
		trace = append(trace, 40, 70)
	}
	trace = append(trace, 40)
	cycles := ExtractCycles(trace, 2)
	if len(cycles) < 4 || len(cycles) > 10 {
		t.Fatalf("cycles = %d, want ~5-10 (half cycles count)", len(cycles))
	}
	for _, c := range cycles {
		if math.Abs(c.AmplitudeC-30) > 1e-9 {
			t.Fatalf("amplitude = %g, want 30", c.AmplitudeC)
		}
		if math.Abs(c.MeanC-55) > 1e-9 {
			t.Fatalf("mean = %g, want 55", c.MeanC)
		}
	}
}

func TestExtractCyclesFlat(t *testing.T) {
	if got := ExtractCycles([]float64{50, 50, 50, 50}, 2); len(got) != 0 {
		t.Fatalf("flat trace cycles = %d", len(got))
	}
	if got := ExtractCycles([]float64{50}, 2); got != nil {
		t.Fatal("short trace should be nil")
	}
}

func TestExtractCyclesIgnoresNoise(t *testing.T) {
	// ±0.5 °C jitter below the 2 °C floor must produce no cycles.
	trace := []float64{60, 60.5, 59.5, 60.3, 59.8, 60.1}
	if got := ExtractCycles(trace, 2); len(got) != 0 {
		t.Fatalf("noise produced %d cycles", len(got))
	}
}

func TestExtractCyclesNestedCycle(t *testing.T) {
	// A small excursion nested in a large swing: rainflow should find both
	// the inner and the outer cycle.
	trace := []float64{40, 80, 60, 70, 40}
	cycles := ExtractCycles(trace, 2)
	var amps []float64
	for _, c := range cycles {
		amps = append(amps, c.AmplitudeC)
	}
	foundInner, foundOuter := false, false
	for _, a := range amps {
		if math.Abs(a-10) < 1e-9 {
			foundInner = true
		}
		if math.Abs(a-40) < 1e-9 {
			foundOuter = true
		}
	}
	if !foundInner || !foundOuter {
		t.Fatalf("amplitudes = %v, want inner 10 and outer 40", amps)
	}
}

func TestCoffinMansonDamage(t *testing.T) {
	cm := DefaultCoffinManson()
	// One 20 °C cycle contributes ~1 damage unit (half+full counting means
	// within a small factor).
	oneCycle := []float64{50, 70, 50}
	d := cm.Damage(oneCycle)
	if d < 0.5 || d > 2.5 {
		t.Fatalf("single-cycle damage = %g, want ~1", d)
	}
	// A 40 °C swing is 2^2.35 ≈ 5.1× worse than a 20 °C swing.
	bigger := cm.Damage([]float64{40, 80, 40})
	if ratio := bigger / d; ratio < 4 || ratio > 6.5 {
		t.Fatalf("damage ratio = %g, want ~5.1", ratio)
	}
	// Degenerate config.
	bad := cm
	bad.ReferenceDT = 0
	if !math.IsNaN(bad.Damage(oneCycle)) {
		t.Fatal("zero reference should be NaN")
	}
}

func TestAnalyzeReport(t *testing.T) {
	trace := []float64{60, 70, 76, 78, 70, 60, 74, 77, 65}
	rep, err := Analyze(trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxTempC != 78 {
		t.Fatalf("max = %g", rep.MaxTempC)
	}
	wantAbove := 3.0 / 9.0
	if math.Abs(rep.TimeAbove75-wantAbove) > 1e-12 {
		t.Fatalf("above75 = %g, want %g", rep.TimeAbove75, wantAbove)
	}
	if rep.Acceleration <= 1 {
		t.Fatalf("acceleration = %g for a hot trace", rep.Acceleration)
	}
	if rep.ThermalCycles == 0 || rep.CyclingDamage <= 0 {
		t.Fatalf("cycles=%d damage=%g", rep.ThermalCycles, rep.CyclingDamage)
	}
	if _, err := Analyze(nil); err == nil {
		t.Fatal("empty trace should error")
	}
}

func TestAnalyzeOrdering(t *testing.T) {
	// A steady-warm trace (LUT-like) must show fewer cycles and less
	// damage than an oscillating trace of the same mean (bang-bang-like).
	steady := make([]float64, 100)
	osc := make([]float64, 100)
	for i := range steady {
		steady[i] = 65
		if i%10 < 5 {
			osc[i] = 55
		} else {
			osc[i] = 75
		}
	}
	sRep, err := Analyze(steady)
	if err != nil {
		t.Fatal(err)
	}
	oRep, err := Analyze(osc)
	if err != nil {
		t.Fatal(err)
	}
	if oRep.CyclingDamage <= sRep.CyclingDamage {
		t.Fatalf("oscillating damage %g should exceed steady %g",
			oRep.CyclingDamage, sRep.CyclingDamage)
	}
	if oRep.ThermalCycles <= sRep.ThermalCycles {
		t.Fatal("oscillating trace should have more cycles")
	}
}
