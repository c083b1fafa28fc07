package cooling

import (
	"math"
	"testing"

	"repro/internal/units"
)

// TestZeroHeatIsExactlyFree pins the identity half of the facility
// contract: no heat means exactly zero blower, chiller and total cooling
// power — not merely small.
func TestZeroHeatIsExactlyFree(t *testing.T) {
	f := DefaultFacility(22)
	for _, q := range []float64{0, -1, -1e9} {
		if p := f.CoolingPower(q); p != 0 {
			t.Fatalf("CoolingPower(%g) = %g, want exactly 0", q, p)
		}
		if b, c := f.Split(q); b != 0 || c != 0 {
			t.Fatalf("Split(%g) = %g/%g, want exactly 0/0", q, b, c)
		}
		if p := f.CRAC.BlowerPower(q); p != 0 {
			t.Fatalf("BlowerPower(%g) = %g, want exactly 0", q, p)
		}
		if p := f.Chiller.Power(q, f.CRAC.SupplyC); p != 0 {
			t.Fatalf("Chiller.Power(%g) = %g, want exactly 0", q, p)
		}
	}
}

// TestCOPMonotonicity pins the signs of the COP surrogate: warmer supply
// helps, hotter outdoor air hurts, higher load helps (part-load droop
// recovers), and the floor binds for degenerate parameterizations.
func TestCOPMonotonicity(t *testing.T) {
	m := DefaultChiller()
	if cool, warm := m.COP(5000, 14), m.COP(5000, 26); warm <= cool {
		t.Fatalf("warmer supply must raise COP: %g @14C vs %g @26C", cool, warm)
	}
	if part, full := m.COP(500, 18), m.COP(20000, 18); full <= part {
		t.Fatalf("part load must sag COP: %g @500W vs %g @20kW", part, full)
	}
	hot := m
	hot.OutdoorC = 42
	if m.COP(5000, 18) <= hot.COP(5000, 18) {
		t.Fatalf("hotter outdoor air must lower COP: %g vs %g", m.COP(5000, 18), hot.COP(5000, 18))
	}
	// At the quoted design point (reference supply/outdoor, high load) the
	// COP approaches COP0 from below.
	if cop := m.COP(1e9, m.SupplyRefC); cop > m.COP0 || cop < 0.99*m.COP0 {
		t.Fatalf("design-point COP %g should approach COP0 %g", cop, m.COP0)
	}
	frozen := m
	frozen.SupplyGain = 10 // absurd: COP factor would go negative at cold supply
	if cop := frozen.COP(5000, -100); cop != frozen.MinCOP {
		t.Fatalf("COP floor must bind: got %g, want %g", cop, frozen.MinCOP)
	}
}

// TestCoolingPowerAccounting checks the stage split: the blower is
// proportional to the moved heat, and the chiller removes server heat
// plus blower heat at the setpoint's COP.
func TestCoolingPowerAccounting(t *testing.T) {
	f := DefaultFacility(18)
	const q = 4000.0
	blower, chiller := f.Split(q)
	if want := f.CRAC.BlowerCoeff * q; math.Abs(blower-want) > 1e-12 {
		t.Fatalf("blower %g, want %g", blower, want)
	}
	load := q + blower
	if want := load / f.Chiller.COP(load, f.CRAC.SupplyC); math.Abs(chiller-want) > 1e-12 {
		t.Fatalf("chiller %g, want %g", chiller, want)
	}
	if total := f.CoolingPower(q); math.Abs(total-blower-chiller) > 1e-12 {
		t.Fatalf("CoolingPower %g != blower %g + chiller %g", total, blower, chiller)
	}
	// More heat must never cost less to remove.
	if f.CoolingPower(2*q) <= f.CoolingPower(q) {
		t.Fatal("cooling power must be monotone in heat load")
	}
}

// TestAmbientDelta pins the setpoint wiring: the delta is the setpoint
// relative to the reference, and the default facility is the identity.
func TestAmbientDelta(t *testing.T) {
	if d := DefaultFacility(DefaultCRAC().ReferenceC).AmbientDelta(); d != 0 {
		t.Fatalf("reference setpoint must have zero delta, got %v", d)
	}
	f := DefaultFacility(26)
	if d := f.AmbientDelta(); d != 26-DefaultCRAC().ReferenceC {
		t.Fatalf("delta = %v, want %v", d, 26-DefaultCRAC().ReferenceC)
	}
}

// TestValidation covers the error paths.
func TestValidation(t *testing.T) {
	f := DefaultFacility(18)
	if err := f.Validate(); err != nil {
		t.Fatalf("default facility must validate: %v", err)
	}
	bad := f
	bad.CRAC.BlowerCoeff = -1
	if bad.Validate() == nil {
		t.Fatal("negative blower coefficient must be rejected")
	}
	bad = f
	bad.Chiller.COP0 = 0
	if bad.Validate() == nil {
		t.Fatal("zero COP0 must be rejected")
	}
	bad = f
	bad.Chiller.MinCOP = 0
	if bad.Validate() == nil {
		t.Fatal("zero MinCOP must be rejected")
	}
	bad = f
	bad.Chiller.PartLoadDroop = 1
	if bad.Validate() == nil {
		t.Fatal("full part-load droop must be rejected")
	}
}

// TestValidationRejectsNonFinite sweeps NaN and ±Inf through every model
// field: NaN compares false against any bound, so without explicit
// finiteness checks each of these would pass the range tests and poison
// the power accounting.
func TestValidationRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		crac := []func(*CRACModel){
			func(c *CRACModel) { c.SupplyC = units.Celsius(v) },
			func(c *CRACModel) { c.ReferenceC = units.Celsius(v) },
			func(c *CRACModel) { c.BlowerCoeff = v },
		}
		for i, mut := range crac {
			c := DefaultCRAC()
			mut(&c)
			if c.Validate() == nil {
				t.Errorf("CRAC field %d = %g accepted", i, v)
			}
		}
		chiller := []func(*ChillerModel){
			func(m *ChillerModel) { m.COP0 = v },
			func(m *ChillerModel) { m.SupplyRefC = units.Celsius(v) },
			func(m *ChillerModel) { m.SupplyGain = v },
			func(m *ChillerModel) { m.OutdoorC = units.Celsius(v) },
			func(m *ChillerModel) { m.OutdoorRefC = units.Celsius(v) },
			func(m *ChillerModel) { m.OutdoorPenalty = v },
			func(m *ChillerModel) { m.PartLoadDroop = v },
			func(m *ChillerModel) { m.PartLoadKneeW = v },
			func(m *ChillerModel) { m.MinCOP = v },
		}
		for i, mut := range chiller {
			m := DefaultChiller()
			mut(&m)
			if m.Validate() == nil {
				t.Errorf("chiller field %d = %g accepted", i, v)
			}
		}
		econ := []func(*EconomizerModel){
			func(e *EconomizerModel) { e.OutdoorBelowC = units.Celsius(v) },
			func(e *EconomizerModel) { e.FreeCoeff = v },
		}
		for i, mut := range econ {
			e := DefaultEconomizer()
			mut(&e)
			if e.Validate() == nil {
				t.Errorf("economizer field %d = %g accepted", i, v)
			}
		}
	}
}
