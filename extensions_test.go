package leakctl

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/reliability"
)

func TestFacadeReliability(t *testing.T) {
	// Oscillating trace accumulates more damage than a steady one.
	steady := make([]float64, 200)
	osc := make([]float64, 200)
	for i := range steady {
		steady[i] = 65
		if i%20 < 10 {
			osc[i] = 55
		} else {
			osc[i] = 75
		}
	}
	sRep, err := reliability.Analyze(steady)
	if err != nil {
		t.Fatal(err)
	}
	oRep, err := reliability.Analyze(osc)
	if err != nil {
		t.Fatal(err)
	}
	if oRep.CyclingDamage <= sRep.CyclingDamage {
		t.Fatalf("oscillating damage %g should exceed steady %g",
			oRep.CyclingDamage, sRep.CyclingDamage)
	}
}

func TestFig3ReliabilityOrdering(t *testing.T) {
	// The quantified version of the paper's reliability argument: the
	// bang-bang controller's thermal cycles cost more fatigue damage than
	// the LUT's steady operation.
	series, err := experiments.Fig3(T3Config(), 42, DefaultEval())
	if err != nil {
		t.Fatal(err)
	}
	reports := map[string]reliability.Report{}
	for _, s := range series {
		rep, err := reliability.Analyze(s.Y)
		if err != nil {
			t.Fatal(err)
		}
		reports[s.Name] = rep
	}
	if reports["Bang-bang"].CyclingDamage <= reports["LUT"].CyclingDamage {
		t.Fatalf("bang damage %g should exceed LUT %g",
			reports["Bang-bang"].CyclingDamage, reports["LUT"].CyclingDamage)
	}
	// All policies stay below the 55 °C-reference Arrhenius unity on the
	// cool Test-3 profile.
	for name, rep := range reports {
		if rep.Acceleration > 1.5 {
			t.Fatalf("%s acceleration %g implausibly high", name, rep.Acceleration)
		}
	}
}
