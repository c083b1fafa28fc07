package leakctl

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fitting"
	"repro/internal/lut"
)

func TestFacadeServerConstruction(t *testing.T) {
	srv, err := NewServer(T3Config())
	if err != nil {
		t.Fatal(err)
	}
	if srv.Utilization() != 0 {
		t.Fatal("new server not idle")
	}
	srv.SetLoad(75)
	srv.Step(10)
	if srv.Utilization() != 75 {
		t.Fatal("load not applied")
	}
}

func TestFacadeSteadyTemp(t *testing.T) {
	temp, err := SteadyTemp(T3Config(), 100, 1800)
	if err != nil {
		t.Fatal(err)
	}
	if temp < 80 || temp > 90 {
		t.Fatalf("steady temp at 1800/100%% = %v, want ~85", temp)
	}
}

func TestFacadeLUTFlow(t *testing.T) {
	table, err := BuildLUT(T3Config(), DefaultLUTBuild())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewLUTController(table, DefaultLUT())
	if err != nil {
		t.Fatal(err)
	}
	dec := ctrl.Tick(Observation{Now: 0, Utilization: 100, CurrentRPM: 3300})
	if !dec.Changed || dec.Target != 2400 {
		t.Fatalf("decision = %+v", dec)
	}
	// JSON round trip.
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := lut.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != len(table.Entries) {
		t.Fatal("round trip mismatch")
	}
}

func TestFacadeControllers(t *testing.T) {
	if NewDefaultController().Name() != "Default" {
		t.Fatal("default name")
	}
	bb, err := NewBangBangController(DefaultBangBang())
	if err != nil {
		t.Fatal(err)
	}
	if bb.Name() != "Bang-bang" {
		t.Fatal("bang name")
	}
}

func TestFacadeWorkloads(t *testing.T) {
	tests, err := TestWorkloads(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) != 4 {
		t.Fatalf("workloads = %d", len(tests))
	}
}

func TestFacadeCharacterizeAndFit(t *testing.T) {
	sweep := fitting.DefaultSweep()
	sweep.Utils = []Percent{25, 75}
	sweep.RPMs = []RPM{1800, 4200}
	sweep.Warmup = 15 * 60
	sweep.Measure = 5 * 60
	sweep.PerPoll = false
	ds, err := fitting.Collect(func() (*Server, error) { return NewServer(T3Config()) }, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Points) != 4 {
		t.Fatalf("points = %d", len(ds.Points))
	}
	fit, err := fitting.FitLeakage(ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.K1-0.4452) > 0.15 {
		t.Fatalf("k1 = %g", fit.K1)
	}
}

func TestFacadeFigures(t *testing.T) {
	curve, err := Fig2a(T3Config())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := curve.Optimum()
	if err != nil {
		t.Fatal(err)
	}
	if opt.RPM != 2400 {
		t.Fatalf("Fig2a optimum = %v", opt.RPM)
	}
	curves, err := experiments.Fig2b(T3Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 6 {
		t.Fatalf("Fig2b curves = %d", len(curves))
	}
}

func TestFacadeRunControlled(t *testing.T) {
	tests, err := TestWorkloads(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunControlled(T3Config(), tests[0].Profile, NewDefaultController(), DefaultEval())
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyKWh <= 0 {
		t.Fatal("no energy recorded")
	}
	var sb strings.Builder
	if err := experiments.FormatTableI(&sb, []experiments.TableIRow{{TestID: 1, TestName: "t", Default: res, BangBang: res, LUT: res}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Energy(kWh)") {
		t.Fatal("format output missing header")
	}
}
