package rack

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cooling"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/units"
)

// chainRack builds a small heterogeneous rack with the full PSU/PDU/CRAC
// chain attached, so every roll-up path is exercised.
func eventChainRack(t testing.TB, n, workers int) *Rack {
	t.Helper()
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	fac := cooling.DefaultFacility(20)
	specs := make([]ServerSpec, n)
	for i := range specs {
		cfg := server.T3Config()
		cfg.Ambient = units.Celsius(21 + 3*(i%4))
		cfg.NoiseSeed = int64(1000 * i)
		specs[i] = ServerSpec{Config: cfg}
	}
	r, err := New(Config{Servers: specs, Workers: workers, PSU: &psu, PDU: &pdu, Facility: &fac})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestAdvanceMatchesSteps pins the macro-window roll-ups to the fixed-dt
// reference: same loads, same span, energies within 1e-6 relative and
// temperature maxima within the macro drift tolerance.
func TestAdvanceMatchesSteps(t *testing.T) {
	const n, span = 4, 1200
	ev := eventChainRack(t, n, 1)
	ref := eventChainRack(t, n, 1)
	for i := 0; i < n; i++ {
		u := units.Percent(20 * (i + 1))
		ev.SetLoad(i, u)
		ref.SetLoad(i, u)
	}
	// Advance ticks no controllers, so tick the reference path's load
	// application the same way: specs carry no controllers, and Step's
	// tick half only applies loads in that case.
	ev.TickControllers(ev.Now())
	ev.Advance(1, span)
	for k := 0; k < span; k++ {
		ref.Step(1)
	}
	a, b := ev.Telemetry(), ref.Telemetry()
	relClose := func(name string, x, y, tol float64) {
		d := math.Abs(x - y)
		if y != 0 {
			d /= math.Abs(y)
		}
		if d > tol {
			t.Errorf("%s: event %g vs fixed %g (rel %g > %g)", name, x, y, d, tol)
		}
	}
	relClose("TotalEnergyKWh", a.TotalEnergyKWh, b.TotalEnergyKWh, 1e-6)
	relClose("FanEnergyKWh", a.FanEnergyKWh, b.FanEnergyKWh, 1e-9)
	relClose("WallEnergyKWh", a.WallEnergyKWh, b.WallEnergyKWh, 1e-6)
	relClose("CoolingEnergyKWh", a.CoolingEnergyKWh, b.CoolingEnergyKWh, 1e-5)
	relClose("FacilityEnergyKWh", a.FacilityEnergyKWh, b.FacilityEnergyKWh, 1e-6)
	relClose("PUE", a.PUE, b.PUE, 1e-5)
	if d := math.Abs(a.MaxCPUTempC - b.MaxCPUTempC); d > 0.3 {
		t.Errorf("MaxCPUTempC: %g vs %g", a.MaxCPUTempC, b.MaxCPUTempC)
	}
	if d := math.Abs(a.MaxDIMMTempC - b.MaxDIMMTempC); d > 0.05 {
		t.Errorf("MaxDIMMTempC: %g vs %g", a.MaxDIMMTempC, b.MaxDIMMTempC)
	}
	if a.MaxInletC != b.MaxInletC {
		t.Errorf("MaxInletC: %g vs %g (constant inputs — must be exact)", a.MaxInletC, b.MaxInletC)
	}
	if ev.Now() != ref.Now() {
		t.Errorf("clocks diverged: %g vs %g", ev.Now(), ref.Now())
	}
	// The facility identity must hold on the macro path too.
	if d := math.Abs(a.FacilityEnergyKWh - (a.WallEnergyKWh + a.CoolingEnergyKWh)); d > 1e-12 {
		t.Errorf("facility identity broken by %g", d)
	}
}

// TestAdvanceWorkerCountInvariant: macro windows keep the determinism
// contract — byte-identical telemetry for any worker bound.
func TestAdvanceWorkerCountInvariant(t *testing.T) {
	run := func(workers int) Telemetry {
		r := eventChainRack(t, 6, workers)
		for i := 0; i < 6; i++ {
			r.SetLoad(i, units.Percent(10*(i+1)))
		}
		for w := 0; w < 5; w++ {
			r.TickControllers(r.Now())
			r.Advance(1, 137)
		}
		return r.Telemetry()
	}
	if a, b := run(1), run(4); a != b {
		t.Fatalf("telemetry differs across worker counts:\n1: %+v\n4: %+v", a, b)
	}
}

// TestRackStepAllocationFree pins the zero-allocation satellite at rack
// scope (serial workers: the fan-out itself is the parallel path's cost):
// Step, and every call of the event kernel's pinned step — the controller
// tick, a single-step Advance, the cap admission query and the divergence
// guard's StateSum — plus the wall-floor proof that lets a capped window
// cross deferrals, walking every slot's die floor (both a proven and a
// refused query, so the bisection runs too).
func TestRackStepAllocationFree(t *testing.T) {
	r := eventChainRack(t, 4, 1)
	for i := 0; i < 4; i++ {
		r.SetLoad(i, 60)
	}
	for k := 0; k < 64; k++ {
		r.Step(1)
	}
	extra := []units.Watts{0, 40, 0, 0}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Step", func() { r.Step(1) }},
		{"TickControllers", func() { r.TickControllers(r.Now()) }},
		{"Advance(1, 1)", func() { r.Advance(1, 1) }},
		{"WallPowerWithAll", func() { _ = r.WallPowerWithAll(extra) }},
		{"StateSum", func() { _ = r.StateSum() }},
		{"WallFloorSteps/proven", func() {
			if r.WallFloorSteps(1, 16, extra, float64(r.WallPower())/2) != 16 {
				t.Fatal("a cap at half the draw must defer every step")
			}
		}},
		{"WallFloorSteps/refused", func() {
			if r.WallFloorSteps(1, 16, extra, 2*float64(r.WallPower())) != 0 {
				t.Fatal("a cap at twice the draw must defer nothing")
			}
		}},
	} {
		if avg := testing.AllocsPerRun(200, c.fn); avg != 0 {
			t.Errorf("Rack.%s allocates %.1f objects/op at steady state, want 0", c.name, avg)
		}
	}
}

// TestStepIsTickThenAdvanceOne pins the fixed-dt step to the event
// kernel's pinned step: after TickControllers at the rack clock,
// Advance(dt, 1) leaves every server — its macro attribution included —
// every energy meter and the whole telemetry bit-identical to Step(dt), on
// a rack with the PSU/PDU chain and a facility attached. The meters are
// the endpoint draws integrated step by step, as the fixed-dt reference
// has always charged them, not the window-mean roll-up of longer windows.
func TestStepIsTickThenAdvanceOne(t *testing.T) {
	const n, steps = 4, 600
	ev := eventChainRack(t, n, 1)
	ref := eventChainRack(t, n, 1)
	var dcJ, wallJ, coolJ, facJ float64
	for k := 0; k < steps; k++ {
		if k%150 == 0 {
			for i := 0; i < n; i++ {
				u := units.Percent((k/150*37 + 23*i) % 101)
				ev.SetLoad(i, u)
				ref.SetLoad(i, u)
			}
		}
		ev.TickControllers(ev.Now())
		ev.Advance(1, 1)
		ref.Step(1)
		wall, cool := float64(ev.WallPower()), float64(ev.CoolingPower())
		dcJ += float64(ev.DCPower())
		wallJ += wall
		coolJ += cool
		facJ += wall + cool
	}
	for i := 0; i < n; i++ {
		a, b := ev.Server(i).State(), ref.Server(i).State()
		if a.Macro.PlainTail != steps {
			t.Fatalf("slot %d macro attribution %+v, want %d plain tail steps", i, a.Macro, steps)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("slot %d state differs:\nadvance %+v\nstep    %+v", i, a, b)
		}
		if ev.Server(i).Breakdown() != ref.Server(i).Breakdown() {
			t.Fatalf("slot %d breakdown differs", i)
		}
	}
	if a, b := ev.StateSum(), ref.StateSum(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("StateSum %v vs %v", a, b)
	}
	if ev.Now() != ref.Now() {
		t.Fatalf("clocks %v vs %v", ev.Now(), ref.Now())
	}
	a, b := ev.Telemetry(), ref.Telemetry()
	for _, m := range []struct {
		name string
		x, y float64
	}{
		{"DC meter vs endpoint draws", ev.DCEnergyJoules(), dcJ},
		{"wall meter vs endpoint draws", ev.WallEnergyJoules(), wallJ},
		{"cooling meter vs endpoint draws", a.CoolingEnergyKWh, units.Joules(coolJ).KWh()},
		{"facility meter vs endpoint draws", a.FacilityEnergyKWh, units.Joules(facJ).KWh()},
		{"DCEnergyJoules", ev.DCEnergyJoules(), ref.DCEnergyJoules()},
		{"WallEnergyKWh", a.WallEnergyKWh, b.WallEnergyKWh},
		{"LossEnergyKWh", a.LossEnergyKWh, b.LossEnergyKWh},
		{"CoolingEnergyKWh", a.CoolingEnergyKWh, b.CoolingEnergyKWh},
		{"FacilityEnergyKWh", a.FacilityEnergyKWh, b.FacilityEnergyKWh},
		{"PUE", a.PUE, b.PUE},
	} {
		if math.Float64bits(m.x) != math.Float64bits(m.y) {
			t.Errorf("%s: %v vs %v", m.name, m.x, m.y)
		}
	}
	if a.CoolingEnergyKWh == 0 || a.LossEnergyKWh == 0 {
		t.Fatalf("the chain and the facility charged nothing: %+v", a)
	}
	if a != b {
		t.Fatalf("telemetry differs:\nadvance %+v\nstep    %+v", a, b)
	}
}
