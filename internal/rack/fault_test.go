package rack

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cooling"
	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/units"
)

func faultRack(t *testing.T, workers int, relEvery float64) *Rack {
	t.Helper()
	r, err := New(Config{
		Servers:                testSpecs(t, 4),
		Workers:                workers,
		ReliabilitySampleEvery: relEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestHealthTransitions(t *testing.T) {
	r := faultRack(t, 1, 0)
	for i := 0; i < r.NumServers(); i++ {
		if h := r.Health(i); h != Healthy {
			t.Fatalf("fresh slot %d health %v", i, h)
		}
	}

	// Forced trip: Tripped until the clear (operator reset).
	trip := fault.Event{Kind: fault.ServerTrip, Server: 1, At: 0}
	if err := r.ApplyFault(trip); err != nil {
		t.Fatal(err)
	}
	if h := r.Health(1); h != Tripped {
		t.Fatalf("tripped slot health %v", h)
	}
	if err := r.ClearFault(trip); err != nil {
		t.Fatal(err)
	}
	if h := r.Health(1); h != Healthy {
		t.Fatalf("reset slot health %v", h)
	}

	// Dark slot: Failed beats Tripped, and restoring power revives it.
	dark := fault.Event{Kind: fault.PSUFail, Server: 2, At: 0}
	if err := r.ApplyFault(dark); err != nil {
		t.Fatal(err)
	}
	if h := r.Health(2); h != Failed {
		t.Fatalf("dark slot health %v", h)
	}
	tel := r.Telemetry()
	if tel.Failed != 1 {
		t.Fatalf("telemetry Failed = %d, want 1", tel.Failed)
	}
	if err := r.ClearFault(dark); err != nil {
		t.Fatal(err)
	}
	if h := r.Health(2); h != Healthy {
		t.Fatalf("restored slot health %v", h)
	}

	for _, h := range []Health{Healthy, Tripped, Failed} {
		if h.String() == "" {
			t.Fatalf("health %d has no name", h)
		}
	}
}

func TestApplyFaultValidates(t *testing.T) {
	r := faultRack(t, 1, 0)
	bad := []fault.Event{
		{Kind: fault.PSUFail, Server: 99, At: 0},
		{Kind: fault.FanStick, Server: 0, Fan: 99, At: 0},
		{Kind: fault.Kind(42), At: 0},
	}
	for _, ev := range bad {
		if err := r.ApplyFault(ev); err == nil {
			t.Fatalf("%+v accepted", ev)
		}
	}
}

func TestAmbientFaultsCompose(t *testing.T) {
	r := faultRack(t, 1, 0)
	base := make([]units.Celsius, r.NumServers())
	for i := range base {
		base[i] = r.Server(i).Config().Ambient
	}
	exc := fault.Event{Kind: fault.AmbientExcursion, Server: -1, At: 0, Clear: 10, Severity: 4}
	outage := fault.Event{Kind: fault.CRACOutage, At: 0, Clear: 10}
	if err := r.ApplyFault(exc); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyFault(outage); err != nil {
		t.Fatal(err)
	}
	// Both shifts stack on every server: +4 excursion +8 default outage.
	for i := range base {
		if got := r.Server(i).Config().Ambient; got != base[i]+12 {
			t.Fatalf("server %d ambient %v, want %v", i, got, base[i]+12)
		}
	}
	// Clearing in either order restores the baseline exactly.
	if err := r.ClearFault(outage); err != nil {
		t.Fatal(err)
	}
	if err := r.ClearFault(exc); err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if got := r.Server(i).Config().Ambient; got != base[i] {
			t.Fatalf("server %d ambient %v not restored to %v", i, got, base[i])
		}
	}
}

func TestCRACOutageZeroesCoolingSpend(t *testing.T) {
	fac := cooling.DefaultFacility(cooling.DefaultCRAC().ReferenceC)
	r, err := New(Config{Servers: testSpecs(t, 2), Workers: 1, Facility: &fac})
	if err != nil {
		t.Fatal(err)
	}
	r.SetLoad(0, 50)
	r.SetLoad(1, 50)
	r.Step(60)
	before := r.Telemetry().CoolingEnergyKWh
	if before <= 0 {
		t.Fatal("facility rack should spend cooling energy")
	}
	outage := fault.Event{Kind: fault.CRACOutage, At: 0, Clear: 120}
	if err := r.ApplyFault(outage); err != nil {
		t.Fatal(err)
	}
	r.Step(60)
	during := r.Telemetry().CoolingEnergyKWh
	if during != before {
		t.Fatalf("cooling energy moved during outage: %g -> %g", before, during)
	}
	if err := r.ClearFault(outage); err != nil {
		t.Fatal(err)
	}
	r.Step(60)
	if after := r.Telemetry().CoolingEnergyKWh; after <= during {
		t.Fatal("cooling spend did not resume after the outage cleared")
	}
}

func TestChillerDegradedInflatesCoolingSpend(t *testing.T) {
	run := func(derated bool) float64 {
		fac := cooling.DefaultFacility(cooling.DefaultCRAC().ReferenceC)
		r, err := New(Config{Servers: testSpecs(t, 2), Workers: 1, Facility: &fac})
		if err != nil {
			t.Fatal(err)
		}
		if derated {
			if err := r.ApplyFault(fault.Event{Kind: fault.ChillerDegraded, At: 0, Severity: 0.3}); err != nil {
				t.Fatal(err)
			}
		}
		r.SetLoad(0, 60)
		r.SetLoad(1, 60)
		for i := 0; i < 60; i++ {
			r.Step(1)
		}
		return r.Telemetry().CoolingEnergyKWh
	}
	healthy, degraded := run(false), run(true)
	if degraded <= healthy {
		t.Fatalf("degraded chiller spend %g should exceed healthy %g", degraded, healthy)
	}
}

func TestPSUDroopInflatesWallDraw(t *testing.T) {
	run := func(droop bool) float64 {
		r := faultRack(t, 1, 0)
		if droop {
			for i := 0; i < r.NumServers(); i++ {
				ev := fault.Event{Kind: fault.PSUDroop, Server: i, At: 0, Severity: 0.1}
				if err := r.ApplyFault(ev); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < r.NumServers(); i++ {
			r.SetLoad(i, 60)
		}
		for i := 0; i < 60; i++ {
			r.Step(1)
		}
		return r.Telemetry().WallEnergyKWh
	}
	healthy, drooped := run(false), run(true)
	if drooped <= healthy*1.05 {
		t.Fatalf("drooped wall energy %g should exceed healthy %g by ~11%%", drooped, healthy)
	}
}

// runFaultedRack steps a rack through a deterministic load schedule with a
// mid-run fault sequence and reliability sampling on.
func runFaultedRack(t *testing.T, workers int) Telemetry {
	t.Helper()
	r := faultRack(t, workers, 30)
	events := []fault.Event{
		{Kind: fault.FanStick, Server: 0, Fan: 0, At: 60, Clear: 150},
		{Kind: fault.PSUFail, Server: 2, At: 90, Clear: 180},
		{Kind: fault.CRACOutage, At: 120, Clear: 200},
	}
	applied := make([]bool, len(events))
	cleared := make([]bool, len(events))
	for s := 0; s < 240; s++ {
		now := float64(s)
		for i, ev := range events {
			if !applied[i] && now >= ev.At {
				if err := r.ApplyFault(ev); err != nil {
					t.Fatal(err)
				}
				applied[i] = true
			}
			if applied[i] && !cleared[i] && now >= ev.Clear {
				if err := r.ClearFault(ev); err != nil {
					t.Fatal(err)
				}
				cleared[i] = true
			}
		}
		for i := 0; i < r.NumServers(); i++ {
			if r.Health(i) != Healthy {
				continue
			}
			r.SetLoad(i, units.Percent((s/30*17+23*i)%101))
		}
		r.Step(1)
	}
	return r.Telemetry()
}

// TestFaultedRackDeterministicAcrossWorkers extends the determinism
// contract to degraded runs: fault application, dark-slot skipping and
// reliability sampling must leave the telemetry byte-identical for any
// worker count.
func TestFaultedRackDeterministicAcrossWorkers(t *testing.T) {
	ref := runFaultedRack(t, 1)
	for _, workers := range []int{2, 4} {
		got := runFaultedRack(t, workers)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d faulted telemetry differs:\nserial:   %+v\nparallel: %+v", workers, ref, got)
		}
	}
	if ref.WorstAccel <= 0 || ref.CyclingDamage < 0 {
		t.Fatalf("reliability roll-up missing: %+v", ref)
	}
}

// TestReliabilitySamplingOffIsBitIdentical: a rack with sampling disabled
// must produce telemetry byte-identical to the pre-feature baseline — the
// roll-up fields exactly zero, everything else untouched.
func TestReliabilitySamplingOffIsBitIdentical(t *testing.T) {
	plain := runRack(t, 1)
	if plain.WorstAccel != 0 || plain.WorstAbove75 != 0 || plain.CyclingDamage != 0 {
		t.Fatalf("sampling-off telemetry carries reliability values: %+v", plain)
	}
}

// TestApplyFaultRejectsStackedDerates: a droop or chiller edge that would
// take the summed derate to 1 or more errors and leaves the rack as it
// was — the wall and cooling draws stay finite and positive.
func TestApplyFaultRejectsStackedDerates(t *testing.T) {
	fac := cooling.DefaultFacility(cooling.DefaultCRAC().ReferenceC)
	r, err := New(Config{Servers: testSpecs(t, 2), Workers: 1, Facility: &fac})
	if err != nil {
		t.Fatal(err)
	}
	r.SetLoad(0, 60)
	r.Step(1)
	first := fault.Event{Kind: fault.PSUDroop, Server: 0, At: 0, Clear: 100, Severity: 0.6}
	if err := r.ApplyFault(first); err != nil {
		t.Fatal(err)
	}
	wall := r.ServerWallPower(0)
	if err := r.ApplyFault(fault.Event{Kind: fault.PSUDroop, Server: 0, At: 10, Severity: 0.5}); err == nil {
		t.Fatal("droops summing to 1.1 on one server must be refused")
	}
	if got := r.ServerWallPower(0); got != wall {
		t.Fatalf("refused droop changed slot 0's wall draw: %v, was %v", got, wall)
	}
	if err := r.ApplyFault(fault.Event{Kind: fault.PSUDroop, Server: 1, At: 10, Severity: 0.5}); err != nil {
		t.Fatalf("a droop on another server must apply: %v", err)
	}
	if err := r.ClearFault(first); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyFault(fault.Event{Kind: fault.PSUDroop, Server: 0, At: 100, Severity: 0.5}); err != nil {
		t.Fatalf("a droop after the first cleared must apply: %v", err)
	}

	if err := r.ApplyFault(fault.Event{Kind: fault.ChillerDegraded, At: 0, Severity: 0.7}); err != nil {
		t.Fatal(err)
	}
	r.Step(1)
	cool := r.CoolingPower()
	if err := r.ApplyFault(fault.Event{Kind: fault.ChillerDegraded, At: 0, Severity: 0.3}); err == nil {
		t.Fatal("chiller derates summing to 1 must be refused")
	}
	r.Step(1)
	if got := r.CoolingPower(); got <= 0 || got > 2*cool {
		t.Fatalf("cooling power %v after a refused derate, was %v", got, cool)
	}
	if applied := r.faultsApplied; applied != 4 {
		t.Fatalf("faultsApplied = %d, want 4: refused edges must not count", applied)
	}
}

// TestFaultWindowsCollapse: between its edges a fault is one more constant
// input, so slots inside windowed faults — a stuck fan, a drooping supply,
// a CRAC heat soak on every inlet — and a dark slot collapse a quiet
// window into closed-form sub-windows. The window must match the same
// steps taken one at a time: energies within the macro-stepping budget,
// and the dark slot, whose zero-slope map is exact, within rounding and
// drawing nothing.
func TestFaultWindowsCollapse(t *testing.T) {
	const window, dark = 256, 2
	psu := power.DefaultPSU()
	build := func() *Rack {
		r, err := New(Config{Servers: testSpecs(t, 4), Workers: 1, PSU: &psu})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < r.NumServers(); i++ {
			r.SetLoad(i, 60)
		}
		for s := 0; s < 1200; s++ {
			r.Step(1)
		}
		for _, ev := range []fault.Event{
			{Kind: fault.FanStick, Server: 0, Fan: 0, At: 1200, Clear: 1800},
			{Kind: fault.PSUDroop, Server: 1, At: 1200, Clear: 1800, Severity: 0.1},
			{Kind: fault.PSUFail, Server: dark, At: 1200, Clear: 1800},
			{Kind: fault.CRACOutage, At: 1200, Clear: 1800, Severity: 4},
		} {
			if err := r.ApplyFault(ev); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	macro, plain := build(), build()
	before := make([]server.MacroStats, macro.NumServers())
	for i := range before {
		before[i] = macro.Server(i).MacroStats()
	}
	darkE0 := macro.Server(dark).Energy()
	macro.Advance(1, window)
	for s := 0; s < window; s++ {
		plain.Advance(1, 1) // one plain server.Step per slot
	}
	for i := range before {
		ms := macro.Server(i).MacroStats()
		if n := ms.CollapsedSteps - before[i].CollapsedSteps; n < window/2 {
			t.Errorf("slot %d collapsed %d of %d steps inside its fault windows", i, n, window)
		}
		if d := math.Abs(float64(macro.Server(i).MaxCPUTemp() - plain.Server(i).MaxCPUTemp())); d > 0.05 {
			t.Errorf("slot %d: endpoint die off by %g °C", i, d)
		}
	}
	mt, pt := macro.Telemetry(), plain.Telemetry()
	for _, m := range []struct {
		name string
		a, b float64
	}{{"TotalEnergyKWh", mt.TotalEnergyKWh, pt.TotalEnergyKWh}, {"WallEnergyKWh", mt.WallEnergyKWh, pt.WallEnergyKWh}} {
		if d := math.Abs(m.a-m.b) / m.b; d > 1e-6 {
			t.Errorf("%s off by %g relative: %v vs %v", m.name, d, m.a, m.b)
		}
	}
	ds, ps := macro.Server(dark), plain.Server(dark)
	if ds.Energy() != darkE0 || ds.Breakdown().Total() != 0 {
		t.Errorf("dark slot charged energy %v → %v and draws %v", darkE0, ds.Energy(), ds.Breakdown().Total())
	}
	darkTemps, plainTemps := ds.State().Net.Temps, ps.State().Net.Temps
	for i, a := range darkTemps {
		if d := math.Abs(a - plainTemps[i]); d > 1e-9 {
			t.Errorf("dark node %d off by %g °C: its zero-slope map is exact", i, d)
		}
	}
	if d := math.Abs(float64(ds.Memory().MaxTemp() - ps.Memory().MaxTemp())); d > 1e-9 {
		t.Errorf("dark DIMMs off by %g °C", d)
	}
}
