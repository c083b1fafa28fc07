package rack

import (
	"reflect"
	"testing"

	"repro/internal/control"
	"repro/internal/server"
	"repro/internal/units"
)

// testSpecs builds a small heterogeneous rack: ambient gradient, mixed
// DIMM counts, distinct noise seeds, each server under a bang-bang
// controller (stateful, so fresh instances per rack).
func testSpecs(t *testing.T, n int) []ServerSpec {
	t.Helper()
	specs := make([]ServerSpec, n)
	for i := range specs {
		cfg := server.T3Config()
		cfg.Ambient = units.Celsius(21 + 3*(i%4))
		cfg.NoiseSeed = int64(1 + 97*i)
		if i%2 == 1 {
			cfg.Mem.NumDIMMs = 24
		}
		bb, err := control.NewBangBang(control.DefaultBangBang())
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = ServerSpec{Config: cfg, Controller: bb}
	}
	return specs
}

// runRack steps a rack through a deterministic load schedule and returns
// its telemetry.
func runRack(t *testing.T, workers int) Telemetry {
	t.Helper()
	r, err := New(Config{Servers: testSpecs(t, 6), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 240; s++ {
		for i := 0; i < r.NumServers(); i++ {
			r.SetLoad(i, units.Percent((s/30*17+23*i)%101))
		}
		r.Step(1)
	}
	return r.Telemetry()
}

// TestRackStepDeterministicAcrossWorkers is the determinism contract:
// aggregate metrics must be byte-identical for the serial reference path
// and any parallel worker count. Under -race this also proves the slot-i
// write isolation of the fan-out.
func TestRackStepDeterministicAcrossWorkers(t *testing.T) {
	ref := runRack(t, 1)
	for _, workers := range []int{2, 4, 8} {
		got := runRack(t, workers)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d telemetry differs from serial:\nserial:   %+v\nparallel: %+v", workers, ref, got)
		}
	}
	if ref.Servers != 6 || ref.TotalEnergyKWh <= 0 || ref.FanEnergyKWh <= 0 {
		t.Fatalf("implausible telemetry: %+v", ref)
	}
	if ref.MaxCPUTempC <= float64(server.T3Config().Ambient) {
		t.Fatalf("max CPU temp %.1f should exceed ambient", ref.MaxCPUTempC)
	}
	if ref.MaxInletC <= 21 {
		t.Fatalf("max inlet %.1f should exceed the coldest ambient", ref.MaxInletC)
	}
}

// TestRackHeterogeneousAmbients: with identical zero load, the hot-aisle
// server must run hotter than the cold-aisle one — the gradient placement
// policies exploit.
func TestRackHeterogeneousAmbients(t *testing.T) {
	r, err := New(Config{Servers: testSpecs(t, 4), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 120; s++ {
		r.Step(1)
	}
	cold := r.Server(0).MaxCPUTemp() // ambient 21
	hot := r.Server(3).MaxCPUTemp()  // ambient 30
	if hot <= cold {
		t.Fatalf("hot-aisle server (%v) should run hotter than cold-aisle (%v)", hot, cold)
	}
}

// TestRackFanChangeAccounting: controllers that command speed changes must
// be counted per server and reset with accounting.
func TestRackFanChangeAccounting(t *testing.T) {
	specs := testSpecs(t, 2)
	r, err := New(Config{Servers: specs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Heavy load drives temperatures up and forces bang-bang activity.
	for s := 0; s < 600; s++ {
		r.SetLoad(0, 100)
		r.SetLoad(1, 100)
		r.Step(1)
	}
	tel := r.Telemetry()
	if tel.FanChanges == 0 {
		t.Fatal("expected bang-bang fan activity under full load")
	}
	if tel.FanChanges != r.FanChanges(0)+r.FanChanges(1) {
		t.Fatal("telemetry fan changes must equal the per-server sum")
	}
	r.ResetAccounting()
	tel = r.Telemetry()
	if tel.FanChanges != 0 || tel.TotalEnergyKWh != 0 {
		t.Fatalf("ResetAccounting left %+v", tel)
	}
}

// TestRackValidation covers constructor errors.
func TestRackValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty rack must be rejected")
	}
	bad := server.T3Config()
	bad.RDie = -1
	if _, err := New(Config{Servers: []ServerSpec{{Config: bad}}}); err == nil {
		t.Fatal("invalid server config must be rejected")
	}
}

// TestRackNamesAndLoads covers the accessors the scheduler relies on.
func TestRackNamesAndLoads(t *testing.T) {
	specs := testSpecs(t, 2)
	specs[0].Name = "cold-a"
	r, err := New(Config{Servers: specs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name(0) != "cold-a" || r.Name(1) != "srv01" {
		t.Fatalf("names: %q %q", r.Name(0), r.Name(1))
	}
	r.SetLoad(1, 130) // must clamp
	if r.Load(1) != 100 {
		t.Fatalf("load clamp: %v", r.Load(1))
	}
}

// FanChanges returns how many fan-speed changes server i's controller has
// commanded since construction or the last ResetAccounting.
func (r *Rack) FanChanges(i int) int { return r.servers[i].fanChanges }

// FacilityPower returns the instantaneous total facility draw: the rack's
// wall power plus the cooling power removing it as heat.
func (r *Rack) FacilityPower() units.Watts { return units.Watts(r.lastWallW + r.lastCoolW) }

// DCEnergyJoules returns the integrated DC energy meter in Joules since
// construction or the last ResetAccounting (Σ server energy as charged by
// the rack's own per-step/per-window integration).
func (r *Rack) DCEnergyJoules() float64 { return r.dcEnergyJ }
