package sched

import (
	"testing"

	"repro/internal/lut"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/server"
	"repro/internal/units"
)

// capRack builds a 2-server fixed-fan rack behind the default delivery
// chain. Servers are constructed in idle equilibrium, so its wall draw is
// constant until a placement changes a load.
func capRack(t *testing.T) *rack.Rack {
	t.Helper()
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	specs := make([]rack.ServerSpec, 2)
	for i := range specs {
		cfg := server.T3Config()
		cfg.NoiseSeed = int64(i + 1)
		specs[i] = rack.ServerSpec{Config: cfg}
	}
	r, err := rack.New(rack.Config{Servers: specs, Workers: 1, PSU: &psu, PDU: &pdu})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunTraceCapBoundary pins the admission boundary: a cap exactly at
// the predicted post-placement wall draw admits the job (no deferral);
// any cap strictly below it defers.
func TestRunTraceCapBoundary(t *testing.T) {
	jobs := []Job{{ID: 0, Arrival: 0, Duration: 1e9, Demand: 40}}

	// The first placement decision sees the rack exactly as constructed,
	// so the runner's own prediction is reproducible here: round-robin
	// picks slot 0, and the admission estimate is the utilization-driven
	// DC increment lifted through the chain.
	r := capRack(t)
	model := r.Server(0).Config().Power
	mdc := MarginalDCPower(&model, 0, 40)
	predicted := float64(r.WallPowerWithAll([]units.Watts{mdc}))

	res, err := RunTraceCfg(r, jobs, NewRoundRobin(), TraceConfig{Dt: 1, Horizon: 60, WallCapW: predicted})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 1 || res.Deferrals != 0 {
		t.Fatalf("cap exactly at predicted draw: placed=%d deferrals=%d, want 1/0", res.Placed, res.Deferrals)
	}

	r = capRack(t)
	res, err = RunTraceCfg(r, jobs, NewRoundRobin(), TraceConfig{Dt: 1, Horizon: 60, WallCapW: predicted - 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 0 {
		t.Fatalf("cap below predicted draw: placed=%d, want 0", res.Placed)
	}
	if res.Deferrals != 60 {
		t.Fatalf("blocked head must defer once per step: deferrals=%d, want 60", res.Deferrals)
	}
}

// TestRunTraceCapCountsSameStepPlacements: the rack's measured draw lags
// placements by one step, so admission must charge placements admitted
// earlier in the same step. With a budget that fits exactly one job's
// increment, two jobs arriving together must not be jointly admitted
// against the same stale idle draw.
func TestRunTraceCapCountsSameStepPlacements(t *testing.T) {
	r := capRack(t)
	model := r.Server(0).Config().Power
	mdc := MarginalDCPower(&model, 0, 40)
	oneJob := float64(r.WallPowerWithAll([]units.Watts{mdc}))
	jobs := []Job{
		{ID: 0, Arrival: 0, Duration: 1e9, Demand: 40},
		{ID: 1, Arrival: 0, Duration: 1e9, Demand: 40},
	}
	res, err := RunTraceCfg(r, jobs, NewRoundRobin(), TraceConfig{Dt: 1, Horizon: 5, WallCapW: oneJob})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 1 {
		t.Fatalf("budget fits one job: placed=%d, want 1", res.Placed)
	}
	// Job 1 defers at the admission step and on every retry: once the
	// physics draws job 0's power the wall sits at the cap, so adding the
	// second increment always breaches.
	if res.Deferrals != 5 {
		t.Fatalf("deferrals=%d, want 5 (one per step)", res.Deferrals)
	}
}

// TestRunTraceCapBelowIdle: a budget below the rack's idle wall draw can
// never admit anything — every job defers, nothing is placed, and the run
// still terminates after its fixed step count (starvation-free in the
// sense that the runner never spins within a step: one deferral per step,
// later jobs queue FIFO behind the head).
func TestRunTraceCapBelowIdle(t *testing.T) {
	r := capRack(t)
	idleWall := float64(r.WallPower())
	if idleWall <= 0 {
		t.Fatal("rack must draw idle wall power")
	}
	jobs := []Job{
		{ID: 0, Arrival: 0, Duration: 30, Demand: 20},
		{ID: 1, Arrival: 0, Duration: 30, Demand: 20},
		{ID: 2, Arrival: 10, Duration: 30, Demand: 20},
	}
	res, err := RunTraceCfg(r, jobs, NewRoundRobin(), TraceConfig{Dt: 1, Horizon: 90, WallCapW: idleWall / 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 0 || res.Completed != 0 {
		t.Fatalf("cap below idle: placed=%d completed=%d, want 0/0", res.Placed, res.Completed)
	}
	if res.Deferrals != 90 {
		t.Fatalf("one deferral per step: %d, want 90", res.Deferrals)
	}
	if res.MaxQueueLen != 3 {
		t.Fatalf("backlog must hold all jobs: %d, want 3", res.MaxQueueLen)
	}
	if now := r.Now(); now < 89.5 || now > 90.5 {
		t.Fatalf("run must terminate at the horizon, rack at %g s", now)
	}
}

// TestRunTraceUncappedIgnoresWallBudget: WallCapW = 0 must behave exactly
// like the plain runner.
func TestRunTraceUncappedIgnoresWallBudget(t *testing.T) {
	jobs := []Job{{ID: 0, Arrival: 0, Duration: 10, Demand: 90}}
	res, err := RunTraceCfg(capRack(t), jobs, NewRoundRobin(), TraceConfig{Dt: 1, Horizon: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 1 || res.Deferrals != 0 {
		t.Fatalf("uncapped run deferred: %+v", res)
	}
}

// flatTable returns a synthetic cost table with the given fan+leak power
// at 0/50/100% utilization.
func flatTable(p0, p50, p100 float64) *lut.Table {
	return &lut.Table{Entries: []lut.Entry{
		{Util: 0, RPM: 1800, FanLeakPower: units.Watts(p0)},
		{Util: 50, RPM: 1800, FanLeakPower: units.Watts(p50)},
		{Util: 100, RPM: 2400, FanLeakPower: units.Watts(p100)},
	}}
}

// TestRunTraceCapMarginalDefersEarlier: the conservative admission
// estimate charges the settled fan+leak marginal on top of the fast
// utilization-driven increment, so a cap that sits between the two
// predictions admits under the fast estimate and defers under the
// conservative one.
func TestRunTraceCapMarginalDefersEarlier(t *testing.T) {
	jobs := []Job{{ID: 0, Arrival: 0, Duration: 1e9, Demand: 40}}
	r := capRack(t)
	model := r.Server(0).Config().Power
	mdc := MarginalDCPower(&model, 0, 40)
	fastWall := float64(r.WallPowerWithAll([]units.Watts{mdc}))

	// Synthetic per-slot tables with a 25 W settled fan+leak marginal for
	// the 0 → 40% transition (EntryFor rounds 40 up to the 50% row).
	tables := []*lut.Table{flatTable(20, 45, 70), flatTable(20, 45, 70)}

	res, err := RunTraceCfg(r, jobs, NewRoundRobin(),
		TraceConfig{Dt: 1, Horizon: 30, WallCapW: fastWall, CapMarginal: tables})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 0 || res.Deferrals != 30 {
		t.Fatalf("cap at the fast estimate must defer under the conservative one: placed=%d deferrals=%d", res.Placed, res.Deferrals)
	}

	// At the conservative prediction itself, the job is admitted again
	// (a placement landing exactly on the cap is admitted).
	r = capRack(t)
	consWall := float64(r.WallPowerWithAll([]units.Watts{mdc + 25}))
	res, err = RunTraceCfg(r, jobs, NewRoundRobin(),
		TraceConfig{Dt: 1, Horizon: 30, WallCapW: consWall, CapMarginal: tables})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 1 || res.Deferrals != 0 {
		t.Fatalf("cap at the conservative estimate must admit: placed=%d deferrals=%d", res.Placed, res.Deferrals)
	}
}

// TestRunTraceCapMarginalNeverAdmitsMore sweeps caps across the admission
// boundary and checks the ordering property the option guarantees: for
// the same trace and cap, the conservative variant never places more jobs
// and never defers fewer times than the fast estimate.
func TestRunTraceCapMarginalNeverAdmitsMore(t *testing.T) {
	tables := []*lut.Table{flatTable(20, 45, 70), flatTable(20, 45, 70)}
	jobs := []Job{
		{ID: 0, Arrival: 0, Duration: 40, Demand: 40},
		{ID: 1, Arrival: 5, Duration: 40, Demand: 40},
		{ID: 2, Arrival: 10, Duration: 40, Demand: 40},
	}
	idle := float64(capRack(t).WallPower())
	for _, capW := range []float64{idle * 0.9, idle + 20, idle + 45, idle + 90, idle + 500} {
		fast, err := RunTraceCfg(capRack(t), jobs, NewRoundRobin(),
			TraceConfig{Dt: 1, Horizon: 60, WallCapW: capW})
		if err != nil {
			t.Fatal(err)
		}
		cons, err := RunTraceCfg(capRack(t), jobs, NewRoundRobin(),
			TraceConfig{Dt: 1, Horizon: 60, WallCapW: capW, CapMarginal: tables})
		if err != nil {
			t.Fatal(err)
		}
		if cons.Placed > fast.Placed {
			t.Fatalf("cap %.0f: conservative placed %d > fast %d", capW, cons.Placed, fast.Placed)
		}
		if cons.Deferrals < fast.Deferrals {
			t.Fatalf("cap %.0f: conservative deferred %d < fast %d", capW, cons.Deferrals, fast.Deferrals)
		}
	}
}

// TestRunTraceCapMarginalNilEntriesFallBack: nil tables (or a short
// slice) leave the fast estimate in place for those slots.
func TestRunTraceCapMarginalNilEntriesFallBack(t *testing.T) {
	jobs := []Job{{ID: 0, Arrival: 0, Duration: 1e9, Demand: 40}}
	r := capRack(t)
	model := r.Server(0).Config().Power
	mdc := MarginalDCPower(&model, 0, 40)
	fastWall := float64(r.WallPowerWithAll([]units.Watts{mdc}))
	res, err := RunTraceCfg(r, jobs, NewRoundRobin(),
		TraceConfig{Dt: 1, Horizon: 10, WallCapW: fastWall, CapMarginal: []*lut.Table{nil, nil}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 1 || res.Deferrals != 0 {
		t.Fatalf("nil tables must behave like the fast estimate: %+v", res)
	}
}

// TestCapAwarePrefersEfficientPSUOperatingPoint: with identical DC
// marginals everywhere, the job must go where the supply converts the
// increment most efficiently — the already-loaded server, whose PSU sits
// higher on its efficiency curve. This is exactly the interaction a
// DC-only policy cannot see.
func TestCapAwarePrefersEfficientPSUOperatingPoint(t *testing.T) {
	psu := power.DefaultPSU()
	model := server.T3Config().Power
	tables := []*lut.Table{flatTable(20, 30, 45), flatTable(20, 30, 45)}
	p, err := NewCapAwareFromTables(tables, []power.ServerModel{model, model}, []*power.PSUModel{&psu, &psu})
	if err != nil {
		t.Fatal(err)
	}
	v := []ServerView{
		{Index: 0, Load: 20, Free: 80, DCPower: 420, WallPower: psu.Wall(420)},
		{Index: 1, Load: 20, Free: 80, DCPower: 680, WallPower: psu.Wall(680)},
	}
	if got := p.Place(Job{Demand: 30}, v); got != 1 {
		t.Fatalf("placed on %d, want 1 (PSU already at its efficient point)", got)
	}
	// Without PSUs the same views tie on cost and the lowest index wins.
	p2, err := NewCapAwareFromTables(tables, []power.ServerModel{model, model}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Place(Job{Demand: 30}, v); got != 0 {
		t.Fatalf("ideal supplies: placed on %d, want 0 (tie → lowest index)", got)
	}
}

// TestCapAwareSkipsFullAndRespectsTables: capacity checks and per-slot
// cost differences behave like the leakage-aware baseline.
func TestCapAwareSkipsFullAndRespectsTables(t *testing.T) {
	model := server.T3Config().Power
	// Slot 1's fan+leak marginal is far cheaper, but slot 1 is full.
	tables := []*lut.Table{flatTable(20, 40, 80), flatTable(20, 22, 25)}
	p, err := NewCapAwareFromTables(tables, []power.ServerModel{model, model}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Demand 60 crosses the 50→100 grid boundary: marginal 40 W on slot 0
	// vs 3 W on slot 1 (EntryFor rounds up to the next grid level).
	v := []ServerView{
		{Index: 0, Load: 10, Free: 90, DCPower: 430},
		{Index: 1, Load: 95, Free: 5, DCPower: 640},
	}
	if got := p.Place(Job{Demand: 60}, v); got != 0 {
		t.Fatalf("placed on %d, want 0 (cheap slot is full)", got)
	}
	v[1].Load, v[1].Free = 10, 90
	if got := p.Place(Job{Demand: 60}, v); got != 1 {
		t.Fatalf("placed on %d, want 1 (cheaper marginal)", got)
	}
}

// TestCapAwareConstructorValidation covers the error paths.
func TestCapAwareConstructorValidation(t *testing.T) {
	model := server.T3Config().Power
	tbl := flatTable(1, 2, 3)
	if _, err := NewCapAwareFromTables(nil, nil, nil); err == nil {
		t.Fatal("empty tables must be rejected")
	}
	if _, err := NewCapAwareFromTables([]*lut.Table{tbl}, nil, nil); err == nil {
		t.Fatal("model/table length mismatch must be rejected")
	}
	psu := power.DefaultPSU()
	if _, err := NewCapAwareFromTables([]*lut.Table{tbl}, []power.ServerModel{model}, []*power.PSUModel{&psu, &psu}); err == nil {
		t.Fatal("psu/table length mismatch must be rejected")
	}
	if _, err := NewCapAwareFromTables([]*lut.Table{{}}, []power.ServerModel{model}, nil); err == nil {
		t.Fatal("empty table must be rejected")
	}
}
