package sched

import (
	"testing"

	"repro/internal/control"
	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/rack"
	"repro/internal/server"
	"repro/internal/units"
)

func views(loads, temps []float64) []ServerView {
	out := make([]ServerView, len(loads))
	for i := range loads {
		out[i] = ServerView{
			Index:      i,
			Load:       units.Percent(loads[i]),
			Free:       units.Percent(100 - loads[i]),
			MaxCPUTemp: units.Celsius(temps[i]),
		}
	}
	return out
}

func TestRoundRobinRotatesAndSkipsFull(t *testing.T) {
	p := NewRoundRobin()
	j := Job{Demand: 30}
	v := views([]float64{0, 0, 90}, []float64{50, 50, 50})
	if got := p.Place(j, v); got != 0 {
		t.Fatalf("first placement on %d, want 0", got)
	}
	if got := p.Place(j, v); got != 1 {
		t.Fatalf("second placement on %d, want 1", got)
	}
	// Slot 2 has only 10% free: the cursor must skip it back to 0.
	if got := p.Place(j, v); got != 0 {
		t.Fatalf("third placement on %d, want 0 (slot 2 full)", got)
	}
	if got := p.Place(Job{Demand: 99}, views([]float64{50, 50, 50}, []float64{0, 0, 0})); got != -1 {
		t.Fatalf("unplaceable job got slot %d, want -1", got)
	}
}

func TestLeastUtilizedPicksLowestLoad(t *testing.T) {
	p := NewLeastUtilized()
	v := views([]float64{40, 10, 10, 80}, []float64{30, 60, 60, 30})
	// Ties break to the lowest index.
	if got := p.Place(Job{Demand: 20}, v); got != 1 {
		t.Fatalf("placed on %d, want 1", got)
	}
}

func TestCoolestFirstPicksLowestTemp(t *testing.T) {
	p := NewCoolestFirst()
	v := views([]float64{0, 0, 0}, []float64{55, 42, 48})
	if got := p.Place(Job{Demand: 20}, v); got != 1 {
		t.Fatalf("placed on %d, want 1 (coolest)", got)
	}
	// The coolest server without capacity must be skipped.
	v = views([]float64{0, 95, 0}, []float64{55, 42, 48})
	if got := p.Place(Job{Demand: 20}, v); got != 2 {
		t.Fatalf("placed on %d, want 2 (coolest feasible)", got)
	}
}

// leakageAware builds the policy over per-slot tables, as the rack
// experiment does.
func leakageAware(t *testing.T, cfgs []server.Config) *LeakageAware {
	t.Helper()
	tables, err := lut.DiskCache{}.BuildPerConfig(cfgs, lut.DefaultBuild())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewLeakageAwareFromTables(tables)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLeakageAwarePrefersColdAisle(t *testing.T) {
	cold := server.T3Config()
	cold.Ambient = 21
	hot := server.T3Config()
	hot.Ambient = 30
	p := leakageAware(t, []server.Config{hot, cold})
	// Equal load on both: the cold-aisle server's marginal fan+leak power
	// is lower, so the job must go there despite the higher index.
	v := views([]float64{40, 40}, []float64{60, 50})
	if got := p.Place(Job{Demand: 40}, v); got != 1 {
		t.Fatalf("placed on %d, want 1 (cold aisle)", got)
	}
}

func TestLeakageAwareSharesTableBuilds(t *testing.T) {
	cfg := server.T3Config()
	a, b := cfg, cfg
	a.NoiseSeed, b.NoiseSeed = 1, 999 // noise cannot affect steady state
	p := leakageAware(t, []server.Config{a, b})
	if p.tables[0] != p.tables[1] {
		t.Fatal("identical physics configs must share one table")
	}
}

// traceRack builds a 3-server rack with fixed fan speeds (no controller)
// for trace-runner tests.
func traceRack(t *testing.T) *rack.Rack {
	t.Helper()
	specs := make([]rack.ServerSpec, 3)
	for i := range specs {
		cfg := server.T3Config()
		cfg.NoiseSeed = int64(i + 1)
		specs[i] = rack.ServerSpec{Config: cfg}
	}
	r, err := rack.New(rack.Config{Servers: specs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunTraceAccounting(t *testing.T) {
	jobs := []Job{
		{ID: 0, Arrival: 0, Duration: 30, Demand: 60},
		{ID: 1, Arrival: 0, Duration: 30, Demand: 60},
		{ID: 2, Arrival: 0, Duration: 30, Demand: 60},
		{ID: 3, Arrival: 0, Duration: 10, Demand: 60}, // must queue: 3 servers busy
		{ID: 4, Arrival: 200, Duration: 1e9, Demand: 50},
	}
	res, err := RunTraceCfg(traceRack(t), jobs, NewRoundRobin(), TraceConfig{Dt: 1, Horizon: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Submitted != 5 || res.Placed != 5 {
		t.Fatalf("submitted/placed %d/%d, want 5/5", res.Submitted, res.Placed)
	}
	if res.Completed != 4 {
		t.Fatalf("completed %d, want 4 (job 4 outlives the horizon)", res.Completed)
	}
	// Job 3 waited ~30 s behind three 30 s jobs; the other four placed
	// immediately, so the mean wait is ≈ 31/5.
	if res.MeanWaitSec < 5 || res.MeanWaitSec > 8 {
		t.Fatalf("mean wait %.2f s, want ≈6", res.MeanWaitSec)
	}
	if res.MaxQueueLen < 2 {
		t.Fatalf("max queue %d, want ≥2 (four simultaneous arrivals on 3 servers)", res.MaxQueueLen)
	}
}

func TestRunTraceRejectsUnsorted(t *testing.T) {
	jobs := []Job{{Arrival: 10}, {Arrival: 0}}
	if _, err := RunTraceCfg(traceRack(t), jobs, NewRoundRobin(), TraceConfig{Dt: 1, Horizon: 100}); err == nil {
		t.Fatal("unsorted jobs must be rejected")
	}
	if _, err := RunTraceCfg(traceRack(t), nil, NewRoundRobin(), TraceConfig{Dt: 0, Horizon: 100}); err == nil {
		t.Fatal("non-positive dt must be rejected")
	}
}

func TestRunTraceFIFOHeadBlocks(t *testing.T) {
	// A huge head job must hold back a small one that would fit, keeping
	// placement order fair and deterministic.
	jobs := []Job{
		{ID: 0, Arrival: 0, Duration: 50, Demand: 80},
		{ID: 1, Arrival: 0, Duration: 50, Demand: 80},
		{ID: 2, Arrival: 0, Duration: 50, Demand: 80},
		{ID: 3, Arrival: 1, Duration: 50, Demand: 90}, // blocks: nothing free
		{ID: 4, Arrival: 1, Duration: 5, Demand: 10},  // would fit, must wait behind 3
	}
	res, err := RunTraceCfg(traceRack(t), jobs, NewLeastUtilized(), TraceConfig{Dt: 1, Horizon: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 5 || res.Completed != 5 {
		t.Fatalf("placed/completed %d/%d, want 5/5", res.Placed, res.Completed)
	}
	// Job 4's wait must be at least job 3's (FIFO): both ≈50 s, so the
	// mean over five jobs is ≈20 s; immediate placement of 4 would show
	// ≈10 s.
	if res.MeanWaitSec < 15 {
		t.Fatalf("mean wait %.1f s: small job overtook the blocked FIFO head", res.MeanWaitSec)
	}
}

func TestJobsFromSpecs(t *testing.T) {
	specs := []loadgen.JobSpec{{Arrival: 1, Duration: 2, Demand: 30}, {Arrival: 4, Duration: 5, Demand: 60}}
	jobs := JobsFromSpecs(specs)
	if len(jobs) != 2 || jobs[0].ID != 0 || jobs[1].ID != 1 || jobs[1].Demand != 60 {
		t.Fatalf("conversion wrong: %+v", jobs)
	}
}

// TestPoliciesWithControllersEndToEnd smoke-runs every policy over a rack
// whose servers each carry a LUT fan controller, the configuration the
// rack experiment uses.
func TestPoliciesWithControllersEndToEnd(t *testing.T) {
	cfg := server.T3Config()
	table, err := lut.Build(cfg, lut.DefaultBuild())
	if err != nil {
		t.Fatal(err)
	}
	la := leakageAware(t, []server.Config{cfg, cfg})
	for _, p := range []Policy{NewRoundRobin(), NewLeastUtilized(), NewCoolestFirst(), la} {
		specs := make([]rack.ServerSpec, 2)
		for i := range specs {
			lc, err := control.NewLUT(table, control.DefaultLUT())
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.NoiseSeed = int64(i + 1)
			specs[i] = rack.ServerSpec{Config: c, Controller: lc}
		}
		r, err := rack.New(rack.Config{Servers: specs, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		jobs := []Job{{ID: 0, Arrival: 0, Duration: 60, Demand: 50}, {ID: 1, Arrival: 10, Duration: 60, Demand: 50}}
		res, err := RunTraceCfg(r, jobs, p, TraceConfig{Dt: 1, Horizon: 120})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Completed != 2 {
			t.Fatalf("%s completed %d, want 2", p.Name(), res.Completed)
		}
		if tel := r.Telemetry(); tel.TotalEnergyKWh <= 0 {
			t.Fatalf("%s: no energy recorded", p.Name())
		}
	}
}

// TestRunTraceNonIntegerDtWindow pins the drift fix: with dt=0.1 over a
// 36 s horizon the runner must take exactly 360 steps — the accumulated
// `elapsed += dt` loop it replaces took 361 (Σ360×0.1 < 36 in floats) and
// overran the measured window.
func TestRunTraceNonIntegerDtWindow(t *testing.T) {
	r := traceRack(t)
	if _, err := RunTraceCfg(r, nil, NewRoundRobin(), TraceConfig{Dt: 0.1, Horizon: 36}); err != nil {
		t.Fatal(err)
	}
	if now := r.Now(); now > 36.05 || now < 35.95 {
		t.Fatalf("rack advanced %.10f s, want 36 (step-count drift)", now)
	}
}

// TestRunTraceAdmitsFinalStepArrivals pins the admission rule: a job
// arriving inside the last step of the window must still be admitted and
// placed, not silently stranded in Submitted.
func TestRunTraceAdmitsFinalStepArrivals(t *testing.T) {
	jobs := []Job{{ID: 0, Arrival: 9.5, Duration: 100, Demand: 30}}
	res, err := RunTraceCfg(traceRack(t), jobs, NewRoundRobin(), TraceConfig{Dt: 1, Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 1 {
		t.Fatalf("placed %d, want 1 (arrival in the final dt)", res.Placed)
	}
}
