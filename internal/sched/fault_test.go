package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/control"
	"repro/internal/fault"
	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/rack"
	"repro/internal/server"
	"repro/internal/units"
)

// faultTraceRack builds an n-server controllered rack for fault-trace
// tests; workers exercises the parallel step fan-out.
func faultTraceRack(t *testing.T, n, workers int) *rack.Rack {
	t.Helper()
	cfg := server.T3Config()
	table, err := lut.Build(cfg, lut.DefaultBuild())
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]rack.ServerSpec, n)
	for i := range specs {
		lc, err := control.NewLUT(table, control.DefaultLUT())
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.NoiseSeed = int64(i + 1)
		specs[i] = rack.ServerSpec{Config: c, Controller: lc}
	}
	r, err := rack.New(rack.Config{Servers: specs, Workers: workers, ReliabilitySampleEvery: 15})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func faultTraceJobs(t *testing.T, horizon float64) []Job {
	t.Helper()
	specs, err := loadgen.PoissonTrace(loadgen.PoissonTraceConfig{
		Seed: 7, Horizon: horizon, Rate: 0.05, MeanDuration: 120,
		Demands: []units.Percent{20, 40, 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	return JobsFromSpecs(specs)
}

func TestFaultScheduleValidatedAgainstRack(t *testing.T) {
	r := faultTraceRack(t, 2, 1)
	bad := &fault.Schedule{Events: []fault.Event{{Kind: fault.PSUFail, Server: 9, At: 10}}}
	_, err := RunTraceCfg(r, nil, NewRoundRobin(), TraceConfig{Dt: 1, Horizon: 100, Faults: bad})
	if err == nil {
		t.Fatal("out-of-range fault target must be rejected up front")
	}
}

// TestPSUFailKillsAndRequeues: a server going dark mid-run must kill its
// job, requeue it at the backlog head, and complete it elsewhere (or after
// power returns) — with the destroyed progress accounted.
func TestPSUFailKillsAndRequeues(t *testing.T) {
	r := faultTraceRack(t, 2, 1)
	jobs := []Job{
		{ID: 0, Arrival: 0, Duration: 200, Demand: 60},
		{ID: 1, Arrival: 0, Duration: 200, Demand: 60},
	}
	sch := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.PSUFail, Server: 0, At: 50, Clear: 300},
	}}
	res, err := RunTraceCfg(r, jobs, NewRoundRobin(), TraceConfig{
		Dt: 1, Horizon: 700, Faults: sch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requeued != 1 {
		t.Fatalf("requeued %d, want 1", res.Requeued)
	}
	if res.Lost != 0 {
		t.Fatalf("lost %d, want 0 under requeue", res.Lost)
	}
	// The killed job had run ~50 s when slot 0 went dark.
	if res.LostJobSeconds < 49 || res.LostJobSeconds > 51 {
		t.Fatalf("lost job-seconds %.1f, want ≈50", res.LostJobSeconds)
	}
	if res.Completed != 2 {
		t.Fatalf("completed %d, want 2 (requeued job must finish)", res.Completed)
	}
	// Placed is net of the kill: two initial − one kill + one re-placement.
	if res.Placed != 2 {
		t.Fatalf("placed %d, want net 2", res.Placed)
	}
}

// TestDropOnFaultAbandons: the same scenario under DropOnFault loses the
// job outright — its whole duration is destroyed work.
func TestDropOnFaultAbandons(t *testing.T) {
	r := faultTraceRack(t, 2, 1)
	jobs := []Job{
		{ID: 0, Arrival: 0, Duration: 200, Demand: 60},
		{ID: 1, Arrival: 0, Duration: 200, Demand: 60},
	}
	sch := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.PSUFail, Server: 0, At: 50, Clear: 300},
	}}
	res, err := RunTraceCfg(r, jobs, NewRoundRobin(), TraceConfig{
		Dt: 1, Horizon: 700, Faults: sch, DropOnFault: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 1 || res.Requeued != 0 {
		t.Fatalf("lost/requeued %d/%d, want 1/0", res.Lost, res.Requeued)
	}
	if res.LostJobSeconds != 200 {
		t.Fatalf("lost job-seconds %.1f, want the full 200", res.LostJobSeconds)
	}
	if res.Completed != 1 {
		t.Fatalf("completed %d, want 1", res.Completed)
	}
}

// TestNoPlacementOnUnhealthy: while a slot is dark the policies must route
// around it; the filtered ServerView and the runner's hard check agree.
func TestNoPlacementOnUnhealthy(t *testing.T) {
	sch := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.ServerTrip, Server: 0, At: 0, Clear: 500},
	}}
	for _, p := range []Policy{NewRoundRobin(), NewLeastUtilized(), NewCoolestFirst()} {
		r := faultTraceRack(t, 2, 1)
		jobs := []Job{
			{ID: 0, Arrival: 10, Duration: 50, Demand: 40},
			{ID: 1, Arrival: 20, Duration: 50, Demand: 40},
		}
		res, err := RunTraceCfg(r, jobs, p, TraceConfig{Dt: 1, Horizon: 200, Faults: sch})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		// Slot 1 is the only healthy slot and fits one 40%% job at a time;
		// both must complete there without a runner health violation.
		if res.Completed != 2 {
			t.Fatalf("%s completed %d, want 2", p.Name(), res.Completed)
		}
	}
}

// TestZeroStepFaultWindowIsNoOp: a window whose apply and clear pin to the
// same grid step must leave the run byte-identical to no fault at all.
func TestZeroStepFaultWindowIsNoOp(t *testing.T) {
	jobs := faultTraceJobs(t, 400)
	run := func(sch *fault.Schedule) Result {
		r := faultTraceRack(t, 3, 1)
		res, err := RunTraceCfg(r, jobs, NewRoundRobin(), TraceConfig{Dt: 1, Horizon: 600, Faults: sch})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(nil)
	zero := run(&fault.Schedule{Events: []fault.Event{
		{Kind: fault.PSUFail, Server: 0, At: 100.2, Clear: 100.8}, // both pin to step 101
	}})
	if !reflect.DeepEqual(ref, zero) {
		t.Fatalf("zero-step window perturbed the run:\nref:  %+v\ngot:  %+v", ref, zero)
	}
}

// TestEmptyFaultScheduleBitIdentical: nil schedule, empty schedule and the
// pre-fault RunTrace path must all agree exactly, in both stepping modes.
func TestEmptyFaultScheduleBitIdentical(t *testing.T) {
	jobs := faultTraceJobs(t, 400)
	for _, event := range []bool{false, true} {
		run := func(sch *fault.Schedule) (Result, rack.Telemetry) {
			r := faultTraceRack(t, 3, 1)
			res, err := RunTraceCfg(r, jobs, NewRoundRobin(), TraceConfig{
				Dt: 1, Horizon: 600, EventStepping: event, Faults: sch,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res, r.Telemetry()
		}
		refR, refT := run(nil)
		emptyR, emptyT := run(&fault.Schedule{})
		if !reflect.DeepEqual(refR, emptyR) || !reflect.DeepEqual(refT, emptyT) {
			t.Fatalf("event=%v: empty schedule diverged from nil", event)
		}
	}
}

// randomSchedule builds a valid random fault plan over an n-server rack:
// a few windowed and permanent events of every kind except ambient/CRAC
// excursions that trip servers outright (those end runs in kill storms
// that are still deterministic but make the test slow).
func randomSchedule(rng *rand.Rand, n int, horizon float64) *fault.Schedule {
	var events []fault.Event
	kinds := []fault.Kind{
		fault.FanStick, fault.FanFail, fault.PSUDroop, fault.PSUFail,
		fault.ServerTrip, fault.AmbientExcursion, fault.CRACOutage, fault.ChillerDegraded,
	}
	m := 2 + rng.Intn(3)
	for i := 0; i < m; i++ {
		k := kinds[rng.Intn(len(kinds))]
		ev := fault.Event{Kind: k, Server: rng.Intn(n), At: rng.Float64() * horizon * 0.6}
		if rng.Intn(2) == 0 {
			ev.Clear = ev.At + 30 + rng.Float64()*horizon*0.3
		}
		switch k {
		case fault.FanStick, fault.FanFail:
			ev.Fan = rng.Intn(2)
		case fault.PSUDroop, fault.ChillerDegraded:
			ev.Severity = 0.05 + 0.2*rng.Float64()
		case fault.AmbientExcursion:
			ev.Severity = 2 + 3*rng.Float64()
			if rng.Intn(2) == 0 {
				ev.Server = -1
			}
		case fault.CRACOutage:
			ev.Severity = 3 + 3*rng.Float64()
		}
		events = append(events, ev)
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].At < events[b].At })
	return &fault.Schedule{Events: events}
}

// TestFaultDeterminism is the PR's headline contract: randomized fault
// schedules, multiple policies, both stepping modes — the scheduler result
// AND the full rack telemetry must be byte-identical for every worker
// count. Run under -race this also proves the fan-out stays data-race free
// with faults applied mid-run.
func TestFaultDeterminism(t *testing.T) {
	const n = 4
	horizon := 500.0
	jobs := faultTraceJobs(t, 400)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		sch := randomSchedule(rng, n, horizon)
		for _, mkPolicy := range []func() Policy{
			func() Policy { return NewRoundRobin() },
			func() Policy { return NewLeastUtilized() },
			func() Policy { return NewCoolestFirst() },
		} {
			for _, event := range []bool{false, true} {
				run := func(workers int) (Result, rack.Telemetry) {
					r := faultTraceRack(t, n, workers)
					res, err := RunTraceCfg(r, jobs, mkPolicy(), TraceConfig{
						Dt: 1, Horizon: horizon, EventStepping: event,
						SampleEvery: 15, Faults: sch,
					})
					if err != nil {
						t.Fatalf("trial %d event=%v: %v", trial, event, err)
					}
					return res, r.Telemetry()
				}
				refR, refT := run(1)
				for _, workers := range []int{2, 4} {
					gotR, gotT := run(workers)
					if !reflect.DeepEqual(refR, gotR) {
						t.Fatalf("trial %d event=%v workers=%d: result differs\nserial:   %+v\nparallel: %+v",
							trial, event, workers, refR, gotR)
					}
					if !reflect.DeepEqual(refT, gotT) {
						t.Fatalf("trial %d event=%v workers=%d: telemetry differs\nserial:   %+v\nparallel: %+v",
							trial, event, workers, refT, gotT)
					}
				}
			}
		}
	}
}

// faultWindows is a schedule of bounded faults that overlap across the
// middle of a 600 s trace on a three-server rack: a stuck fan, a drooping
// supply, a CRAC outage heat-soaking every inlet, and a slot going dark.
func faultWindows() *fault.Schedule {
	sch := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FanStick, Server: 0, Fan: 0, At: 120, Clear: 360},
		{Kind: fault.PSUDroop, Server: 1, At: 200, Clear: 400, Severity: 0.1},
		{Kind: fault.CRACOutage, At: 250, Clear: 450, Severity: 4},
		{Kind: fault.PSUFail, Server: 2, At: 300, Clear: 480},
	}}
	return sch
}

// TestEventVsFixedWithFaultWindow: between its edges a fault is one more
// constant input, so the event kernel macro-steps through fault windows
// and dark slots like any quiet interval. Through overlapping windows it
// must still match fixed-dt — identical scheduling, energies within 1e-6,
// identical fan changes — while most of its server-steps collapse: the
// faulted servers no longer take a plain step for every step of a window.
func TestEventVsFixedWithFaultWindow(t *testing.T) {
	jobs := faultTraceJobs(t, 400)
	const servers, horizon = 3, 600
	run := func(event bool) (Result, *rack.Rack) {
		r := faultTraceRack(t, servers, 1)
		res, err := RunTraceCfg(r, jobs, NewLeastUtilized(), TraceConfig{
			Dt: 1, Horizon: horizon, EventStepping: event, SampleEvery: 15, Faults: faultWindows(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, r
	}
	fixed, rf := run(false)
	evented, re := run(true)
	if fixed.Requeued == 0 {
		t.Fatal("the dark slot killed no job; the fault windows are vacuous")
	}
	assertEquivalent(t, "fault windows", true, fixed, evented, rf.Telemetry(), re.Telemetry())
	ms := re.MetricsRollup()
	plain := ms.PlainIntegrator + ms.PlainSlew + ms.PlainTripBand + ms.PlainDrift + ms.PlainTail
	ratio := float64(ms.CollapsedSteps) / float64(ms.CollapsedSteps+plain)
	t.Logf("%d→%d rack steps; %d collapsed and %d plain server-steps (collapse ratio %.3f)",
		fixed.RackSteps, evented.RackSteps, ms.CollapsedSteps, plain, ratio)
	// Measured: 1168 collapsed, 632 plain (0.649), nearly all of the plain
	// ones single-step windows at samples and edges. With the faulted
	// servers held to plain steps through their windows the same run
	// takes 848 collapsed and 952 plain (0.471).
	if ratio < 0.6 {
		t.Errorf("collapse ratio %.3f: %d plain server-steps against %d collapsed, want ≥ 0.6",
			ratio, plain, ms.CollapsedSteps)
	}
}
