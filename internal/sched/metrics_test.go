package sched

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/control"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rack"
)

// pinSum extracts (Σ kernel.pin.*, kernel.steps.total,
// kernel.windows.macro, kernel.grid.steps) from a registry.
func pinSum(reg *obs.Registry) (pins, steps, macro, grid int64) {
	for _, name := range PinReasonNames() {
		pins += reg.Counter("kernel.pin." + name).Value()
	}
	return pins,
		reg.Counter("kernel.steps.total").Value(),
		reg.Counter("kernel.windows.macro").Value(),
		reg.Counter("kernel.grid.steps").Value()
}

// TestPinReasonIdentity is the acceptance identity: every rack advance is
// either a macro window or exactly one pinned single step, so the
// per-reason counts sum to (total rack advances − macro windows), and the
// grid steps crossed add back up to the fixed-dt step count — in both
// stepping modes, with and without faults, and under a wall cap whose
// deferrals the event kernel crosses.
func TestPinReasonIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	jobs := randomTrace(t, rng, 1800, 4, 0.4)
	cascade := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FanFail, Server: 0, Fan: 0, At: 300},
		{Kind: fault.PSUFail, Server: 1, At: 600, Clear: 1200},
		{Kind: fault.CRACOutage, At: 900, Clear: 1500},
	}}
	leakageAware := func() Policy {
		p, err := NewLeakageAwareFromTables(syntheticTables(4))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct {
		name   string
		event  bool
		faults *fault.Schedule
		sample float64
		ctrl   func(i int) control.Controller
		capW   float64
		policy func() Policy // nil = coolest-first
	}{
		{name: "fixed", event: false},
		{name: "event", event: true},
		{name: "event-sampled", event: true, sample: 30},
		{name: "event-faults", event: true, faults: cascade, sample: 15},
		{name: "fixed-faults", event: false, faults: cascade},
		{name: "event-no-promise", event: true, ctrl: func(i int) control.Controller {
			b, err := control.NewBangBang(control.DefaultBangBang())
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{name: "event-capped", event: true, capW: 2200, policy: leakageAware},
		{name: "event-capped-faults", event: true, faults: cascade, capW: 2200, policy: leakageAware},
		{name: "event-capped-roundrobin", event: true, sample: 30, capW: 2150, policy: func() Policy { return NewRoundRobin() }},
		{name: "fixed-capped", event: false, capW: 2200, policy: leakageAware},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := eventRack(t, eventRackCfg{servers: 4, workers: 2, ctrl: tc.ctrl, chain: tc.capW > 0})
			reg := obs.NewRegistry()
			var p Policy = NewCoolestFirst()
			if tc.policy != nil {
				p = tc.policy()
			}
			res, err := RunTraceCfg(r, jobs, p, TraceConfig{
				Dt: 1, Horizon: 1800,
				EventStepping: tc.event,
				SampleEvery:   tc.sample,
				Faults:        tc.faults,
				WallCapW:      tc.capW,
				Metrics:       reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			pins, steps, macro, grid := pinSum(reg)
			if pins != steps-macro {
				t.Errorf("Σ pins = %d, want steps − macro = %d − %d = %d",
					pins, steps, macro, steps-macro)
			}
			if steps != int64(res.RackSteps) {
				t.Errorf("kernel.steps.total = %d, Result.RackSteps = %d", steps, res.RackSteps)
			}
			if grid != 1800 {
				t.Errorf("kernel.grid.steps = %d, want the full 1800-step grid", grid)
			}
			if !tc.event {
				if fd := reg.Counter("kernel.pin.fixed-dt").Value(); fd != steps || macro != 0 {
					t.Errorf("fixed-dt mode: pin.fixed-dt = %d macro = %d, want %d/0", fd, macro, steps)
				}
			} else if reg.Counter("kernel.pin.fixed-dt").Value() != 0 {
				t.Errorf("event mode must never charge the fixed-dt pin")
			}
			if got := reg.Counter("sched.jobs.submitted").Value(); got != int64(len(jobs)) {
				t.Errorf("sched.jobs.submitted = %d, want %d", got, len(jobs))
			}
			if got := reg.Counter("sched.jobs.completed").Value(); got != int64(res.Completed) {
				t.Errorf("sched.jobs.completed = %d, Result.Completed = %d", got, res.Completed)
			}
			if got := reg.Counter("sched.kills.requeued").Value(); got != int64(res.Requeued) {
				t.Errorf("sched.kills.requeued = %d, Result.Requeued = %d", got, res.Requeued)
			}
			if got := int(reg.Gauge("sched.backlog.highwater").Value()); got != res.MaxQueueLen {
				t.Errorf("sched.backlog.highwater = %d, Result.MaxQueueLen = %d", got, res.MaxQueueLen)
			}
			if got := reg.Counter("sched.deferrals").Value(); got != int64(res.Deferrals) {
				t.Errorf("sched.deferrals = %d, Result.Deferrals = %d", got, res.Deferrals)
			}
			if tc.capW > 0 && res.Deferrals < 100 {
				t.Errorf("only %d deferrals: the cap does not bind", res.Deferrals)
			}
			if res.Metrics != reg {
				t.Errorf("Result.Metrics must echo the attached registry")
			}
			if tc.faults != nil {
				if a := reg.Counter("rack.fault.applied").Value(); a != 3 {
					t.Errorf("rack.fault.applied = %d, want 3", a)
				}
				if c := reg.Counter("rack.fault.cleared").Value(); c != 2 {
					t.Errorf("rack.fault.cleared = %d, want 2", c)
				}
			}
		})
	}
}

// TestMetricsDoNotPerturbRun pins the nil-registry-by-default contract
// from the other side: attaching a registry must not change a single
// scheduling or physics output.
func TestMetricsDoNotPerturbRun(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	jobs := randomTrace(t, rng, 1200, 4, 0.5)
	for _, event := range []bool{false, true} {
		run := func(reg *obs.Registry) (Result, rack.Telemetry) {
			r := eventRack(t, eventRackCfg{servers: 4, workers: 2, chain: true, fac: true})
			res, err := RunTraceCfg(r, jobs, NewCoolestFirst(), TraceConfig{
				Dt: 1, Horizon: 1200, EventStepping: event, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res, r.Telemetry()
		}
		bare, bareTel := run(nil)
		inst, instTel := run(obs.NewRegistry())
		inst.Metrics = nil // the echo is the only allowed difference
		if bare != inst {
			t.Errorf("event=%v: results diverge with a registry attached:\nnil  %+v\nlive %+v", event, bare, inst)
		}
		if bareTel != instTel {
			t.Errorf("event=%v: telemetry diverges with a registry attached", event)
		}
	}
}

// TestMetricsDumpDeterministicAcrossWorkers runs the same instrumented
// trace at workers=1 and workers=4 and requires byte-identical WriteText
// output — the registry half of the repo's determinism contract (the
// experiment-level version, sharing one registry across concurrent runs,
// lives in internal/experiments).
func TestMetricsDumpDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	jobs := randomTrace(t, rng, 1500, 4, 0.4)
	dump := func(workers int) string {
		r := eventRack(t, eventRackCfg{servers: 4, workers: workers})
		reg := obs.NewRegistry()
		if _, err := RunTraceCfg(r, jobs, NewCoolestFirst(), TraceConfig{
			Dt: 1, Horizon: 1500, EventStepping: true, SampleEvery: 60, Metrics: reg,
		}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one, many := dump(1), dump(4)
	if one != many {
		t.Errorf("metrics dump differs across worker counts:\n-- workers=1 --\n%s\n-- workers=4 --\n%s", one, many)
	}
	if len(one) == 0 {
		t.Fatalf("empty metrics dump")
	}
}
