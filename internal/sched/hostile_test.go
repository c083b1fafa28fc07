package sched_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/rack"
	"repro/internal/room"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/units"
)

// TestHostileTraceInputs runs a table of hostile jobs and fault times on
// both kernels, for a rack and for a room. Each case must return within a
// second: with an error naming the job or event, or with the time treated
// as past the horizon (a job that never arrives or never completes, a
// fault that never fires or never clears). A time past 2^63 grid steps
// must not reach the grid-step helpers' int conversion, whose overflow
// would start their correction loops at step 0.
func TestHostileTraceInputs(t *testing.T) {
	const horizon = 60
	huge, nan, inf := 1e19, math.NaN(), math.Inf(1)
	type outcome struct{ placed, completed, failed int }
	for _, tc := range []struct {
		name   string
		job    sched.Job
		ev     *fault.Event
		bad    bool    // the run must return an error
		expect outcome // otherwise its outcome
	}{
		{name: "duration 1e19", job: sched.Job{Arrival: 5, Duration: huge, Demand: 50}, expect: outcome{placed: 1}},
		{name: "duration +Inf", job: sched.Job{Arrival: 5, Duration: inf, Demand: 50}, expect: outcome{placed: 1}},
		{name: "arrival 1e19", job: sched.Job{Arrival: huge, Duration: 10, Demand: 50}},
		{name: "arrival -1e19", job: sched.Job{Arrival: -huge, Duration: 10, Demand: 50}, expect: outcome{placed: 1, completed: 1}},
		{name: "arrival NaN", job: sched.Job{Arrival: nan, Duration: 10, Demand: 50}, bad: true},
		{name: "arrival +Inf", job: sched.Job{Arrival: inf, Duration: 10, Demand: 50}, bad: true},
		{name: "arrival -Inf", job: sched.Job{Arrival: -inf, Duration: 10, Demand: 50}, bad: true},
		{name: "duration NaN", job: sched.Job{Arrival: 5, Duration: nan, Demand: 50}, bad: true},
		{name: "duration negative", job: sched.Job{Arrival: 5, Duration: -1, Demand: 50}, bad: true},
		{name: "demand 0", job: sched.Job{Arrival: 5, Duration: 10, Demand: 0}, bad: true},
		{name: "demand over 100", job: sched.Job{Arrival: 5, Duration: 10, Demand: 150}, bad: true},
		{name: "demand NaN", job: sched.Job{Arrival: 5, Duration: 10, Demand: units.Percent(nan)}, bad: true},
		{name: "fault at 1e19", job: sched.Job{Arrival: 5, Duration: 10, Demand: 50},
			ev: &fault.Event{Kind: fault.PSUFail, Server: 0, At: huge}, expect: outcome{placed: 1, completed: 1}},
		{name: "fault clear 1e19", job: sched.Job{Arrival: 5, Duration: 10, Demand: 50},
			ev: &fault.Event{Kind: fault.PSUFail, Server: 0, At: 2, Clear: huge}, expect: outcome{placed: 1, completed: 1, failed: 1}},
		{name: "fault at NaN", job: sched.Job{Arrival: 5, Duration: 10, Demand: 50},
			ev: &fault.Event{Kind: fault.PSUFail, Server: 0, At: nan}, bad: true},
	} {
		var sch *fault.Schedule
		if tc.ev != nil {
			sch = &fault.Schedule{Events: []fault.Event{*tc.ev}}
		}
		jobs := []sched.Job{tc.job}
		for _, event := range []bool{false, true} {
			r := hostileRack(t)
			rm, pol := hostileRoom(t)
			runs := []struct {
				scope string
				run   func() (outcome, error)
			}{
				{"rack", func() (outcome, error) {
					res, err := sched.RunTraceCfg(r, jobs, sched.NewRoundRobin(), sched.TraceConfig{
						Dt: 1, Horizon: horizon, EventStepping: event, Faults: sch,
					})
					return outcome{res.Placed, res.Completed, r.Telemetry().Failed}, err
				}},
				{"room", func() (outcome, error) {
					res, err := room.RunTrace(rm, jobs, pol, room.TraceConfig{
						Dt: 1, Horizon: horizon, EventStepping: event, Faults: []*fault.Schedule{sch, nil},
					})
					return outcome{res.Placed, res.Completed, rm.Telemetry().Failed}, err
				}},
			}
			for _, run := range runs {
				name := run.scope + " fixed-dt"
				if event {
					name = run.scope + " event"
				}
				type ret struct {
					out outcome
					err error
				}
				done := make(chan ret, 1)
				go func() {
					out, err := run.run()
					done <- ret{out, err}
				}()
				select {
				case got := <-done:
					switch {
					case tc.bad && got.err == nil:
						t.Errorf("%s, %s: the run returned no error", tc.name, name)
					case !tc.bad && got.err != nil:
						t.Errorf("%s, %s: %v", tc.name, name, got.err)
					case !tc.bad && got.out != tc.expect:
						t.Errorf("%s, %s: outcome %+v, want %+v", tc.name, name, got.out, tc.expect)
					}
				case <-time.After(time.Second):
					t.Errorf("%s, %s: the run did not return within a second", tc.name, name)
				}
			}
		}
	}
}

func hostileRack(t *testing.T) *rack.Rack {
	t.Helper()
	specs := make([]rack.ServerSpec, 2)
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

func hostileRoom(t *testing.T) (*room.Room, *room.Policy) {
	t.Helper()
	specs := make([]room.RackSpec, 2)
	slots := make([]sched.Policy, len(specs))
	for i := range specs {
		specs[i] = room.RackSpec{Config: rack.Config{Servers: []rack.ServerSpec{
			{Config: server.T3Config()}, {Config: server.T3Config()},
		}}}
		slots[i] = sched.NewRoundRobin()
	}
	rm, err := room.New(room.Config{Racks: specs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := room.NewPolicy(room.NewRoundRobinRacks(), slots)
	if err != nil {
		t.Fatal(err)
	}
	return rm, pol
}
