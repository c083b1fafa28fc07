package experiments

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/server"
)

// smallFaultEval shrinks the catalogue run for fast deterministic tests:
// a 4-server rack, a 20-minute horizon, and fault times rescaled into it.
func smallFaultEval() Scenario {
	fe := DefaultFaultEval()
	fe.Servers = 4
	fe.Horizon = 1200
	fe.Stabilize = 60
	fe.Faults = []FaultScenario{
		{Name: "none"},
		{Name: "fan-stick", Schedule: fault.Schedule{Events: []fault.Event{
			{Kind: fault.FanStick, Server: 0, Fan: 0, At: 200},
		}}},
		{Name: "cascade", Schedule: fault.Schedule{Events: []fault.Event{
			{Kind: fault.FanFail, Server: 0, Fan: 0, At: 200},
			{Kind: fault.PSUFail, Server: 1, At: 400},
			{Kind: fault.CRACOutage, At: 600, Clear: 900},
			{Kind: fault.ServerTrip, Server: 3, At: 700},
		}}},
	}
	return fe
}

// TestRackFaultScenarioOutcomes checks the catalogue's graceful-degradation
// semantics end to end for every policy.
func TestRackFaultScenarioOutcomes(t *testing.T) {
	fe := smallFaultEval()
	rows, err := RunScenario(server.T3Config(), fe)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(fe.Faults) * 6; len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	byScenario := map[string][]Row{}
	for _, r := range rows {
		byScenario[r.Fault] = append(byScenario[r.Fault], r)
	}
	for _, r := range byScenario["none"] {
		if r.Sched.Requeued != 0 || r.Sched.Lost != 0 || r.Sched.LostJobSeconds != 0 {
			t.Fatalf("healthy run shows disruption: %+v", r)
		}
		if r.HealthyAtEnd != fe.Servers {
			t.Fatalf("healthy run lost servers: %d/%d", r.HealthyAtEnd, fe.Servers)
		}
		if r.Rack.WorstAccel <= 0 {
			t.Fatalf("reliability roll-up missing on %s", r.Policy)
		}
	}
	for _, r := range byScenario["cascade"] {
		// The permanent PSU failure and the forced trip remove two slots.
		if r.HealthyAtEnd != fe.Servers-2 {
			t.Fatalf("%s: cascade survivors %d, want %d", r.Policy, r.HealthyAtEnd, fe.Servers-2)
		}
		// Every job is either completed, still running at the horizon, or
		// accounted as destroyed work — nothing silently vanishes, and the
		// run terminated (we are here) starvation-free.
		if r.Sched.Requeued == 0 && r.Sched.Lost == 0 {
			t.Fatalf("%s: cascade killed no jobs", r.Policy)
		}
		if r.Sched.LostJobSeconds <= 0 {
			t.Fatalf("%s: cascade destroyed no job-seconds", r.Policy)
		}
		if r.Sched.Completed > r.Sched.Submitted {
			t.Fatalf("%s: completed %d > submitted %d", r.Policy, r.Sched.Completed, r.Sched.Submitted)
		}
	}
}

// TestRackFaultNoneMatchesNilSchedule: the "none" catalogue entry (nil
// schedule) and an explicitly empty schedule must produce byte-identical
// rows — the fault plumbing is invisible until an event exists.
func TestRackFaultNoneMatchesNilSchedule(t *testing.T) {
	fe := smallFaultEval()
	fe.Faults = []FaultScenario{{Name: "none"}}
	ref, err := RunScenario(server.T3Config(), fe)
	if err != nil {
		t.Fatal(err)
	}
	fe.Faults = []FaultScenario{{Name: "none", Schedule: fault.Schedule{Events: []fault.Event{}}}}
	empty, err := RunScenario(server.T3Config(), fe)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, empty) {
		t.Fatalf("empty schedule diverged from nil:\nnil:   %+v\nempty: %+v", ref, empty)
	}
}
