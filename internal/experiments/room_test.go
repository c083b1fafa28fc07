package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/room"
	"repro/internal/server"
)

// smallRoomEval shrinks the room comparison for fast deterministic tests.
func smallRoomEval() Scenario {
	ev := DefaultRoomEval()
	ev.Racks = 3
	ev.Servers = 2
	ev.Horizon = 400
	ev.Stabilize = 60
	ev.Rate = 0.05
	ev.MeanDuration = 120
	return ev
}

// TestRoomPolicyComparisonEventStepping: the event kernel must preserve
// every scheduling outcome of the fixed-dt comparison.
func TestRoomPolicyComparisonEventStepping(t *testing.T) {
	base := server.T3Config()
	ev := smallRoomEval()
	ev.Policy = "rr"
	fixed, err := RunScenario(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	ev.EventStepping = true
	event, err := RunScenario(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	f, e := fixed[0].RoomSched, event[0].RoomSched
	if f.Placed != e.Placed || f.Completed != e.Completed || f.MaxQueueLen != e.MaxQueueLen {
		t.Errorf("event kernel changed scheduling: fixed %+v event %+v", f, e)
	}
	var fAdv, eAdv int
	for _, st := range f.Kernel {
		fAdv += st.Advances
	}
	for _, st := range e.Kernel {
		eAdv += st.Advances
	}
	if eAdv >= fAdv {
		t.Errorf("event kernel took %d advances, fixed %d — no macro windows", eAdv, fAdv)
	}
}

// TestRoomPolicyComparisonVariants covers the configuration surface: the
// policy filter, the uncoupled/no-facility degenerate room, the economizer
// flag, and validation errors.
func TestRoomPolicyComparisonVariants(t *testing.T) {
	base := server.T3Config()

	t.Run("policy-filter", func(t *testing.T) {
		ev := smallRoomEval()
		ev.Policy = "coolest"
		rows, err := RunScenario(base, ev)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0].Policy != "coolest" {
			t.Fatalf("filter returned %+v", rows)
		}
	})

	t.Run("unknown-policy", func(t *testing.T) {
		ev := smallRoomEval()
		ev.Policy = "warmest"
		if _, err := RunScenario(base, ev); err == nil || !strings.Contains(err.Error(), "unknown policy") ||
			!strings.Contains(err.Error(), "recirc-pue") {
			t.Fatalf("want unknown-policy error, got %v", err)
		}
	})

	t.Run("invalid-eval", func(t *testing.T) {
		// Racks 0 is the one-rack topology; a negative count is an error.
		ev := smallRoomEval()
		ev.Racks = -1
		if _, err := RunScenario(base, ev); err == nil {
			t.Fatal("negative racks must be rejected")
		}
	})

	t.Run("topology-knobs", func(t *testing.T) {
		// A room has no delivery chain, cap, backfill, faults, reliability
		// sampling or checkpoints; a rack has no recirculation; the
		// economizer needs a facility.
		for name, mutate := range map[string]func(*Scenario){
			"room-cap":       func(sc *Scenario) { sc.WallCapsW = []float64{2000} },
			"room-backfill":  func(sc *Scenario) { sc.Backfill = true },
			"room-faults":    func(sc *Scenario) { sc.Faults = DefaultFaultScenarios() },
			"room-psu":       func(sc *Scenario) { sc.PSU = acEval(1).PSU },
			"room-resume":    func(sc *Scenario) { sc.Policy, sc.CheckpointEvery = "rr", 60 },
			"rack-recirc":    func(sc *Scenario) { sc.Racks, sc.Recirc = 0, room.NewMatrix(3) },
			"econ-no-supply": func(sc *Scenario) { sc.Economizer, sc.SetpointsC = true, nil },
		} {
			ev := smallRoomEval()
			mutate(&ev)
			if _, err := RunScenario(base, ev); err == nil {
				t.Errorf("%s: accepted", name)
			}
		}
	})

	t.Run("uncoupled-no-facility", func(t *testing.T) {
		ev := smallRoomEval()
		ev.Policy = "rr"
		ev.SetpointsC = nil
		ev.Recirc = room.NewMatrix(ev.Racks)
		rows, err := RunScenario(base, ev)
		if err != nil {
			t.Fatal(err)
		}
		r := rows[0].Room
		if r.CoolingEnergyKWh != 0 || r.PUE != 1 || r.MaxRecircOffsetC != 0 {
			t.Fatalf("uncoupled no-facility room must be exactly free to cool: %+v", r)
		}
	})

	t.Run("economizer", func(t *testing.T) {
		// The default chiller sits at 30 °C outdoor — above the engagement
		// setpoint — so the flag alone must not change a single number.
		ev := smallRoomEval()
		ev.Policy = "rr"
		warm, err := RunScenario(base, ev)
		if err != nil {
			t.Fatal(err)
		}
		ev.Economizer = true
		econ, err := RunScenario(base, ev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, econ) {
			t.Fatalf("bypassed economizer changed the comparison:\nwithout: %+v\nwith:    %+v", warm, econ)
		}
	})
}
