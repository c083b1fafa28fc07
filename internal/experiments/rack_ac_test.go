package experiments

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/power"
	"repro/internal/server"
)

// acEval returns a small chained eval for the AC-side tests: every policy
// uncapped, then under the automatic cap.
func acEval(workers int) Scenario {
	ev := smallRackEval()
	ev.Workers = workers
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	ev.PSU, ev.PDU = &psu, &pdu
	ev.WallCapsW = []float64{0, AutoCap}
	return ev
}

// TestRackACComparisonAccounting pins the wall-side arithmetic: every
// policy's AC energy strictly exceeds its DC energy by the reported loss,
// the capped half enforces a positive budget, and the auto cap derives
// from round-robin's uncapped peak.
func TestRackACComparisonAccounting(t *testing.T) {
	rows, err := RunScenario(server.T3Config(), acEval(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("want 5+5 rows, got %d", len(rows))
	}
	uncapped, capped := rows[:5], rows[5:]
	want := AutoCapFraction * rackRow(t, uncapped, "round-robin").Rack.PeakWallPowerW
	for _, r := range rows {
		if r.WallWh() <= r.TotalWh() {
			t.Fatalf("%s: Wh(AC) %g must exceed Wh(DC) %g", r.Policy, r.WallWh(), r.TotalWh())
		}
		if diff := math.Abs((r.WallWh() - r.TotalWh()) - r.LossWh()); diff > r.LossWh()*1e-6 {
			t.Fatalf("%s: loss %g inconsistent with wall−dc %g", r.Policy, r.LossWh(), r.WallWh()-r.TotalWh())
		}
		if r.Rack.PeakWallPowerW <= r.Rack.PeakPowerW {
			t.Fatalf("%s: peak wall must exceed peak DC", r.Policy)
		}
	}
	for _, r := range uncapped {
		if r.CapW != 0 {
			t.Fatalf("%s: uncapped row carries cap %g", r.Policy, r.CapW)
		}
	}
	for _, r := range capped {
		if want <= 0 || math.Abs(r.CapW-want) > 1e-9 {
			t.Fatalf("%s: capped row carries cap %g, want the auto cap %g", r.Policy, r.CapW, want)
		}
		if r.Sched.Placed != r.Sched.Submitted {
			t.Fatalf("%s: capped run starved: placed %d of %d", r.Policy, r.Sched.Placed, r.Sched.Submitted)
		}
	}
	// The cap binds somewhere: across the capped half placements deferred
	// and the peak wall draw came down versus the uncapped runs.
	var deferred int
	for i, r := range capped {
		deferred += r.Sched.Deferrals
		if r.Rack.PeakWallPowerW > uncapped[i].Rack.PeakWallPowerW {
			t.Fatalf("%s: capped peak wall %g exceeds uncapped %g",
				r.Policy, r.Rack.PeakWallPowerW, uncapped[i].Rack.PeakWallPowerW)
		}
	}
	if deferred == 0 {
		t.Fatal("auto cap below round-robin's peak must defer at least one placement")
	}
}

// TestAutoCapUnderPolicyFilter: the automatic cap always derives from
// round-robin's uncapped run, so a row the Policy filter isolates runs at
// the budget of the same row in the full comparison — also when the filter
// or the cap axis leaves round-robin's uncapped row out.
func TestAutoCapUnderPolicyFilter(t *testing.T) {
	base := server.T3Config()
	full, err := RunScenario(base, acEval(0))
	if err != nil {
		t.Fatal(err)
	}
	want := full[5:][2]
	if want.Policy != "coolest-first" {
		t.Fatalf("capped row 2 is %s, want coolest-first", want.Policy)
	}
	ev := acEval(0)
	ev.Policy = "coolest-first"
	both, err := RunScenario(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	ev.WallCapsW = []float64{AutoCap}
	capped, err := RunScenario(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != 2 || len(capped) != 1 {
		t.Fatalf("filtered runs returned %d and %d rows, want 2 and 1", len(both), len(capped))
	}
	for _, got := range []Row{both[1], capped[0]} {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("filtered capped row differs from the full comparison's:\nfiltered: %+v\nfull:     %+v", got, want)
		}
	}
	if !reflect.DeepEqual(both[0], full[2]) {
		t.Fatalf("filtered uncapped row differs from the full comparison's")
	}
}

// TestRackACComparisonIdealChainMatchesDC: with no PSU/PDU the AC side
// must collapse onto the DC side — zero loss, identical peaks — and the
// uncapped physics metrics must be bit-identical to the uncapped-only
// scenario (the acceptance criterion that the chain is pure accounting).
func TestRackACComparisonIdealChainMatchesDC(t *testing.T) {
	ev := acEval(1)
	ev.PSU, ev.PDU = nil, nil
	res, err := RunScenario(server.T3Config(), ev)
	if err != nil {
		t.Fatal(err)
	}
	uncapped := res[:5]
	for _, r := range uncapped {
		if r.Rack.LossEnergyKWh != 0 {
			t.Fatalf("%s: ideal chain loss %g, want exactly 0", r.Policy, r.Rack.LossEnergyKWh)
		}
		if r.Rack.PeakWallPowerW != r.Rack.PeakPowerW {
			t.Fatalf("%s: ideal chain peaks differ", r.Policy)
		}
	}
	ev.WallCapsW = nil
	rows, err := RunScenario(server.T3Config(), ev)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, uncapped) {
		t.Fatalf("the uncapped-only scenario differs from the uncapped AC half:\n%+v\n%+v", rows, uncapped)
	}
}
