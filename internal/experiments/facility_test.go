package experiments

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/server"
	"repro/internal/units"
)

// smallFacilityEval shrinks the sweep for fast deterministic tests.
func smallFacilityEval() Scenario {
	fe := DefaultFacilityEval()
	fe.Servers = 4
	fe.Horizon = 900
	fe.Stabilize = 60
	fe.SetpointsC = []units.Celsius{14, 26}
	return fe
}

// TestRackFacilityComparisonSweetSpot is the headline acceptance
// criterion: on the default sweep, total facility energy is minimized at
// a non-extreme setpoint — the cold end overpays the chiller, the warm
// end overpays server fans and leakage — for every policy.
func TestRackFacilityComparisonSweetSpot(t *testing.T) {
	fe := DefaultFacilityEval()
	rows, err := RunScenario(server.T3Config(), fe)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6*len(fe.SetpointsC) {
		t.Fatalf("got %d rows, want %d", len(rows), 6*len(fe.SetpointsC))
	}
	lo := float64(fe.SetpointsC[0])
	hi := float64(fe.SetpointsC[len(fe.SetpointsC)-1])
	for _, policy := range []string{"round-robin", "least-utilized", "coolest-first", "leakage-aware", "cap-aware", "pue-aware"} {
		sp, wh, err := FacilitySweetSpot(rows, policy)
		if err != nil {
			t.Fatal(err)
		}
		if sp == lo || sp == hi {
			t.Errorf("%s: facility minimum %.2f Wh at extreme setpoint %g °C", policy, wh, sp)
		}
	}
	if t.Failed() {
		var buf bytes.Buffer
		_ = FormatTable(&buf, rows, FacilityColumns())
		t.Logf("facility table:\n%s", buf.String())
	}
}

// TestRackFacilityComparisonPhysics checks the per-row invariants: PUE is
// at least 1 everywhere, the facility bill decomposes into wall plus
// cooling, every job is served, and a warmer aisle strictly raises every
// policy's wall (IT) energy while cutting the cooling energy per IT watt.
func TestRackFacilityComparisonPhysics(t *testing.T) {
	rows, err := RunScenario(server.T3Config(), smallFacilityEval())
	if err != nil {
		t.Fatal(err)
	}
	bySetpoint := map[float64]map[string]Row{}
	for _, r := range rows {
		if r.Rack.PUE < 1 {
			t.Fatalf("%s@%g: PUE %g < 1", r.Policy, r.SetpointC, r.Rack.PUE)
		}
		sum := r.WallWh() + r.CoolingWh()
		if rel := math.Abs(r.FacilityWh()-sum) / sum; rel > 1e-9 {
			t.Fatalf("%s@%g: facility %g != wall+cooling %g", r.Policy, r.SetpointC, r.FacilityWh(), sum)
		}
		// The short window legitimately leaves a few tail arrivals queued;
		// what must hold is that the vast majority of the trace is served.
		if r.Sched.Placed*10 < r.Sched.Submitted*8 {
			t.Fatalf("%s@%g: placed only %d of %d", r.Policy, r.SetpointC, r.Sched.Placed, r.Sched.Submitted)
		}
		if bySetpoint[r.SetpointC] == nil {
			bySetpoint[r.SetpointC] = map[string]Row{}
		}
		bySetpoint[r.SetpointC][r.Policy] = r
	}
	cold, warm := bySetpoint[14], bySetpoint[26]
	for policy, c := range cold {
		w := warm[policy]
		if w.WallWh() <= c.WallWh() {
			t.Errorf("%s: warm aisle wall %g Wh must exceed cold %g Wh (leakage+fans)", policy, w.WallWh(), c.WallWh())
		}
		if w.Rack.PUE >= c.Rack.PUE {
			t.Errorf("%s: warm aisle PUE %g must undercut cold %g (cheaper chiller)", policy, w.Rack.PUE, c.Rack.PUE)
		}
	}
}
