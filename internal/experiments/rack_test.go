package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/server"
)

// rackRow finds a policy's row.
func rackRow(t *testing.T, rows []Row, policy string) Row {
	t.Helper()
	for _, r := range rows {
		if r.Policy == policy {
			return r
		}
	}
	t.Fatalf("policy %q missing from %d rows", policy, len(rows))
	return Row{}
}

// smallRackEval shrinks the rack comparison for fast deterministic tests.
func smallRackEval() Scenario {
	sc := DefaultRackEval()
	sc.Servers = 4
	sc.Horizon = 900
	sc.Stabilize = 60
	return sc
}

// TestRackPolicyComparisonOrdering is the headline acceptance criterion:
// on the default heterogeneous rack and Poisson trace, the thermally
// aware policies must beat round-robin on total energy, with every policy
// serving the identical job trace to completion parity.
func TestRackPolicyComparisonOrdering(t *testing.T) {
	rows, err := RunScenario(server.T3Config(), DefaultRackEval())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	rr := rackRow(t, rows, "round-robin")
	cool := rackRow(t, rows, "coolest-first")
	leak := rackRow(t, rows, "leakage-aware")

	if cool.TotalWh() >= rr.TotalWh() {
		t.Fatalf("coolest-first (%.3f Wh) must beat round-robin (%.3f Wh)", cool.TotalWh(), rr.TotalWh())
	}
	if leak.TotalWh() >= rr.TotalWh() {
		t.Fatalf("leakage-aware (%.3f Wh) must beat round-robin (%.3f Wh)", leak.TotalWh(), rr.TotalWh())
	}

	// Same trace, same capacity: every policy must place every job.
	for _, r := range rows {
		if r.Sched.Placed != r.Sched.Submitted {
			t.Fatalf("%s placed %d of %d jobs", r.Policy, r.Sched.Placed, r.Sched.Submitted)
		}
		if r.Rack.Tripped != 0 {
			t.Fatalf("%s tripped thermal protection on %d servers", r.Policy, r.Rack.Tripped)
		}
		if r.Rack.MaxCPUTempC >= float64(server.T3Config().CriticalTemp) {
			t.Fatalf("%s max CPU temp %.1f at/above critical", r.Policy, r.Rack.MaxCPUTempC)
		}
	}
}

// TestRackPolicyComparisonSeedSensitivity guards that the trace seed is
// load-bearing: different seeds must yield different job traces and hence
// different energies.
func TestRackPolicyComparisonSeedSensitivity(t *testing.T) {
	base := server.T3Config()
	ev := DefaultRackEval()
	ev.Servers = 2
	ev.Horizon = 600
	ev.Stabilize = 30
	ev.Workers = 1
	a, err := RunScenario(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	ev.TraceSeed = 7
	b, err := RunScenario(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Rack.TotalEnergyKWh == b[0].Rack.TotalEnergyKWh {
		t.Fatal("different trace seeds produced identical energies")
	}
}

// TestRackEvalValidation covers the config error paths.
func TestRackEvalValidation(t *testing.T) {
	base := server.T3Config()
	bad := DefaultRackEval()
	bad.Servers = 0
	if _, err := RunScenario(base, bad); err == nil {
		t.Fatal("zero servers must be rejected")
	}
	bad = DefaultRackEval()
	bad.Rate = 0
	if _, err := RunScenario(base, bad); err == nil {
		t.Fatal("zero arrival rate must be rejected")
	}
	bad = DefaultRackEval()
	bad.Demands = nil
	if _, err := RunScenario(base, bad); err == nil {
		t.Fatal("empty demand levels must be rejected")
	}
}

// TestRackPolicyFilter pins the Scenario.Policy contract: a named policy
// shrinks the comparison to exactly that row — identical to the same row
// of the unfiltered run, since the shared LUT grid and job trace don't
// depend on which policies consume them — and an unknown name is a
// configuration error, not an empty table.
func TestRackPolicyFilter(t *testing.T) {
	base := server.T3Config()
	ev := smallRackEval()

	full, err := RunScenario(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	ev.Policy = "least-utilized"
	one, err := RunScenario(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Fatalf("filtered comparison returned %d rows, want 1", len(one))
	}
	if !reflect.DeepEqual(one[0], rackRow(t, full, "least-utilized")) {
		t.Fatalf("filtered row differs from the unfiltered run:\nfiltered:   %+v\nunfiltered: %+v",
			one[0], rackRow(t, full, "least-utilized"))
	}

	ev.Policy = "no-such-policy"
	if _, err := RunScenario(base, ev); err == nil {
		t.Fatal("unknown policy name must be rejected")
	} else if !strings.Contains(err.Error(), "round-robin") {
		t.Fatalf("error should list the valid names, got: %v", err)
	}
}
