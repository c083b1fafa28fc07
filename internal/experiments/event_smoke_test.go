package experiments

import (
	"math"
	"testing"

	"repro/internal/power"
	"repro/internal/server"
)

// compareKernels runs RackPolicyComparison on both kernels and checks the
// per-row equivalence contract: identical scheduling outcomes, energies
// within the macro-stepping tolerance, identical fan-change counts. It
// returns the per-policy speedup factors keyed by policy name plus the
// aggregate fixed/event step totals.
func compareKernels(t *testing.T, ev RackEval) (rows []RackPolicyResult, speedups map[string]float64, fixedSteps, eventSteps int) {
	t.Helper()
	base := server.T3Config()
	fixedRows, err := RackPolicyComparison(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	ev.EventStepping = true
	eventRows, err := RackPolicyComparison(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	speedups, fixedSteps, eventSteps = compareRows(t, fixedRows, eventRows)
	return fixedRows, speedups, fixedSteps, eventSteps
}

// compareRows checks compareKernels' per-row contract on two kernels'
// rows of one comparison.
func compareRows(t *testing.T, fixedRows, eventRows []RackPolicyResult) (speedups map[string]float64, fixedSteps, eventSteps int) {
	t.Helper()
	if len(fixedRows) != len(eventRows) {
		t.Fatalf("row count mismatch: %d vs %d", len(fixedRows), len(eventRows))
	}
	speedups = make(map[string]float64, len(fixedRows))
	for i, f := range fixedRows {
		e := eventRows[i]
		if f.Policy != e.Policy {
			t.Fatalf("row %d policy mismatch: %s vs %s", i, f.Policy, e.Policy)
		}
		fixedSteps += f.Sched.RackSteps
		eventSteps += e.Sched.RackSteps
		speedups[f.Policy] = float64(f.Sched.RackSteps) / float64(e.Sched.RackSteps)
		t.Logf("%-14s rack steps %d → %d (%.1f×), Wh %.3f → %.3f",
			f.Policy, f.Sched.RackSteps, e.Sched.RackSteps,
			speedups[f.Policy], f.TotalWh(), e.TotalWh())

		// Identical scheduling outcomes.
		fs, es := f.Sched, e.Sched
		fs.RackSteps, es.RackSteps = 0, 0
		if fs != es {
			t.Errorf("%s: scheduling outcomes differ:\nfixed %+v\nevent %+v", f.Policy, f.Sched, e.Sched)
		}
		// Energies within the macro-stepping tolerance.
		for _, m := range []struct {
			name string
			f, e float64
		}{
			{"TotalEnergyKWh", f.Rack.TotalEnergyKWh, e.Rack.TotalEnergyKWh},
			{"FanEnergyKWh", f.Rack.FanEnergyKWh, e.Rack.FanEnergyKWh},
			{"WallEnergyKWh", f.Rack.WallEnergyKWh, e.Rack.WallEnergyKWh},
		} {
			d := math.Abs(m.e - m.f)
			if m.f != 0 {
				d /= math.Abs(m.f)
			}
			if d > 1e-6 {
				t.Errorf("%s: %s off by %g relative (event %g vs fixed %g)",
					f.Policy, m.name, d, m.e, m.f)
			}
		}
		if f.Rack.FanChanges != e.Rack.FanChanges {
			t.Errorf("%s: fan changes differ: %d vs %d", f.Policy, f.Rack.FanChanges, e.Rack.FanChanges)
		}
		if d := math.Abs(f.Rack.MaxCPUTempC - e.Rack.MaxCPUTempC); d > 0.3 {
			t.Errorf("%s: MaxCPUTempC off by %g °C", f.Policy, d)
		}
	}
	return speedups, fixedSteps, eventSteps
}

// TestEventSteppingSmoke is the CI gate for the event-driven kernel on the
// real experiment: the RackPolicyComparison Poisson trace, fixed-dt vs
// event-driven, on the default (drained-queue) shape and on a saturated
// variant whose backlog never empties. It logs the macro-vs-fixed step
// counts and the speedup factor per policy and fails if event stepping
// cannot collapse the default trace at least 5× in aggregate — or, since
// PR 8's load-only refusal un-pin, the saturated trace at least 5× on the
// load-only policies — or if any headline metric drifts past the
// macro-stepping tolerance. The capped half of RackACComparison gates the
// policies that decide on loads alone: they cross cap-deferred heads as
// far as the wall-floor proof reaches.
func TestEventSteppingSmoke(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		_, _, fixedSteps, eventSteps := compareKernels(t, DefaultRackEval())
		speedup := float64(fixedSteps) / float64(eventSteps)
		t.Logf("default trace: %d fixed rack steps vs %d event rack steps — %.1f× fewer", fixedSteps, eventSteps, speedup)
		if eventSteps >= fixedSteps {
			t.Fatalf("event stepping took %d rack steps, fixed-dt %d: no collapse at all", eventSteps, fixedSteps)
		}
		if speedup < 5 {
			t.Fatalf("event stepping collapsed the default trace only %.1f×, want ≥5×", speedup)
		}
	})
	t.Run("saturated", func(t *testing.T) {
		ev := DefaultRackEval()
		// 4× the default offered load ≈ 1.2× rack capacity: the backlog
		// never drains, while arrivals stay sparse enough that an
		// O(#events) kernel still has a collapse to show (at much higher
		// rates the arrival events themselves dominate the step count).
		ev.Rate *= 4
		rows, speedups, fixedSteps, eventSteps := compareKernels(t, ev)
		t.Logf("saturated trace: %d fixed rack steps vs %d event rack steps", fixedSteps, eventSteps)
		for _, r := range rows {
			if r.Sched.MaxQueueLen < 4 {
				t.Fatalf("%s: max queue %d — the trace is not saturated and the gate below is vacuous",
					r.Policy, r.Sched.MaxQueueLen)
			}
		}
		// Load-only refusers macro-step completion-to-completion even with
		// jobs queued; the thermally-informed policies keep the backlog pin
		// (exactness first), so only the load-only rows carry the gate.
		for _, policy := range []string{"round-robin", "least-utilized"} {
			s, ok := speedups[policy]
			if !ok {
				t.Fatalf("policy %q missing from comparison rows", policy)
			}
			if s < 5 {
				t.Errorf("%s: saturated trace collapsed only %.1f×, want ≥5× from the load-only un-pin", policy, s)
			}
		}
	})
	t.Run("capped", func(t *testing.T) {
		base := server.T3Config()
		ev := DefaultRackEval()
		// The saturated shape behind the delivery chain: under the auto
		// cap the queue head spends most steps deferred.
		ev.Rate *= 4
		psu, pdu := power.DefaultPSU(), power.DefaultPDU()
		ev.PSU, ev.PDU = &psu, &pdu
		fixed, err := RackACComparison(base, ev)
		if err != nil {
			t.Fatal(err)
		}
		// Both kernels run under the fixed-dt auto cap: the event kernel's
		// uncapped peak, which would set its own, sits within its drift.
		ev.WallCapW = fixed.CapW
		ev.EventStepping = true
		event, err := RackACComparison(base, ev)
		if err != nil {
			t.Fatal(err)
		}
		speedups, fixedSteps, eventSteps := compareRows(t, fixed.Capped, event.Capped)
		t.Logf("capped half at %.0f W: %d fixed rack steps vs %d event rack steps", fixed.CapW, fixedSteps, eventSteps)
		for _, r := range fixed.Capped {
			if r.Sched.Deferrals*4 < r.Sched.RackSteps {
				t.Fatalf("%s: %d deferrals in %d steps — the cap does not bind and the gate below is vacuous",
					r.Policy, r.Sched.Deferrals, r.Sched.RackSteps)
			}
		}
		for _, policy := range []string{"round-robin", "least-utilized", "leakage-aware"} {
			s, ok := speedups[policy]
			if !ok {
				t.Fatalf("policy %q missing from comparison rows", policy)
			}
			if s < 3 {
				t.Errorf("%s: capped trace collapsed only %.1f×, want ≥3× from crossing proven deferrals", policy, s)
			}
		}
	})
}
