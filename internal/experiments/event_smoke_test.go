package experiments

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/server"
)

// compareKernels runs a rack scenario on both kernels and checks the
// per-row equivalence contract: identical scheduling outcomes, energies
// within the macro-stepping tolerance, identical fan-change counts, and
// the hottest die within the bound below. It returns the per-policy
// speedup factors keyed by policy name plus the aggregate fixed/event step
// totals.
func compareKernels(t *testing.T, ev Scenario) (rows []Row, speedups map[string]float64, fixedSteps, eventSteps int) {
	t.Helper()
	base := server.T3Config()
	fixedRows, err := RunScenario(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	ev.EventStepping = true
	eventRows, err := RunScenario(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	speedups, fixedSteps, eventSteps = compareRows(t, fixedRows, eventRows)
	return fixedRows, speedups, fixedSteps, eventSteps
}

// Bounds on the event kernel's MaxCPUTempC against fixed-dt's. A macro
// window folds the hottest die into the maxima only at its sub-window
// boundaries, so a peak inside a collapsed sub-window is missed and the
// event kernel reads low, never high beyond rounding. Measured over the
// default, saturated and capped comparisons below: at most 0.0317 °C low
// (least-utilized, saturated), never high.
const (
	maxPeakMissC = 0.05 // fixed − event
	maxPeakOverC = 1e-3 // event − fixed
)

// compareRows checks compareKernels' per-row contract on two kernels'
// rows of one comparison.
func compareRows(t *testing.T, fixedRows, eventRows []Row) (speedups map[string]float64, fixedSteps, eventSteps int) {
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
		miss := f.Rack.MaxCPUTempC - e.Rack.MaxCPUTempC
		t.Logf("%-14s rack steps %d → %d (%.1f×), Wh %.3f → %.3f, MaxCPU %.4g °C low",
			f.Policy, f.Sched.RackSteps, e.Sched.RackSteps,
			speedups[f.Policy], f.TotalWh(), e.TotalWh(), miss)

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
		// Every row runs LUT control, under which the event kernel's
		// energies sit at or below fixed-dt's (see sched's
		// assertEquivalent): the sign of the error is pinned too.
		if fs == es {
			for _, m := range []struct {
				name string
				f, e float64
			}{
				{"TotalEnergyKWh", f.Rack.TotalEnergyKWh, e.Rack.TotalEnergyKWh},
				{"WallEnergyKWh", f.Rack.WallEnergyKWh, e.Rack.WallEnergyKWh},
				{"FacilityEnergyKWh", f.Rack.FacilityEnergyKWh, e.Rack.FacilityEnergyKWh},
			} {
				if m.e > m.f*(1+1e-12) {
					t.Errorf("%s: %s on the event kernel %.17g above fixed-dt %.17g", f.Policy, m.name, m.e, m.f)
				}
			}
		}
		if f.Rack.FanChanges != e.Rack.FanChanges {
			t.Errorf("%s: fan changes differ: %d vs %d", f.Policy, f.Rack.FanChanges, e.Rack.FanChanges)
		}
		if miss > maxPeakMissC || -miss > maxPeakOverC {
			t.Errorf("%s: MaxCPUTempC %.6f °C on the event kernel, %.6f °C on fixed-dt (bounds: %g °C low, %g °C high)",
				f.Policy, e.Rack.MaxCPUTempC, f.Rack.MaxCPUTempC, maxPeakMissC, maxPeakOverC)
		}
	}
	return speedups, fixedSteps, eventSteps
}

// TestEventSteppingSmoke is the CI gate for the event-driven kernel on the
// real experiment: the DefaultRackEval Poisson trace, fixed-dt vs
// event-driven, on the default (drained-queue) shape and on a saturated
// variant whose backlog never empties. It logs the macro-vs-fixed step
// counts and the speedup factor per policy and fails if event stepping
// cannot collapse the default trace at least 5× in aggregate — or, since
// PR 8's load-only refusal un-pin, the saturated trace at least 5× on the
// load-only policies — or if any headline metric drifts past the
// macro-stepping tolerance. The AutoCap half of the AC comparison gates
// crossing cap-deferred heads as far as the wall-floor proof reaches: the
// policies that decide on loads alone, and those that rank slots by
// temperature or draw, whose crossed retries see the views the walk
// predicts. The faults subtest gates the fault catalogue: fault windows
// and dark slots macro-step like any quiet interval.
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
		ev.WallCapsW = []float64{AutoCap}
		fixed, err := RunScenario(base, ev)
		if err != nil {
			t.Fatal(err)
		}
		// Both kernels run under the fixed-dt auto cap: the event kernel's
		// uncapped peak, which would set its own, sits within its drift.
		capW := fixed[0].CapW
		ev.WallCapsW = []float64{capW}
		ev.EventStepping = true
		event, err := RunScenario(base, ev)
		if err != nil {
			t.Fatal(err)
		}
		speedups, fixedSteps, eventSteps := compareRows(t, fixed, event)
		t.Logf("capped half at %.0f W: %d fixed rack steps vs %d event rack steps", capW, fixedSteps, eventSteps)
		for _, r := range fixed {
			if r.Sched.Deferrals*4 < r.Sched.RackSteps {
				t.Fatalf("%s: %d deferrals in %d steps — the cap does not bind and the gate below is vacuous",
					r.Policy, r.Sched.Deferrals, r.Sched.RackSteps)
			}
		}
		// Coolest-first and cap-aware still pin behind refused heads, so
		// their gate is lower.
		for policy, want := range map[string]float64{
			"round-robin": 3, "least-utilized": 3, "leakage-aware": 3,
			"coolest-first": 1.5, "cap-aware": 1.5,
		} {
			s, ok := speedups[policy]
			if !ok {
				t.Fatalf("policy %q missing from comparison rows", policy)
			}
			if s < want {
				t.Errorf("%s: capped trace collapsed only %.1f×, want ≥%g× from crossing proven deferrals", policy, s, want)
			}
		}
	})
	t.Run("faults", func(t *testing.T) {
		base := server.T3Config()
		fe := DefaultFaultEval()
		fixed, err := RunScenario(base, fe)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		fe.EventStepping, fe.Metrics = true, reg
		event, err := RunScenario(base, fe)
		if err != nil {
			t.Fatal(err)
		}
		if len(fixed) != len(event) {
			t.Fatalf("row count mismatch: %d vs %d", len(fixed), len(event))
		}
		for i, f := range fixed {
			e := event[i]
			if f.Fault != e.Fault || f.HealthyAtEnd != e.HealthyAtEnd {
				t.Errorf("row %d: scenario %s, %d healthy at the end on fixed-dt; %s, %d on the event kernel",
					i, f.Fault, f.HealthyAtEnd, e.Fault, e.HealthyAtEnd)
			}
			event[i].Sched.Metrics = nil // the registry, shared by every cell
		}
		compareRows(t, fixed, event)
		// The server-steps the event kernel collapsed, over all it took.
		// Measured: 0.968; with fault windows and dark slots held to plain
		// steps, 0.860.
		collapsed := reg.Counter("rack.macro.collapsed_steps").Value()
		plain := int64(0)
		for _, veto := range []string{"integrator", "slew", "trip_band", "drift", "tail"} {
			plain += reg.Counter("rack.macro.plain." + veto).Value()
		}
		ratio := float64(collapsed) / float64(collapsed+plain)
		t.Logf("fault catalogue: %d collapsed and %d plain server-steps, collapse ratio %.3f", collapsed, plain, ratio)
		if ratio < 0.95 {
			t.Errorf("collapse ratio %.3f, want ≥ 0.95", ratio)
		}
	})
}
