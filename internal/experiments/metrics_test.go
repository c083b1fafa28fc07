package experiments

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// metricsEval is a reduced rack comparison — small enough for a CI smoke,
// event-stepped so the pin-reason counters actually spread across reasons.
func metricsEval(workers int) Scenario {
	ev := DefaultRackEval()
	ev.Servers = 4
	ev.Horizon = 900
	ev.Stabilize = 120
	ev.EventStepping = true
	ev.Workers = workers
	return ev
}

// TestMetricsDeterminismAcrossWorkers is the CI metrics-determinism smoke:
// the full experiment fan-out shares ONE registry across all concurrently
// running policy cells, and the sorted dump must still come out
// byte-identical for workers=1 and workers=N — the internal/obs contract
// end to end, under the race detector.
func TestMetricsDeterminismAcrossWorkers(t *testing.T) {
	base := server.T3Config()
	dump := func(workers int) string {
		ev := metricsEval(workers)
		ev.Metrics = obs.NewRegistry()
		if _, err := RunScenario(base, ev); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ev.Metrics.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	one, many := dump(1), dump(4)
	if len(one) == 0 {
		t.Fatal("empty metrics dump")
	}
	if one != many {
		t.Errorf("experiment metrics dump differs across worker counts:\n-- workers=1 --\n%s\n-- workers=4 --\n%s", one, many)
	}
}

// TestExperimentPinIdentity checks the acceptance identity at the
// experiment level: over the whole policy fan-out, Σ kernel.pin.* equals
// total rack advances minus macro windows, and those advances match the
// sum of the per-row RackSteps.
func TestExperimentPinIdentity(t *testing.T) {
	base := server.T3Config()
	ev := metricsEval(0)
	ev.Metrics = obs.NewRegistry()
	rows, err := RunScenario(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	var rackSteps int64
	for _, r := range rows {
		rackSteps += int64(r.Sched.RackSteps)
	}
	reg := ev.Metrics
	steps := reg.Counter("kernel.steps.total").Value()
	macro := reg.Counter("kernel.windows.macro").Value()
	var pins int64
	for _, m := range reg.Snapshot() {
		if m.Kind == obs.KindCounter && len(m.Name) > 11 && m.Name[:11] == "kernel.pin." {
			pins += int64(m.Value)
		}
	}
	if steps != rackSteps {
		t.Errorf("kernel.steps.total = %d, Σ row RackSteps = %d", steps, rackSteps)
	}
	if pins != steps-macro {
		t.Errorf("Σ pins = %d, want steps − macro = %d − %d = %d", pins, steps, macro, steps-macro)
	}
	if macro == 0 {
		t.Errorf("event-stepped default trace collapsed no macro windows at all")
	}
}
