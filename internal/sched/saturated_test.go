package sched

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/rack"
	"repro/internal/units"
)

// overloadedTrace synthesizes a Poisson trace offered well past rack
// capacity so the backlog never drains: the regime PR 8's load-only
// refusal un-pin targets. Mixed demands (a handful of large jobs among
// small ones) make blocked heads common, which is what the backfill pass
// needs to have anything to do.
func overloadedTrace(t testing.TB, seed int64, horizon float64, servers int, demands []units.Percent) []Job {
	t.Helper()
	meanDur := 240.0
	var meanDemand float64
	for _, d := range demands {
		meanDemand += float64(d)
	}
	meanDemand /= float64(len(demands))
	// Offered load ≈ 2.2× capacity.
	rate := 2.2 * float64(servers) * 100 / (meanDur * meanDemand)
	specs, err := loadgen.PoissonTrace(loadgen.PoissonTraceConfig{
		Seed:         seed,
		Horizon:      horizon,
		Rate:         rate,
		MeanDuration: meanDur,
		Demands:      demands,
	})
	if err != nil {
		t.Fatal(err)
	}
	return JobsFromSpecs(specs)
}

// TestSaturatedTraceEquivalence is the PR 8 headline property: on traces
// where the backlog never drains, load-only-refusing policies × backfill
// on/off × both kernels give identical placements, deferrals and
// backfills, energies within 1e-6 relative — and the event kernel still
// collapses ≥3× because the backlog no longer pins it.
func TestSaturatedTraceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	cases := []struct {
		name     string
		mkPolicy func() Policy
	}{
		{"roundrobin", func() Policy { return NewRoundRobin() }},
		{"leastutilized", func() Policy { return NewLeastUtilized() }},
	}
	for _, pc := range cases {
		for _, backfill := range []bool{false, true} {
			name := pc.name
			if backfill {
				name += "/backfill"
			} else {
				name += "/fifo"
			}
			t.Run(name, func(t *testing.T) {
				seed := rng.Int63()
				jobs := overloadedTrace(t, seed, 1200, 2, []units.Percent{15, 70})
				build := func() *rack.Rack {
					return eventRack(t, eventRackCfg{servers: 2, workers: 1})
				}
				cfg := TraceConfig{Dt: 1, Horizon: 1200, Backfill: backfill}
				fixed, event, ftel, etel := runBoth(t, build, jobs, pc.mkPolicy, cfg)
				if fixed.MaxQueueLen < 2 {
					t.Fatalf("trace not saturated (max queue %d); the property is vacuous", fixed.MaxQueueLen)
				}
				assertEquivalent(t, name, fixed, event, ftel, etel)
				if event.RackSteps*3 > fixed.RackSteps {
					t.Errorf("%s: only %d→%d rack steps (<3× collapse despite load-only refusal)",
						name, fixed.RackSteps, event.RackSteps)
				}
				if backfill && fixed.Backfills == 0 {
					t.Errorf("%s: backfill enabled but no job ever placed past the blocked head", name)
				}
				if !backfill && (fixed.Backfills != 0 || event.Backfills != 0) {
					t.Errorf("%s: backfill off must count zero backfills, got fixed %d event %d",
						name, fixed.Backfills, event.Backfills)
				}
			})
		}
	}
}

// TestSaturatedConservativePolicyStaysPinned: a policy that does not
// promise load-only refusals (CoolestFirst consults thermal state) must
// keep the backlog pin — the kernel falls back to per-step head retries
// and kernel.pin.backlog dominates the breakdown.
func TestSaturatedConservativePolicyStaysPinned(t *testing.T) {
	jobs := overloadedTrace(t, 9, 900, 2, []units.Percent{15, 70})
	r := eventRack(t, eventRackCfg{servers: 2, workers: 1})
	reg := obs.NewRegistry()
	res, err := RunTraceCfg(r, jobs, NewCoolestFirst(), TraceConfig{
		Dt: 1, Horizon: 900, EventStepping: true, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	backlogPins := reg.Counter("kernel.pin.backlog").Value()
	if backlogPins*2 < int64(res.RackSteps) {
		t.Errorf("conservative policy should stay backlog-pinned on a saturated trace: %d backlog pins of %d advances",
			backlogPins, res.RackSteps)
	}
}

// TestSaturatedPinIdentity re-checks the metrics sum identity in the new
// regime: with the backlog un-pinned the macro windows stride over queued
// jobs, and still Σ kernel.pin.* = rack advances − macro windows, in both
// stepping modes — and the sched.backfills counter mirrors
// Result.Backfills exactly.
func TestSaturatedPinIdentity(t *testing.T) {
	jobs := overloadedTrace(t, 17, 900, 2, []units.Percent{15, 70})
	for _, eventStepping := range []bool{false, true} {
		r := eventRack(t, eventRackCfg{servers: 2, workers: 1})
		reg := obs.NewRegistry()
		res, err := RunTraceCfg(r, jobs, NewLeastUtilized(), TraceConfig{
			Dt: 1, Horizon: 900, EventStepping: eventStepping, Backfill: true, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		var pins int64
		for _, name := range PinReasonNames() {
			pins += reg.Counter("kernel.pin." + name).Value()
		}
		steps := reg.Counter("kernel.steps.total").Value()
		macro := reg.Counter("kernel.windows.macro").Value()
		if pins != steps-macro {
			t.Errorf("eventStepping=%v: pin identity broken: Σ pins %d != advances %d − macro windows %d",
				eventStepping, pins, steps, macro)
		}
		if steps != int64(res.RackSteps) {
			t.Errorf("eventStepping=%v: kernel.steps.total %d != Result.RackSteps %d", eventStepping, steps, res.RackSteps)
		}
		if got := reg.Counter("sched.backfills").Value(); got != int64(res.Backfills) {
			t.Errorf("eventStepping=%v: sched.backfills %d != Result.Backfills %d", eventStepping, got, res.Backfills)
		}
	}
}

// TestSaturatedWorkerDumpInvariant: the determinism contract under the new
// code paths — for any rack worker count the saturated backfill run yields
// the same Result and a byte-identical metrics dump (run under -race in
// CI, which is what makes this a data-race proof and not just a
// determinism check).
func TestSaturatedWorkerDumpInvariant(t *testing.T) {
	jobs := overloadedTrace(t, 23, 900, 4, []units.Percent{15, 70})
	run := func(workers int) (Result, rack.Telemetry, []byte) {
		r := eventRack(t, eventRackCfg{servers: 4, workers: workers, chain: true})
		reg := obs.NewRegistry()
		res, err := RunTraceCfg(r, jobs, NewLeastUtilized(), TraceConfig{
			Dt: 1, Horizon: 900, EventStepping: true, Backfill: true, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return res, r.Telemetry(), buf.Bytes()
	}
	res1, tel1, dump1 := run(1)
	resN, telN, dumpN := run(4)
	res1.Metrics, resN.Metrics = nil, nil
	if res1 != resN {
		t.Fatalf("scheduling results differ across workers:\n1: %+v\nN: %+v", res1, resN)
	}
	if tel1 != telN {
		t.Fatalf("telemetry differs across workers:\n1: %+v\nN: %+v", tel1, telN)
	}
	if !bytes.Equal(dump1, dumpN) {
		t.Fatalf("metric dumps differ across workers:\n--- workers=1\n%s\n--- workers=4\n%s", dump1, dumpN)
	}
}

// TestBlockedHeadArrivalsJoinTail: behind a refused head an arrival can
// only join the queue's tail, so without backfill it ends no window. A
// head waiting out one long job while fifty arrivals queue behind it is
// crossed completion to completion, and the crossed steps still admit
// every arrival at its step (MaxQueueLen and waits match fixed-dt). With
// backfill the arrivals could place, so they end windows again.
func TestBlockedHeadArrivalsJoinTail(t *testing.T) {
	jobs := []Job{{ID: 0, Arrival: 0, Duration: 600, Demand: 100}}
	for i := 1; i <= 50; i++ {
		jobs = append(jobs, Job{ID: i, Arrival: float64(10 * i), Duration: 30, Demand: 50})
	}
	for _, backfill := range []bool{false, true} {
		build := func() *rack.Rack { return eventRack(t, eventRackCfg{servers: 1, workers: 1}) }
		cfg := TraceConfig{Dt: 1, Horizon: 900, Backfill: backfill}
		fixed, event, ftel, etel := runBoth(t, build, jobs, func() Policy { return NewLeastUtilized() }, cfg)
		assertEquivalent(t, "arrivals", fixed, event, ftel, etel)
		if fixed.MaxQueueLen < 50 {
			t.Fatalf("backfill=%v: max queue %d, the arrivals never queued behind the head", backfill, fixed.MaxQueueLen)
		}
		switch {
		case !backfill && event.RackSteps > 40:
			t.Errorf("arrivals behind a refused head ended windows: %d advances", event.RackSteps)
		case backfill && event.RackSteps < 50:
			t.Errorf("backfill: %d advances, yet each of the 50 arrivals must wake a backfill pass", event.RackSteps)
		}
	}
}
