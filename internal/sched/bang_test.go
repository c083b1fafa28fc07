package sched

import (
	"math/rand"
	"testing"

	"repro/internal/control"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rack"
	"repro/internal/server"
	"repro/internal/units"
)

// bangRack builds a rack of bang-bang-controlled servers with sensor noise
// off: the promiser's 6σ noise allowance then vanishes and the two kernels
// read identical temperatures at every shared instant, making the
// equivalence exact rather than tolerance-based. (The shipped configs keep
// noise on; there the event kernel's skipped ticks shift the noise-draw
// phase and only the evalctl pin-share acceptance applies.)
func bangRack(t testing.TB, servers, workers int) *rack.Rack {
	t.Helper()
	specs := make([]rack.ServerSpec, servers)
	for i := range specs {
		cfg := server.T3Config()
		cfg.Ambient = units.Celsius(21 + 3*(i%4))
		cfg.TempNoise = 0
		if i%2 == 1 {
			cfg.Mem.NumDIMMs = 24
		}
		bb, err := control.NewBangBang(control.DefaultBangBang())
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = rack.ServerSpec{Config: cfg, Controller: bb}
	}
	r, err := rack.New(rack.Config{Servers: specs, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestBangBangEventMatchesFixed: the tentpole's controller half end to
// end. Bang-bang promises its decision cadence and the band extension
// stretches it further, so a rack that PR 7 pinned to fixed-dt
// (kernel.pin.no-promise on every step) now collapses ≥3× with identical
// scheduling, fan-change and energy outcomes.
func TestBangBangEventMatchesFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	jobs := randomTrace(t, rng, 1800, 3, 0.3)
	build := func() *rack.Rack { return bangRack(t, 3, 1) }
	cfg := TraceConfig{Dt: 1, Horizon: 1800}
	fixed, event, ftel, etel := runBoth(t, build, jobs, func() Policy { return NewRoundRobin() }, cfg)
	assertEquivalent(t, "bangbang", fixed, event, ftel, etel)
	if ftel.FanChanges == 0 {
		t.Fatal("trace never moved the fans; the fan-change equivalence is vacuous")
	}
	if event.RackSteps*3 > fixed.RackSteps {
		t.Errorf("bang-bang rack should collapse ≥3×, got %d→%d rack steps", fixed.RackSteps, event.RackSteps)
	}
}

// TestBangBangEventMatchesFixedThroughFaultWindows: the bang-bang quiet
// band now extends inside fault windows, where the predicted trajectory
// holds every faulted input constant until its next edge, while a dark
// slot still promises only its decision cadence. Through overlapping
// windows the event kernel must match fixed-dt exactly, fan changes
// included. Without a dark slot the band carries the kernel across the
// windows: measured 1200 → 63 rack steps, against 1200 → 95 with the
// faulted servers held to plain steps (and their bands refused) through
// their windows.
func TestBangBangEventMatchesFixedThroughFaultWindows(t *testing.T) {
	soak := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FanStick, Server: 0, Fan: 0, At: 120, Clear: 360},
		{Kind: fault.PSUDroop, Server: 1, At: 200, Clear: 400, Severity: 0.1},
		{Kind: fault.CRACOutage, At: 250, Clear: 450, Severity: 4},
		{Kind: fault.AmbientExcursion, Server: 2, At: 300, Clear: 480, Severity: 3},
	}}
	soak.Sort()
	for _, c := range []struct {
		name     string
		faults   *fault.Schedule
		horizon  float64
		collapse int // minimum fixed ÷ event rack steps
	}{
		{"windows", soak, 1200, 15},
		{"dark", faultWindows(), 600, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(810))
			jobs := randomTrace(t, rng, c.horizon, 3, 0.4)
			build := func() *rack.Rack { return bangRack(t, 3, 1) }
			cfg := TraceConfig{Dt: 1, Horizon: c.horizon, Faults: c.faults}
			fixed, event, ftel, etel := runBoth(t, build, jobs, func() Policy { return NewRoundRobin() }, cfg)
			assertEquivalent(t, c.name, fixed, event, ftel, etel)
			if ftel.FanChanges == 0 {
				t.Fatal("trace never moved the fans; the fan-change equivalence is vacuous")
			}
			t.Logf("%d→%d rack steps, %d fan changes, %d requeued", fixed.RackSteps, event.RackSteps, ftel.FanChanges, fixed.Requeued)
			if event.RackSteps*c.collapse > fixed.RackSteps {
				t.Errorf("collapsed only %d→%d rack steps, want ≥%d×", fixed.RackSteps, event.RackSteps, c.collapse)
			}
		})
	}
}

// TestBangBangNoPromisePinRetired: with the promiser in place the
// no-promise pin must vanish entirely on an all-bang-bang rack — wakes at
// the decision cadence are charged to the controller reason instead.
func TestBangBangNoPromisePinRetired(t *testing.T) {
	rng := rand.New(rand.NewSource(809))
	jobs := randomTrace(t, rng, 1200, 2, 0.3)
	r := bangRack(t, 2, 1)
	reg := obs.NewRegistry()
	res, err := RunTraceCfg(r, jobs, NewRoundRobin(), TraceConfig{
		Dt: 1, Horizon: 1200, EventStepping: true, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("kernel.pin.no-promise").Value(); v != 0 {
		t.Errorf("kernel.pin.no-promise must be retired on a bang-bang rack, got %d", v)
	}
	if v := reg.Counter("kernel.windows.macro").Value(); v == 0 {
		t.Error("a promising bang-bang rack must open macro windows")
	}
	if res.RackSteps*2 > 1200 {
		t.Errorf("event kernel took %d of 1200 steps — the cadence promise alone should at least halve it", res.RackSteps)
	}
}
