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
	assertEquivalent(t, "bangbang", false, fixed, event, ftel, etel)
	if ftel.FanChanges == 0 {
		t.Fatal("trace never moved the fans; the fan-change equivalence is vacuous")
	}
	if event.RackSteps*3 > fixed.RackSteps {
		t.Errorf("bang-bang rack should collapse ≥3×, got %d→%d rack steps", fixed.RackSteps, event.RackSteps)
	}
}

// TestBangBangEventMatchesFixedThroughFaultWindows: the bang-bang quiet
// band now extends inside fault windows, where the predicted trajectory
// holds every faulted input constant until its next edge, and a dark
// slot's controller, which does not run, bounds no window. Through
// overlapping windows the event kernel must match fixed-dt exactly, fan
// changes included. Measured 1200 → 63 rack steps without a dark slot,
// against 1200 → 95 with the faulted servers held to plain steps (and
// their bands refused) through their windows; 600 → 47 with one, against
// 600 → 209 while the dark slot's promise still bounded the windows.
func TestBangBangEventMatchesFixedThroughFaultWindows(t *testing.T) {
	soak := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FanStick, Server: 0, Fan: 0, At: 120, Clear: 360},
		{Kind: fault.PSUDroop, Server: 1, At: 200, Clear: 400, Severity: 0.1},
		{Kind: fault.CRACOutage, At: 250, Clear: 450, Severity: 4},
		{Kind: fault.AmbientExcursion, Server: 2, At: 300, Clear: 480, Severity: 3},
	}}
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
			assertEquivalent(t, c.name, false, fixed, event, ftel, etel)
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

// TestBangBangDarkSlotDoesNotPin: a dark slot's controller does not run,
// so its promise must not bound the event kernel's windows. An untouched
// bang-bang controller reports a decision that is already due, which used
// to pin the kernel to single steps for the whole dark period: with slot
// 2's supply failed from 100 s to 1 100 s this trace took 1 016 rack
// advances, 957 of them controller pins. It must now cross the dark period
// about as cheaply as the same trace with an ambient excursion in place of
// the failure, and still match fixed-dt.
func TestBangBangDarkSlotDoesNotPin(t *testing.T) {
	const horizon = 1200.0
	run := func(ev fault.Event) (advances int, controllerPins int64) {
		rng := rand.New(rand.NewSource(810))
		jobs := randomTrace(t, rng, horizon, 3, 0.4)
		build := func() *rack.Rack { return bangRack(t, 3, 1) }
		reg := obs.NewRegistry()
		cfg := TraceConfig{Dt: 1, Horizon: horizon, Faults: &fault.Schedule{Events: []fault.Event{ev}}, Metrics: reg}
		fixed, event, ftel, etel := runBoth(t, build, jobs, func() Policy { return NewRoundRobin() }, cfg)
		assertEquivalent(t, ev.Kind.String(), false, fixed, event, ftel, etel)
		return event.RackSteps, reg.Counter("kernel.pin.controller").Value()
	}
	dark, darkPins := run(fault.Event{Kind: fault.PSUFail, Server: 2, At: 100, Clear: 1100})
	warm, _ := run(fault.Event{Kind: fault.AmbientExcursion, Server: 2, At: 100, Clear: 1100, Severity: 3})
	t.Logf("dark slot: %d rack advances, %d controller pins; ambient excursion: %d advances", dark, darkPins, warm)
	if dark > 2*warm || darkPins > 10 {
		t.Errorf("dark slot pinned the kernel: %d rack advances (%d controller pins), want ≤ 2×%d", dark, darkPins, warm)
	}
}
