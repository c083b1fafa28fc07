package server

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/thermal"
	"repro/internal/units"
)

// macroPair builds two identical servers for a macro-vs-fixed comparison.
func macroPair(t *testing.T, mutate func(*Config)) (*Server, *Server) {
	t.Helper()
	cfg := T3Config()
	if mutate != nil {
		mutate(&cfg)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestMacroStepMatchesFixedSteps drives one server through load changes
// with macro windows and its twin with plain fixed steps: temperatures
// stay within the drift tolerance and energies within 1e-6 relative.
func TestMacroStepMatchesFixedSteps(t *testing.T) {
	for _, load := range []units.Percent{0, 35, 70, 100} {
		ev, ref := macroPair(t, nil)
		ev.SetLoad(load)
		ref.SetLoad(load)
		const dt, window = 1.0, 900
		ev.MacroWindow(dt, window)
		for k := 0; k < window; k++ {
			ref.Step(dt)
		}
		if d := math.Abs(float64(ev.MaxCPUTemp() - ref.MaxCPUTemp())); d > 0.05 {
			t.Fatalf("load %v: endpoint die temp off by %g °C", load, d)
		}
		de := math.Abs(float64(ev.Energy()-ref.Energy())) / float64(ref.Energy())
		if de > 1e-6 {
			t.Fatalf("load %v: energy off by %g relative (macro %v vs fixed %v)",
				load, de, ev.Energy(), ref.Energy())
		}
		// Fan power is constant with settled fans, so the only difference is
		// float summation order (few big adds vs many small ones).
		if d := math.Abs(float64(ev.FanEnergy()-ref.FanEnergy())) / float64(ref.FanEnergy()); d > 1e-12 {
			t.Fatalf("load %v: fan energy off by %g relative: %v vs %v",
				load, d, ev.FanEnergy(), ref.FanEnergy())
		}
		if d := math.Abs(float64(ev.Memory().MaxTemp() - ref.Memory().MaxTemp())); d > 1e-9 {
			t.Fatalf("load %v: DIMM endpoint off by %g °C", load, d)
		}
		if ev.Now() != ref.Now() {
			t.Fatalf("clocks diverged: %g vs %g", ev.Now(), ref.Now())
		}
	}
}

// TestMacroStepLoadTransient exercises the harder case: a cold server hit
// with a big load step mid-run, so the macro path must refine through the
// fast transient before collapsing the tail.
func TestMacroStepLoadTransient(t *testing.T) {
	ev, ref := macroPair(t, nil)
	phase := func(load units.Percent, secs int) {
		ev.SetLoad(load)
		ref.SetLoad(load)
		ev.MacroWindow(1, secs)
		for k := 0; k < secs; k++ {
			ref.Step(1)
		}
	}
	phase(90, 600)
	phase(10, 600)
	phase(65, 900)
	de := math.Abs(float64(ev.Energy()-ref.Energy())) / float64(ref.Energy())
	if de > 1e-6 {
		t.Fatalf("transient energy off by %g relative", de)
	}
	if d := math.Abs(float64(ev.MaxCPUTemp() - ref.MaxCPUTemp())); d > 0.05 {
		t.Fatalf("transient endpoint temp off by %g °C", d)
	}
	if ev.PeakPower() < ref.PeakPower()-1 {
		t.Fatalf("macro peak %v undershoots fixed peak %v by >1 W", ev.PeakPower(), ref.PeakPower())
	}
}

// TestMacroStepFallbacks: slewing fans and RK4 integration must take a
// plain step where a window could otherwise collapse, and say why.
func TestMacroStepFallbacks(t *testing.T) {
	srv, _ := macroPair(t, nil)
	srv.SetLoad(50)
	srv.Step(1) // settle the fan bank bookkeeping
	srv.Fans().SetAll(srv.Fans().Target() + 600)
	srv.MacroWindow(1, 2)
	if st := srv.MacroStats(); st.Anchors != 0 || st.PlainSlew != 1 {
		t.Fatalf("slewing fans must pin to single steps: %+v", st)
	}

	rk, _ := macroPair(t, func(c *Config) { c.ThermalIntegrator = thermal.IntegratorRK4 })
	rk.SetLoad(50)
	rk.MacroWindow(1, 100)
	if st := rk.MacroStats(); st.Anchors != 0 || st.PlainIntegrator != 99 {
		t.Fatalf("RK4 servers must pin to single steps: %+v", st)
	}
}

// TestMacroStepCollapsesQuietTail: once settled, a long quiet window must
// cost a handful of closed-form anchors, not one per dt.
func TestMacroStepCollapsesQuietTail(t *testing.T) {
	srv, _ := macroPair(t, nil)
	srv.SetLoad(40)
	for k := 0; k < 1200; k++ {
		srv.Step(1) // settle near steady state
	}
	srv.MacroWindow(1, 3600)
	if st := srv.MacroStats(); st.Anchors > 6 || st.CollapsedSteps+st.PlainTail != 3600 {
		t.Fatalf("a settled hour took %+v, want ≤ 6 anchors (power-of-two windows)", st)
	}
}

// TestStepAllocationFree pins the zero-allocation satellite: at steady
// state a Server.Step is pure arithmetic into preallocated buffers.
func TestStepAllocationFree(t *testing.T) {
	srv, _ := macroPair(t, nil)
	srv.SetLoad(70)
	for k := 0; k < 64; k++ {
		srv.Step(1) // warm every lazily built propagator and buffer
	}
	if avg := testing.AllocsPerRun(200, func() { srv.Step(1) }); avg != 0 {
		t.Fatalf("Server.Step allocates %.1f objects/op at steady state, want 0", avg)
	}
}

// TestMacroStepAllocationFree: the closed-form window reuses its scratch
// after the first call.
func TestMacroStepAllocationFree(t *testing.T) {
	srv, _ := macroPair(t, nil)
	srv.SetLoad(70)
	for k := 0; k < 1200; k++ {
		srv.Step(1)
	}
	for i := 0; i < 4; i++ {
		srv.MacroWindow(1, 3600) // size the macro scratch
	}
	if avg := testing.AllocsPerRun(100, func() { srv.MacroWindow(1, 3600) }); avg != 0 {
		t.Fatalf("Server.MacroWindow allocates %.1f objects/op at steady state, want 0", avg)
	}
}

// TestMacroWindowPlainEndSkipsTail pins the early return of a window whose
// last sub-step is a plain Step: the returned maxima and the server's
// state, peak, energies and breakdown must equal those of the same window
// followed by the generic tail — an explicit finishMacroWindow plus the
// DIMM/inlet fold — because that Step already ran the trip check, the
// breakdown refresh and the peak sample on the same state.
func TestMacroWindowPlainEndSkipsTail(t *testing.T) {
	const dt = 1.0
	hot := func(c *Config) { c.Ambient = 45 } // runs away at low fan speed
	cases := []struct {
		name   string
		mutate func(*Config)
		// prepare brings both twins to the window start and returns the
		// window length.
		prepare  func(t *testing.T, s *Server) int
		anchors  int  // closed-form sub-windows the window must take
		wantTrip bool // the window must latch a trip partway through
	}{
		{"K=1", nil, func(t *testing.T, s *Server) int {
			s.SetLoad(50)
			for k := 0; k < 30; k++ {
				s.Step(dt)
			}
			return 1
		}, 0, false},
		{"slewing fans", nil, func(t *testing.T, s *Server) int {
			lo, hi := s.Fans().Range()
			s.SetLoad(70)
			s.Fans().SetAll(lo)
			for k := 0; k < 30; k++ {
				s.Step(dt)
			}
			s.Fans().SetAll(hi)
			// Every step of the window starts with the fans still slewing.
			return int(math.Ceil(float64(hi-lo) / s.cfg.Fans.SlewRate))
		}, 0, false},
		{"collapsed then plain tail", nil, func(t *testing.T, s *Server) int {
			s.SetLoad(40)
			for k := 0; k < 1200; k++ {
				s.Step(dt)
			}
			return 5 // a power-of-two sub-window, then one plain step
		}, 1, false},
		{"trips partway", hot, func(t *testing.T, s *Server) int {
			s.SetLoad(100)
			s.Fans().SetAll(1800)
			for k := 0; k < 20000; k++ {
				if s.MaxCPUTemp() >= s.cfg.CriticalTemp-0.2 {
					return 8
				}
				s.Step(dt)
			}
			t.Fatal("server never approached its critical temperature")
			return 0
		}, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a, b := macroPair(t, c.mutate)
			k := c.prepare(t, a)
			if c.prepare(t, b) != k {
				t.Fatal("twins prepared differently")
			}
			if a.Tripped() {
				t.Fatal("tripped before the window")
			}
			before := a.MacroStats()
			dieA, dimmA, inletA := a.MacroWindow(dt, k)
			after := a.MacroStats()
			if got := after.Anchors - before.Anchors; got != c.anchors {
				t.Fatalf("window took %d closed-form sub-windows, want %d", got, c.anchors)
			}
			if a.Tripped() != c.wantTrip {
				t.Fatalf("tripped = %v, want %v", a.Tripped(), c.wantTrip)
			}
			plain := after.PlainTail + after.PlainSlew + after.PlainTripBand + after.PlainDrift -
				(before.PlainTail + before.PlainSlew + before.PlainTripBand + before.PlainDrift)
			if plain == 0 {
				t.Fatal("window took no plain step")
			}

			dieB, dimmB, inletB := b.MacroWindow(dt, k)
			b.finishMacroWindow()
			if v := float64(b.mem.MaxTemp()); v > dimmB {
				dimmB = v
			}
			if v := float64(b.InletTemp()); v > inletB {
				inletB = v
			}
			if dieA != dieB || dimmA != dimmB || inletA != inletB {
				t.Fatalf("maxima (%v, %v, %v), with the tail (%v, %v, %v)", dieA, dimmA, inletA, dieB, dimmB, inletB)
			}
			if !reflect.DeepEqual(a.State(), b.State()) {
				t.Fatalf("state differs from the tail's:\n%+v\n%+v", a.State(), b.State())
			}
			if a.PeakPower() != b.PeakPower() || a.Energy() != b.Energy() ||
				a.FanEnergy() != b.FanEnergy() || a.Breakdown() != b.Breakdown() {
				t.Fatalf("meters differ from the tail's: peak %v/%v energy %v/%v fan %v/%v breakdown %+v/%+v",
					a.PeakPower(), b.PeakPower(), a.Energy(), b.Energy(), a.FanEnergy(), b.FanEnergy(), a.Breakdown(), b.Breakdown())
			}
		})
	}
}
