package server

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/thermal"
	"repro/internal/units"
)

// maxSensor reads the observation-side temperature the bang-bang
// controller would see: the max over the CPU temperature sensors.
func maxSensor(s *Server) float64 {
	m := math.Inf(-1)
	for _, v := range s.CPUTempSensorsReuse() {
		if f := float64(v); f > m {
			m = f
		}
	}
	return m
}

// TestBandDecisionHorizonSound is the promiser soundness property: every
// decision instant the horizon vouches for must, on a fixed-dt twin,
// observe a max CPU temperature strictly inside the promised band — the
// instants a bang-bang controller provably skips. Random warm loads, load
// steps, bands and lattices; noise off so the sensor readings are the die
// trajectory itself.
func TestBandDecisionHorizonSound(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	totalVerified := 0
	for trial := 0; trial < 40; trial++ {
		mutate := func(c *Config) { c.TempNoise = 0 }
		pred, ref := macroPair(t, mutate)
		warmLoad := units.Percent(rng.Intn(101))
		warm := 200 + rng.Intn(400)
		for _, s := range []*Server{pred, ref} {
			s.SetLoad(warmLoad)
			for k := 0; k < warm; k++ {
				s.Step(1)
			}
		}
		// A load step right before the query makes the trajectory move, so
		// the promise has something real to bound.
		newLoad := units.Percent(rng.Intn(101))
		pred.SetLoad(newLoad)
		ref.SetLoad(newLoad)

		// Band around the current observation, sometimes one-sided.
		now := maxSensor(pred)
		lo := units.Celsius(now - 2 - 10*rng.Float64())
		hi := units.Celsius(now + 2 + 10*rng.Float64())
		if rng.Intn(4) == 0 {
			lo = units.Celsius(math.Inf(-1))
		}
		if rng.Intn(4) == 0 {
			hi = units.Celsius(math.Inf(1))
		}
		first := 1 + rng.Intn(15)
		stride := 1 + rng.Intn(15)

		m := pred.BandDecisionHorizon(1, first, stride, 50, lo, hi)
		totalVerified += m
		// Replay the instants on the fixed-dt twin.
		step := 0
		for j := 0; j < m; j++ {
			target := first + j*stride
			for ; step < target; step++ {
				ref.Step(1)
			}
			got := maxSensor(ref)
			if got < float64(lo) || got > float64(hi) {
				t.Fatalf("trial %d: promised instant %d (step %d) observes %.4f outside band [%v, %v] (m=%d, loads %v→%v)",
					trial, j, target, got, lo, hi, m, warmLoad, newLoad)
			}
		}
		// The query must be read-only: the predicting server, stepped the
		// same way afterwards, must match its twin exactly.
		for k := 0; k < step; k++ {
			pred.Step(1)
		}
		if d := math.Abs(float64(pred.MaxCPUTemp() - ref.MaxCPUTemp())); d != 0 {
			t.Fatalf("trial %d: BandDecisionHorizon perturbed the live state by %g °C", trial, d)
		}
	}
	if totalVerified == 0 {
		t.Fatal("no instant was ever verified across all trials; the property is vacuous")
	}
}

// TestBandDecisionHorizonRefusals pins the no-promise cases: bad lattice
// parameters, an empty band after the conservative shrink, and a server
// that is not macro-eligible all return 0.
func TestBandDecisionHorizonRefusals(t *testing.T) {
	srv, _ := macroPair(t, func(c *Config) { c.TempNoise = 0 })
	srv.SetLoad(50)
	for k := 0; k < 300; k++ {
		srv.Step(1)
	}
	wide := units.Celsius(math.Inf(1))
	if m := srv.BandDecisionHorizon(0, 1, 1, 10, 0, wide); m != 0 {
		t.Errorf("dt=0 must refuse, got %d", m)
	}
	if m := srv.BandDecisionHorizon(1, 0, 1, 10, 0, wide); m != 0 {
		t.Errorf("first=0 must refuse, got %d", m)
	}
	if m := srv.BandDecisionHorizon(1, 1, 1, 10, 60, 60.01); m != 0 {
		t.Errorf("a band thinner than the margins must refuse, got %d", m)
	}
	// Slewing fans break macro eligibility, and therefore the promise.
	srv.Fans().SetAll(srv.Fans().Target() + 600)
	if m := srv.BandDecisionHorizon(1, 1, 1, 10, 0, wide); m != 0 {
		t.Errorf("slewing fans must refuse, got %d", m)
	}
}

// TestBandDecisionHorizonNoise: with sensor noise configured the die band
// shrinks by the 6σ allowance — a band narrower than that is withdrawn
// even though the noiseless trajectory would sit comfortably inside it.
func TestBandDecisionHorizonNoise(t *testing.T) {
	srv, _ := macroPair(t, func(c *Config) { c.TempNoise = 1.0 })
	srv.SetLoad(50)
	for k := 0; k < 600; k++ {
		srv.Step(1)
	}
	die := float64(srv.MaxCPUTemp())
	off := srv.Config().HotSpotOffset
	// ±5 °C around the observation: wide against the trajectory, narrow
	// against the 6σ=6 °C noise allowance on each side.
	lo := units.Celsius(die + off - 5)
	hi := units.Celsius(die + off + 5)
	if m := srv.BandDecisionHorizon(1, 10, 10, 10, lo, hi); m != 0 {
		t.Errorf("6σ allowance must swallow a ±5 °C band at σ=1, got %d", m)
	}
	quiet, _ := macroPair(t, func(c *Config) { c.TempNoise = 0 })
	quiet.SetLoad(50)
	for k := 0; k < 600; k++ {
		quiet.Step(1)
	}
	die = float64(quiet.MaxCPUTemp())
	off = quiet.Config().HotSpotOffset
	lo = units.Celsius(die + off - 5)
	hi = units.Celsius(die + off + 5)
	if m := quiet.BandDecisionHorizon(1, 10, 10, 10, lo, hi); m == 0 {
		t.Error("the same band with zero noise must verify at steady state")
	}
}

// TestDieFloorSound is the wall-floor proof's thermal half: over random
// machines, loads (uneven across sockets, so the hottest die moves), fan
// speeds, drift tolerances and step sizes, the walked floor never exceeds
// the hottest die a plain-Step twin reaches at the same step, and
// DCFloor of it never exceeds the twin's DC draw. The walk must also leave
// the live state untouched.
func TestDieFloorSound(t *testing.T) {
	rng := rand.New(rand.NewSource(4607))
	const maxWalk = 48
	floor := make([]float64, maxWalk)
	walked, tight := 0, 0
	for trial := 0; trial < 60; trial++ {
		mutate := func(c *Config) {
			c.Ambient = units.Celsius(16 + 16*rng.Float64())
			c.MacroDriftTolC = 0.1 + 2*rng.Float64()
			c.Mem.NumDIMMs = 16 + 8*rng.Intn(3)
			c.Power.Leakage.K2 *= 0.5 + rng.Float64()
			c.Power.Leakage.K3 *= 0.8 + 0.4*rng.Float64()
		}
		pred, ref := macroPair(t, mutate)
		dt := []float64{0.5, 1, 2}[rng.Intn(3)]
		lo, hi := pred.Fans().Range()
		rpm := lo + units.RPM(rng.Float64())*(hi-lo)
		warmLoad := units.Percent(rng.Intn(101))
		warm := 100 + rng.Intn(300)
		for _, s := range []*Server{pred, ref} {
			s.Fans().SetAll(rpm)
			s.SetLoad(warmLoad)
			for k := 0; k < warm; k++ {
				s.Step(dt)
			}
		}
		for !pred.FansSettled() { // the floor needs settled fans
			pred.Step(dt)
			ref.Step(dt)
		}
		// A fresh load, uneven across the cores, right before the query.
		load := units.Percent(rng.Intn(101))
		pred.SetLoad(load)
		ref.SetLoad(load)
		cores := pred.CPU().Topology().Cores()
		for c := 0; c < cores; c++ {
			if rng.Intn(3) == 0 {
				u := units.Percent(rng.Intn(101))
				if err := pred.CPU().SetCoreLoad(c, u); err != nil {
					t.Fatal(err)
				}
				if err := ref.CPU().SetCoreLoad(c, u); err != nil {
					t.Fatal(err)
				}
			}
		}
		steps := 1 + rng.Intn(maxWalk)
		// A transient faster than the drift tolerance may stop the walk
		// early, even at its first step; that claims nothing.
		n := pred.DieFloor(dt, steps, floor)
		if n < 0 || n > steps {
			t.Fatalf("trial %d: walked %d of %d steps", trial, n, steps)
		}
		walked += n
		for j := 0; j < n; j++ {
			ref.Step(dt)
			die := float64(ref.MaxCPUTemp())
			if floor[j] > die {
				t.Fatalf("trial %d step %d: floor %.9f °C above the fixed-dt hottest die %.9f °C", trial, j+1, floor[j], die)
			}
			if die-floor[j] < bandLinMarginC+0.01 {
				tight++
			}
			if f, dc := pred.DCFloor(floor[j]), float64(ref.Breakdown().Total()); f > dc {
				t.Fatalf("trial %d step %d: DC floor %.9f W above the fixed-dt draw %.9f W", trial, j+1, f, dc)
			}
		}
		// Read-only: stepped the same way, the walker matches its twin.
		for j := 0; j < n; j++ {
			pred.Step(dt)
		}
		if a, b := pred.MaxCPUTemp(), ref.MaxCPUTemp(); a != b {
			t.Fatalf("trial %d: DieFloor perturbed the live state: %v vs %v °C", trial, a, b)
		}
	}
	t.Logf("walked %d steps, %d of them within 0.01 °C of the margin below the trajectory", walked, tight)
	// The floor must be a useful bound, not just a sound one.
	if walked < 30*maxWalk/2 || tight*2 < walked {
		t.Errorf("walked %d steps, %d of them within 0.01 °C of the margin below the trajectory", walked, tight)
	}
}

// TestDieFloorRefusals: the floor walks nothing where its argument does
// not hold — slewing fans, a dark machine, a non-exact integrator, a
// negative leakage constant, the trip-guard band — and a dark machine's
// DC floor is zero.
func TestDieFloorRefusals(t *testing.T) {
	floor := make([]float64, 8)
	warm := func(mutate func(*Config)) *Server {
		s, _ := macroPair(t, mutate)
		s.SetLoad(60)
		for k := 0; k < 200; k++ {
			s.Step(1)
		}
		return s
	}
	if n := warm(nil).DieFloor(1, 8, floor); n != 8 {
		t.Fatalf("baseline walked %d of 8 steps", n)
	}
	slew := warm(nil)
	slew.Fans().SetAll(slew.Fans().Target() + 600)
	dark := warm(nil)
	dark.SetPowered(false)
	hot := warm(nil)
	hot.cfg.CriticalTemp = hot.MaxCPUTemp() + tripGuardC/2
	for _, c := range []struct {
		name string
		s    *Server
	}{
		{"slewing fans", slew},
		{"dark", dark},
		{"RK4", warm(func(c *Config) { c.ThermalIntegrator = thermal.IntegratorRK4 })},
		{"negative K2", warm(func(c *Config) { c.Power.Leakage.K2 = -c.Power.Leakage.K2 })},
		{"negative K3", warm(func(c *Config) { c.Power.Leakage.K3 = -c.Power.Leakage.K3 })},
		{"trip band", hot},
	} {
		if n := c.s.DieFloor(1, 8, floor); n != 0 {
			t.Errorf("%s: walked %d steps, want 0", c.name, n)
		}
	}
	if f := dark.DCFloor(50); f != 0 {
		t.Errorf("dark machine DC floor %g, want 0", f)
	}
	if n := warm(nil).DieFloor(1, 8, floor[:4]); n != 0 {
		t.Errorf("a floor buffer shorter than the walk must refuse, got %d", n)
	}
}
