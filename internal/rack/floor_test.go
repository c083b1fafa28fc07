package rack

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/units"
)

// TestNewRejectsInvalidChain: a delivery curve that fails
// power.PSUModel/PDUModel.Validate is a configuration error wherever it
// sits — the rack's default PSU, a slot's own PSU, or the PDU.
func TestNewRejectsInvalidChain(t *testing.T) {
	specs := func(slotPSU *power.PSUModel) []ServerSpec {
		out := make([]ServerSpec, 2)
		for i := range out {
			out[i] = ServerSpec{Config: server.T3Config()}
		}
		out[1].PSU = slotPSU
		return out
	}
	badPSU := power.PSUModel{Eta0: 0.5, Droop: 0.9, Knee: 100}
	nanPDU := power.PDUModel{Eta0: math.NaN(), Droop: 0.04, Knee: 2000}
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"rack PSU", Config{Servers: specs(nil), PSU: &badPSU}},
		{"slot PSU", Config{Servers: specs(&badPSU), PSU: &psu}},
		{"PDU", Config{Servers: specs(nil), PSU: &psu, PDU: &nanPDU}},
	} {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: invalid curve accepted", c.name)
		}
	}
	if _, err := New(Config{Servers: specs(&psu), PSU: &psu, PDU: &pdu}); err != nil {
		t.Fatalf("default chain rejected: %v", err)
	}
}

// floorRack builds one of TestWallFloorStepsSound's random racks: random
// ambients, DIMM counts, per-slot supplies and PDU.
func floorRack(t *testing.T, rng *rand.Rand, n int) *Rack {
	t.Helper()
	specs := make([]ServerSpec, n)
	for i := range specs {
		cfg := server.T3Config()
		cfg.Ambient = units.Celsius(18 + 12*rng.Float64())
		cfg.NoiseSeed = rng.Int63()
		cfg.Mem.NumDIMMs = 16 + 8*rng.Intn(3)
		specs[i] = ServerSpec{Config: cfg}
		if rng.Intn(2) == 0 {
			eta0 := 0.85 + 0.12*rng.Float64()
			specs[i].PSU = &power.PSUModel{Eta0: eta0, Droop: 0.2 * eta0 * rng.Float64(), Knee: 20 + 300*rng.Float64()}
		}
	}
	psu := power.DefaultPSU()
	rc := Config{Servers: specs, Workers: 1, PSU: &psu}
	if rng.Intn(3) > 0 {
		pdu := power.DefaultPDU()
		pdu.Knee = 500 + 4000*rng.Float64()
		rc.PDU = &pdu
	}
	r, err := New(rc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestWallFloorStepsSound is the rack half of the deferral proof's
// soundness property: over random racks, loads, fan speeds, PSU droops
// and dark slots, every step WallFloorSteps vouches for does exceed the
// cap on the plain fixed-dt trajectory, for every slot's increment — the
// admission WallPowerWithAll computes for a single pending placement.
// Caps straddle the trajectory's cheapest admission, so the query has to
// both prove and refuse. At every proven step, FloorWalkView must predict
// each powered slot's hottest die, DC and wall draw within the walk's
// linearization error. The query must leave the rack untouched.
func TestWallFloorStepsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1307))
	const maxSteps = 16
	proven, refused := 0, 0
	var maxDie, maxDraw float64
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		seed := rng.Int63()
		pred := floorRack(t, rand.New(rand.NewSource(seed)), n)
		ref := floorRack(t, rand.New(rand.NewSource(seed)), n)
		var evs []fault.Event
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				evs = append(evs, fault.Event{Kind: fault.PSUDroop, Server: i, At: 0, Severity: 0.05 + 0.4*rng.Float64()})
			}
		}
		if rng.Intn(4) == 0 {
			evs = append(evs, fault.Event{Kind: fault.PSUFail, Server: rng.Intn(n), At: 0})
		}
		warm := 100 + rng.Intn(400)
		loads := make([]units.Percent, n)
		rpms := make([]units.RPM, n)
		for i := range loads {
			loads[i] = units.Percent(rng.Intn(101))
			lo, hi := pred.Server(i).Fans().Range()
			rpms[i] = lo + units.RPM(rng.Float64())*(hi-lo)
		}
		for _, r := range []*Rack{pred, ref} {
			for _, ev := range evs {
				if err := r.ApplyFault(ev); err != nil {
					t.Fatal(err)
				}
			}
			for i := range loads {
				r.SetLoad(i, loads[i])
				r.Server(i).Fans().SetAll(rpms[i])
			}
			for k := 0; k < warm; k++ {
				r.Step(1)
			}
		}
		// A fresh load right before the query, as at a decision step.
		extra := make([]units.Watts, n)
		for i := range extra {
			u := units.Percent(rng.Intn(101))
			pred.SetLoad(i, u)
			ref.SetLoad(i, u)
			extra[i] = units.Watts(5 + 60*rng.Float64())
			if rng.Intn(3) == 0 {
				extra[i] = units.Watts(math.Inf(1)) // a slot the head cannot take
			}
		}
		extra[rng.Intn(n)] = 20
		pred.TickControllers(pred.Now())

		// The cheapest admission at each step of the fixed-dt trajectory,
		// and the telemetry each slot reads there.
		admit := make([]float64, maxSteps)
		lowest := math.Inf(1)
		one := make([]units.Watts, n)
		die, dc, wall := make([][]float64, maxSteps), make([][]float64, maxSteps), make([][]float64, maxSteps)
		for j := range admit {
			ref.Step(1)
			for i := 0; i < n; i++ {
				die[j] = append(die[j], float64(ref.Server(i).MaxCPUTemp()))
				dc[j] = append(dc[j], float64(ref.ServerDCPower(i)))
				wall[j] = append(wall[j], float64(ref.ServerWallPower(i)))
			}
			admit[j] = math.Inf(1)
			for s := range extra {
				if math.IsInf(float64(extra[s]), 1) {
					continue
				}
				one[s] = extra[s]
				admit[j] = math.Min(admit[j], float64(ref.WallPowerWithAll(one)))
				one[s] = 0
			}
			lowest = math.Min(lowest, admit[j])
		}
		capW := lowest - 2 + 3*rng.Float64()
		got := pred.WallFloorSteps(1, maxSteps, extra, capW)
		if got < 0 || got > maxSteps {
			t.Fatalf("trial %d: %d steps proven of %d", trial, got, maxSteps)
		}
		for j := 0; j < got; j++ {
			if !(admit[j] > capW) {
				t.Fatalf("trial %d: step %d proven deferred, yet the cheapest admission draws %.6f W against the %.6f W cap",
					trial, j+1, admit[j], capW)
			}
			for i := 0; i < n; i++ {
				if !pred.Server(i).Powered() {
					continue
				}
				d, p, w := pred.FloorWalkView(i, j)
				maxDie = math.Max(maxDie, math.Abs(float64(d)-die[j][i]))
				maxDraw = math.Max(maxDraw, math.Max(math.Abs(float64(p)-dc[j][i]), math.Abs(float64(w)-wall[j][i])))
			}
		}
		if got > 0 {
			proven++
		}
		if got < maxSteps {
			refused++
		}
		// Read-only: stepped the same way, the queried rack matches its twin.
		for j := 0; j < maxSteps; j++ {
			pred.Step(1)
		}
		if a, b := pred.StateSum(), ref.StateSum(); a != b {
			t.Fatalf("trial %d: WallFloorSteps perturbed the rack: state sum %v vs %v", trial, a, b)
		}
		if a, b := pred.Telemetry(), ref.Telemetry(); a != b {
			t.Fatalf("trial %d: WallFloorSteps perturbed the telemetry:\n%+v\n%+v", trial, a, b)
		}
	}
	t.Logf("%d trials proved some steps, %d refused some; walked views off by at most %.3g °C, %.3g W", proven, refused, maxDie, maxDraw)
	if maxDie > 1e-3 || maxDraw > 1e-3 {
		t.Errorf("FloorWalkView off the fixed-dt trajectory by %.3g °C, %.3g W", maxDie, maxDraw)
	}
	if proven < 10 || refused < 10 {
		t.Errorf("the caps did not straddle the trajectories: %d trials proved steps, %d refused some", proven, refused)
	}
}
