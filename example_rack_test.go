package leakctl_test

import (
	"fmt"

	leakctl "repro"
)

// ExampleNewRack builds a two-server rack behind the default
// power-delivery chain — one PSU per server feeding a shared PDU — and
// shows the wall-side telemetry the chain adds: AC energy above DC energy,
// conversion losses, and the compounded chain efficiency under load.
func ExampleNewRack() {
	cold := leakctl.T3Config()
	cold.Ambient = 21
	hot := leakctl.T3Config()
	hot.Ambient = 30

	psu, pdu := leakctl.DefaultPSU(), leakctl.DefaultPDU()
	r, err := leakctl.NewRack(leakctl.RackConfig{
		Servers: []leakctl.RackServerSpec{
			{Name: "cold-aisle", Config: cold},
			{Name: "hot-aisle", Config: hot},
		},
		Workers: 1,
		PSU:     &psu,
		PDU:     &pdu,
	})
	if err != nil {
		panic(err)
	}

	r.SetLoad(0, 60)
	r.SetLoad(1, 60)
	for s := 0; s < 600; s++ {
		r.Step(1)
	}

	tel := r.Telemetry()
	eff := tel.TotalEnergyKWh / tel.WallEnergyKWh
	fmt.Printf("wall energy exceeds DC energy: %v\n", tel.WallEnergyKWh > tel.TotalEnergyKWh)
	fmt.Printf("losses accounted: %v\n", tel.LossEnergyKWh > 0)
	fmt.Printf("chain efficiency in the 85-90%% band: %v\n", eff > 0.85 && eff < 0.90)
	// Output:
	// wall energy exceeds DC energy: true
	// losses accounted: true
	// chain efficiency in the 85-90% band: true
}

// hottestFirst is a deliberately bad custom placement policy — always the
// hottest feasible server — showing that PlacementPolicy is a one-method
// extension point (plus Name/Reset) over per-server telemetry views.
type hottestFirst struct{}

func (hottestFirst) Name() string { return "hottest-first" }
func (hottestFirst) Reset()       {}

func (hottestFirst) Place(j leakctl.Job, views []leakctl.ServerView) int {
	best := -1
	for _, v := range views {
		if v.Free < j.Demand {
			continue
		}
		if best < 0 || v.MaxCPUTemp > views[best].MaxCPUTemp {
			best = v.Index
		}
	}
	return best
}

// ExamplePlacementPolicy runs a custom policy through the trace runner:
// on a cold/hot rack the hottest-first heuristic sends both jobs to the
// hot-aisle machine (slot 1), which the per-server loads expose.
func ExamplePlacementPolicy() {
	cold := leakctl.T3Config()
	cold.Ambient = 21
	hot := leakctl.T3Config()
	hot.Ambient = 30
	r, err := leakctl.NewRack(leakctl.RackConfig{
		Servers: []leakctl.RackServerSpec{{Config: cold}, {Config: hot}},
		Workers: 1,
	})
	if err != nil {
		panic(err)
	}

	jobs := []leakctl.Job{
		{ID: 0, Arrival: 0, Duration: 600, Demand: 30},
		{ID: 1, Arrival: 10, Duration: 600, Demand: 30},
	}
	res, err := leakctl.RunJobTraceCfg(r, jobs, hottestFirst{}, leakctl.TraceConfig{Dt: 1, Horizon: 60})
	if err != nil {
		panic(err)
	}
	fmt.Printf("placed=%d cold-load=%v hot-load=%v\n", res.Placed, r.Load(0), r.Load(1))
	// Output:
	// placed=2 cold-load=0.0% hot-load=60.0%
}

// ExampleRunJobTraceCfg demonstrates the rack-level wall-power cap: a
// budget below the rack's idle wall draw can never admit a placement, so
// the FIFO head defers on every step and the trace terminates with
// nothing placed — the starvation-free degenerate case.
func ExampleRunJobTraceCfg() {
	psu, pdu := leakctl.DefaultPSU(), leakctl.DefaultPDU()
	r, err := leakctl.NewRack(leakctl.RackConfig{
		Servers: []leakctl.RackServerSpec{
			{Config: leakctl.T3Config()},
			{Config: leakctl.T3Config()},
		},
		Workers: 1,
		PSU:     &psu,
		PDU:     &pdu,
	})
	if err != nil {
		panic(err)
	}

	jobs := []leakctl.Job{{ID: 0, Arrival: 0, Duration: 120, Demand: 50}}
	res, err := leakctl.RunJobTraceCfg(r, jobs, leakctl.NewRoundRobinPolicy(), leakctl.TraceConfig{
		Dt:       1,
		Horizon:  30,
		WallCapW: float64(r.WallPower()) / 2, // half the idle wall draw
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("placed=%d deferrals=%d\n", res.Placed, res.Deferrals)
	// Output:
	// placed=0 deferrals=30
}
