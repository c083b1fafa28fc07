package room

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/cooling"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/units"
)

// viewCheck is a rack chooser that, before choosing, checks every view the
// plant recorded against a fresh read of the servers (sched.FillViews) at
// the views' own loads. The servers take a rack's pending recirculation
// shift only in the rack's next job, so the check applies the shifts
// first: the job's own apply then finds nothing to do, and the run is
// unchanged.
type viewCheck struct {
	RackChooser
	t      *testing.T
	rm     *Room
	checks int
}

func (c *viewCheck) Choose(j sched.Job, racks []RackView) int {
	for i := range racks {
		c.rm.applyShift(i)
	}
	for i, rv := range racks {
		rk := c.rm.Rack(i)
		loads := make([]units.Percent, len(rv.Slots))
		for s, sv := range rv.Slots {
			loads[s] = sv.Load
		}
		want := make([]sched.ServerView, len(loads))
		sched.FillViews(want, rk, loads)
		maxInlet, maxCPU, healthy := units.Celsius(-1e9), units.Celsius(-1e9), 0
		for s, w := range want {
			if got := rv.Slots[s]; got != w {
				c.t.Fatalf("job %d, rack %d slot %d: view\n%+v\nwant\n%+v", j.ID, i, s, got, w)
			}
			maxInlet, maxCPU = max(maxInlet, w.InletTemp), max(maxCPU, w.MaxCPUTemp)
			if w.Health == 0 {
				healthy++
			}
		}
		if rv.MaxInletC != maxInlet || rv.MaxCPUTempC != maxCPU || rv.Healthy != healthy ||
			rv.WallPowerW != float64(rk.WallPower()) || rv.RecircOffsetC != c.rm.RecircOffsetC(i) {
			c.t.Fatalf("job %d, rack %d: aggregates %+v disagree with the slots", j.ID, i, rv)
		}
	}
	c.checks++
	return c.RackChooser.Choose(j, racks)
}

// TestRoomViewsExact: on both kernels, through recirculation re-anchors,
// a dark server, a failed fan, a PSU droop, an ambient excursion and a
// CRAC outage, every view a chooser or slot policy reads is the one the
// servers would report — what the serial phase recorded, mirrored or
// refilled is exact, bit for bit.
func TestRoomViewsExact(t *testing.T) {
	const racks, servers = 3, 3
	fac := cooling.DefaultFacility(cooling.DefaultCRAC().ReferenceC)
	faults := []*fault.Schedule{
		{Events: []fault.Event{{Kind: fault.CRACOutage, At: 100, Clear: 180}}},
		{Events: []fault.Event{
			{Kind: fault.AmbientExcursion, Server: -1, Severity: 6, At: 130, Clear: 330},
			{Kind: fault.PSUFail, Server: 0, At: 150, Clear: 300},
			{Kind: fault.FanFail, Server: 1, Fan: 2, At: 160, Clear: 260},
		}},
		{Events: []fault.Event{{Kind: fault.PSUDroop, Server: 2, Severity: 0.1, At: 120, Clear: 240}}},
	}
	jobs := randomJobs(t, 5, 400, racks*servers, 0.8)
	for _, event := range []bool{false, true} {
		rm := testRoom(t, racks, servers, 2, NeighborMatrix(racks), &fac, true)
		slots := make([]sched.Policy, racks)
		for i := range slots {
			slots[i] = sched.NewCoolestFirst()
		}
		check := &viewCheck{RackChooser: NewCoolestRack(), t: t, rm: rm}
		pol, err := NewPolicy(check, slots)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunTrace(rm, jobs, pol, TraceConfig{Dt: 1, Horizon: 400, EventStepping: event, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		if check.checks < len(jobs) || res.Requeued == 0 {
			t.Errorf("event=%v: %d checks for %d jobs, %d requeued: the faults and placements did not bite",
				event, check.checks, len(jobs), res.Requeued)
		}
	}
}

// TestRoomRunLeavesNoGoroutine: a room run's rack pool ends when the run
// returns — after a full trace, a settle on either kernel, a cancelled run
// and a diverged one, the last two returning early — and the servers then
// carry every recirculation offset the run computed.
func TestRoomRunLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	jobs := randomJobs(t, 11, 200, 8, 0.5)
	settled := func(rm *Room) {
		for i := 0; i < rm.NumRacks(); i++ {
			if d := rm.shift[i]; d != 0 {
				t.Errorf("rack %d kept a pending shift of %g °C after the run", i, d)
			}
		}
	}
	for _, tc := range []struct {
		name string
		run  func(rm *Room) error
	}{
		{"trace", func(rm *Room) error {
			_, err := RunTrace(rm, jobs, rrPolicy(t, 4), TraceConfig{Dt: 1, Horizon: 200, EventStepping: true})
			return err
		}},
		{"trace-fixed", func(rm *Room) error {
			_, err := RunTrace(rm, jobs, rrPolicy(t, 4), TraceConfig{Dt: 1, Horizon: 200})
			return err
		}},
		{"settle-event", func(rm *Room) error { return Settle(rm, 1, 300, true) }},
		{"settle-fixed", func(rm *Room) error { return Settle(rm, 1, 300, false) }},
		{"cancelled", func(rm *Room) error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := RunTrace(rm, jobs, rrPolicy(t, 4), TraceConfig{Dt: 1, Horizon: 200, Ctx: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled run returned %v", err)
			}
			return nil
		}},
		{"diverged", func(rm *Room) error {
			rm.Rack(2).AddAmbientOffset(units.Celsius(math.NaN()))
			_, err := RunTrace(rm, jobs, rrPolicy(t, 4), TraceConfig{Dt: 1, Horizon: 200, EventStepping: true})
			var d *sched.Diverged
			if !errors.As(err, &d) {
				t.Errorf("diverged run returned %v", err)
			}
			return nil
		}},
	} {
		rm := testRoom(t, 4, 2, 2, NeighborMatrix(4), nil, true)
		driveLoads(rm, 20)
		base := runtime.NumGoroutine()
		if err := tc.run(rm); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines outlive the run", tc.name, runtime.NumGoroutine()-base)
			}
			time.Sleep(time.Millisecond)
		}
		settled(rm)
	}
}

// TestPlantRecordsRackState steps a plant directly and checks, after every
// step and fault edge, that what the kernel reads between advances —
// Health, TripRisk and StateSum — is what the racks report, through a
// server darkening and a room hot enough to enter the trip-guard band.
// The servers have not yet taken the re-anchor's pending shifts, so the
// fresh state sum is the one the rack jobs recorded.
func TestPlantRecordsRackState(t *testing.T) {
	rm := testRoom(t, 2, 2, 2, NeighborMatrix(2), nil, true)
	rm.Rack(1).AddAmbientOffset(28)
	p := newPlant(rm, nil)
	defer p.close()
	loads := []units.Percent{100, 100, 100, 100}
	p.SetLoads(loads)
	psu := fault.Event{Kind: fault.PSUFail, Server: 1, At: 0}
	risky := 0
	check := func(step int) {
		t.Helper()
		var sum float64
		risk := false
		for i := 0; i < rm.NumRacks(); i++ {
			rk := rm.Rack(i)
			sum += rk.StateSum()
			risk = risk || rk.TripRisk()
			for s := 0; s < rk.NumServers(); s++ {
				if got, want := p.Health(i, s), rk.Health(s); got != want {
					t.Fatalf("step %d: rack %d slot %d health %v, want %v", step, i, s, got, want)
				}
			}
		}
		if got := p.StateSum(); got != sum {
			t.Fatalf("step %d: state sum %g, want %g", step, got, sum)
		}
		if got := p.TripRisk(); got != risk {
			t.Fatalf("step %d: trip risk %v, want %v", step, got, risk)
		}
		if risk {
			risky++
		}
	}
	for step := 1; step <= 600; step++ {
		switch step {
		case 200:
			if err := p.ApplyFault(1, psu); err != nil {
				t.Fatal(err)
			}
			check(step)
		case 400:
			if err := p.ClearFault(1, psu); err != nil {
				t.Fatal(err)
			}
			check(step)
		}
		p.Step(1)
		check(step)
	}
	if risky == 0 || risky == 600 {
		t.Errorf("trip risk held on %d of 600 steps; the test needs both", risky)
	}
}

// TestPlantShiftComposesBeforeFault: a pending recirculation shift reaches
// a rack's servers before a fault edge on that rack shifts them again, so
// the offsets compose in the order Room.Step's immediate re-anchor gives,
// bit for bit, over a spread of excursion severities.
func TestPlantShiftComposesBeforeFault(t *testing.T) {
	mk := func() *Room {
		rm := testRoom(t, 3, 4, 1, NeighborMatrix(3), nil, true)
		driveLoads(rm, 40)
		return rm
	}
	for k := 0; k < 25; k++ {
		exc := fault.Event{Kind: fault.AmbientExcursion, Server: -1, Severity: 0.7 + 0.37*float64(k), At: 0}
		ref, rm := mk(), mk()
		ref.Step(1)
		if err := ref.ApplyFault(1, exc); err != nil {
			t.Fatal(err)
		}
		p := newPlant(rm, nil)
		var loads []units.Percent
		for i := 0; i < rm.NumRacks(); i++ {
			for s := 0; s < rm.Rack(i).NumServers(); s++ {
				loads = append(loads, rm.Rack(i).Load(s))
			}
		}
		p.SetLoads(loads)
		p.Step(1)
		if rm.shift[1] == 0 {
			t.Fatal("the step left no pending shift on rack 1")
		}
		if err := p.ApplyFault(1, exc); err != nil {
			t.Fatal(err)
		}
		p.close()
		for i := 0; i < rm.NumRacks(); i++ {
			for s := 0; s < rm.Rack(i).NumServers(); s++ {
				got, want := rm.Rack(i).Server(s).Ambient(), ref.Rack(i).Server(s).Ambient()
				if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
					t.Errorf("severity %g: rack %d slot %d: ambient %v, want %v", exc.Severity, i, s, got, want)
				}
			}
		}
	}
}
