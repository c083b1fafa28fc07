package sched

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/cooling"
	"repro/internal/fault"
	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/server"
	"repro/internal/units"
)

// syntheticTable is a hand-built monotone fan table: the event tests need
// LUT controllers (the horizon-promising kind) without paying for a grid
// of steady-state solves per case.
func syntheticTable() *lut.Table {
	return &lut.Table{Entries: []lut.Entry{
		{Util: 0, RPM: 1800, PredictedTemp: 45, FanLeakPower: 18},
		{Util: 30, RPM: 2400, PredictedTemp: 55, FanLeakPower: 24},
		{Util: 60, RPM: 3000, PredictedTemp: 62, FanLeakPower: 33},
		{Util: 100, RPM: 3600, PredictedTemp: 68, FanLeakPower: 46},
	}}
}

// eventRackCfg assembles a heterogeneous rack; every server runs a LUT fan
// controller unless bare is true.
type eventRackCfg struct {
	servers    int
	workers    int
	bare       bool    // no fan controllers
	chain      bool    // PSU + PDU attached
	fac        bool    // CRAC/chiller loop attached
	pollPeriod float64 // LUT poll period; 0 = the paper's 1 s
	ctrl       func(i int) control.Controller
}

func eventRack(t testing.TB, c eventRackCfg) *rack.Rack {
	t.Helper()
	specs := make([]rack.ServerSpec, c.servers)
	for i := range specs {
		cfg := server.T3Config()
		cfg.Ambient = units.Celsius(21 + 3*(i%4))
		cfg.NoiseSeed = int64(1 + 1000*i)
		if i%2 == 1 {
			cfg.Mem.NumDIMMs = 24
		}
		var ctl control.Controller
		if c.ctrl != nil {
			ctl = c.ctrl(i)
		} else if !c.bare {
			lcfg := control.DefaultLUT()
			if c.pollPeriod > 0 {
				lcfg.PollPeriod = c.pollPeriod
			}
			lc, err := control.NewLUT(syntheticTable(), lcfg)
			if err != nil {
				t.Fatal(err)
			}
			ctl = lc
		}
		specs[i] = rack.ServerSpec{Config: cfg, Controller: ctl}
	}
	rc := rack.Config{Servers: specs, Workers: c.workers}
	if c.chain {
		psu, pdu := power.DefaultPSU(), power.DefaultPDU()
		rc.PSU, rc.PDU = &psu, &pdu
	}
	if c.fac {
		fac := cooling.DefaultFacility(20)
		rc.Facility = &fac
	}
	r, err := rack.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// randomTrace synthesizes a Poisson trace at roughly the given offered
// load per server (fraction of capacity): light traces drain the queue —
// the regime macro windows collapse — while heavy ones keep a backlog that
// pins the kernel to fixed-dt.
func randomTrace(t testing.TB, rng *rand.Rand, horizon float64, servers int, offered float64) []Job {
	t.Helper()
	meanDur := 60 + rng.Float64()*120
	demands := []units.Percent{20, 40}
	rate := offered * float64(servers) * 100 / (meanDur * 30) // E[demand]=30%
	specs, err := loadgen.PoissonTrace(loadgen.PoissonTraceConfig{
		Seed:         rng.Int63(),
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

// runBoth executes the identical trace on twin racks through the fixed-dt
// and event-driven kernels.
func runBoth(t *testing.T, build func() *rack.Rack, jobs []Job, mkPolicy func() Policy, tc TraceConfig) (fixed, event Result, ftel, etel rack.Telemetry) {
	t.Helper()
	rf := build()
	tcf := tc
	tcf.EventStepping = false
	resF, err := RunTraceCfg(rf, jobs, mkPolicy(), tcf)
	if err != nil {
		t.Fatal(err)
	}
	re := build()
	tce := tc
	tce.EventStepping = true
	resE, err := RunTraceCfg(re, jobs, mkPolicy(), tce)
	if err != nil {
		t.Fatal(err)
	}
	return resF, resE, rf.Telemetry(), re.Telemetry()
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if b != 0 {
		d /= math.Abs(b)
	}
	return d
}

// assertEquivalent is the property the tentpole promises: identical
// scheduling outcomes, energies within 1e-6 relative, and fewer rack
// advances. With signed set (LUT and default control) the event kernel's
// energies must also not exceed fixed-dt's: a macro window charges
// leakage, convex in temperature, at the window's mean die temperature,
// which undercounts the per-step sum. Bang-bang runs are exempt:
// their decisions read the trajectory the macro windows approximate.
func assertEquivalent(t *testing.T, label string, signed bool, fixed, event Result, ftel, etel rack.Telemetry) {
	t.Helper()
	fsched, esched := fixed, event
	fsched.RackSteps, esched.RackSteps = 0, 0
	if fsched != esched {
		t.Errorf("%s: scheduling outcomes differ:\nfixed %+v\nevent %+v", label, fixed, event)
	}
	for _, m := range []struct {
		name string
		f, e float64
		tol  float64
	}{
		{"TotalEnergyKWh", ftel.TotalEnergyKWh, etel.TotalEnergyKWh, 1e-6},
		{"FanEnergyKWh", ftel.FanEnergyKWh, etel.FanEnergyKWh, 1e-6},
		{"WallEnergyKWh", ftel.WallEnergyKWh, etel.WallEnergyKWh, 1e-6},
		{"CoolingEnergyKWh", ftel.CoolingEnergyKWh, etel.CoolingEnergyKWh, 1e-5},
		{"FacilityEnergyKWh", ftel.FacilityEnergyKWh, etel.FacilityEnergyKWh, 1e-6},
	} {
		if d := relDiff(m.e, m.f); d > m.tol {
			t.Errorf("%s: %s off by %g relative (event %g vs fixed %g)", label, m.name, d, m.e, m.f)
		}
	}
	for _, m := range []struct {
		name string
		f, e float64
	}{
		{"TotalEnergyKWh", ftel.TotalEnergyKWh, etel.TotalEnergyKWh},
		{"WallEnergyKWh", ftel.WallEnergyKWh, etel.WallEnergyKWh},
		{"FacilityEnergyKWh", ftel.FacilityEnergyKWh, etel.FacilityEnergyKWh},
	} {
		if signed && m.e > m.f*(1+1e-12) {
			t.Errorf("%s: %s on the event kernel %.17g above fixed-dt %.17g", label, m.name, m.e, m.f)
		}
	}
	if d := math.Abs(etel.MaxCPUTempC - ftel.MaxCPUTempC); d > 0.3 {
		t.Errorf("%s: MaxCPUTempC off by %g °C", label, d)
	}
	if ftel.FanChanges != etel.FanChanges {
		t.Errorf("%s: fan changes differ: fixed %d event %d", label, ftel.FanChanges, etel.FanChanges)
	}
	if event.RackSteps > fixed.RackSteps {
		t.Errorf("%s: event path took MORE rack steps than fixed: %d vs %d", label, event.RackSteps, fixed.RackSteps)
	}
}

// syntheticTables returns n copies of syntheticTable: per-slot cost tables
// for the table-driven policies and conservative cap admission.
func syntheticTables(n int) []*lut.Table {
	out := make([]*lut.Table, n)
	for i := range out {
		out[i] = syntheticTable()
	}
	return out
}

// t3Chain returns n T3 power models and n default PSUs, the supply
// eventRack's chain attaches.
func t3Chain(n int) ([]power.ServerModel, []*power.PSUModel) {
	models, psus := make([]power.ServerModel, n), make([]*power.PSUModel, n)
	psu := power.DefaultPSU()
	for i := range models {
		models[i], psus[i] = server.T3Config().Power, &psu
	}
	return models, psus
}

// capAwarePolicy returns a cap-aware policy over n synthetic tables behind
// eventRack's chain.
func capAwarePolicy(t testing.TB, n int) Policy {
	t.Helper()
	models, psus := t3Chain(n)
	p, err := NewCapAwareFromTables(syntheticTables(n), models, psus)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pueAwarePolicy is capAwarePolicy's facility refinement, under the
// facility eventRack attaches.
func pueAwarePolicy(t testing.TB, n int) Policy {
	t.Helper()
	models, psus := t3Chain(n)
	p, err := NewPUEAwareFromTables(syntheticTables(n), models, psus, cooling.DefaultFacility(20))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEventTraceMatchesFixed is the randomized equivalence property test:
// random traces × policies × delivery chains × caps, event vs fixed.
func TestEventTraceMatchesFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	leakageAware := func(n int) func() Policy {
		return func() Policy {
			p, err := NewLeakageAwareFromTables(syntheticTables(n))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	// droop is a PSU-droop window on slot 1 across the middle of the trace:
	// it pins that slot to plain steps and derates its supply, which the
	// wall-floor proof must lift through.
	droop := &fault.Schedule{Events: []fault.Event{{Kind: fault.PSUDroop, Server: 1, At: 500, Clear: 1300, Severity: 0.15}}}
	cases := []struct {
		name        string
		servers     int
		offered     float64 // mean offered load per server
		chain       bool
		fac         bool
		capW        float64
		capMarginal bool // conservative admission from the per-slot tables
		faults      *fault.Schedule
		collapse    bool // assert ≥3× fewer rack steps
		mkPolicy    func() Policy
	}{
		{"roundrobin", 3, 0.15, false, false, 0, false, nil, true, func() Policy { return NewRoundRobin() }},
		{"leastutilized", 3, 0.2, true, false, 0, false, nil, true, func() Policy { return NewLeastUtilized() }},
		{"coolest", 4, 0.25, true, true, 0, false, nil, true, func() Policy { return NewCoolestFirst() }},
		// A binding cap: the policies that decide on loads alone cross
		// deferred heads as far as the wall-floor proof reaches.
		{"capped/roundrobin", 3, 0.5, true, false, 1600, false, nil, true, func() Policy { return NewRoundRobin() }},
		{"capped/roundrobin/marginal", 3, 0.5, true, false, 1700, true, nil, true, func() Policy { return NewRoundRobin() }},
		{"capped/leastutilized", 3, 0.5, true, false, 1700, false, nil, true, func() Policy { return NewLeastUtilized() }},
		{"capped/leastutilized/marginal/droop", 3, 0.5, true, true, 1750, true, droop, true, func() Policy { return NewLeastUtilized() }},
		{"capped/leakageaware", 3, 0.5, true, false, 1600, false, nil, true, leakageAware(3)},
		{"capped/leakageaware/marginal", 3, 0.5, true, false, 1700, true, nil, true, leakageAware(3)},
		// Saturated but uncapped: LeastUtilized is a LoadOnlyRefuser, so
		// the backlog un-pin macro-steps completion-to-completion even
		// with jobs queued.
		{"saturated", 2, 1.5, false, false, 0, false, nil, true, func() Policy { return NewLeastUtilized() }},
		// The policies that rank slots by temperature or draw cross the
		// same proven deferrals, each crossed retry offered the views the
		// wall-floor walk predicts.
		{"capped/coolest", 3, 0.5, true, false, 1600, false, nil, true, func() Policy { return NewCoolestFirst() }},
		{"capped/capaware", 3, 0.5, true, false, 1600, false, nil, true, func() Policy { return capAwarePolicy(t, 3) }},
		{"capped/capaware/marginal", 3, 0.5, true, false, 1700, true, nil, true, func() Policy { return capAwarePolicy(t, 3) }},
		{"capped/pueaware/facility", 3, 0.5, true, true, 1700, false, nil, true, func() Policy { return pueAwarePolicy(t, 3) }},
	}
	// Traces are drawn in table order up front, so every case keeps its
	// trace however the cases are grouped into subtests below.
	traces := make([][]Job, len(cases))
	for i, tc := range cases {
		traces[i] = randomTrace(t, rng, 1800, tc.servers, tc.offered)
	}
	run := func(t *testing.T, i int) {
		tc, jobs := cases[i], traces[i]
		t.Run(strings.TrimPrefix(tc.name, "capped/"), func(t *testing.T) {
			build := func() *rack.Rack {
				return eventRack(t, eventRackCfg{servers: tc.servers, workers: 1, chain: tc.chain, fac: tc.fac})
			}
			cfg := TraceConfig{Dt: 1, Horizon: 1800, WallCapW: tc.capW, Faults: tc.faults}
			if tc.capMarginal {
				cfg.CapMarginal = syntheticTables(tc.servers)
			}
			fixed, event, ftel, etel := runBoth(t, build, jobs, tc.mkPolicy, cfg)
			if tc.capW > 0 && fixed.Deferrals < 100 {
				t.Fatalf("only %d deferrals; the cap does not bind and the case is vacuous", fixed.Deferrals)
			}
			assertEquivalent(t, tc.name, true, fixed, event, ftel, etel)
			if tc.collapse && event.RackSteps*3 > fixed.RackSteps {
				t.Errorf("%s: only %d→%d rack steps (<3× collapse)", tc.name, fixed.RackSteps, event.RackSteps)
			}
			t.Logf("%d→%d rack steps, %d deferrals, %d placed", fixed.RackSteps, event.RackSteps, fixed.Deferrals, fixed.Placed)
		})
	}
	for i, tc := range cases {
		if tc.capW == 0 {
			run(t, i)
		}
	}
	t.Run("capped", func(t *testing.T) {
		for i, tc := range cases {
			if tc.capW > 0 {
				run(t, i)
			}
		}
	})
}

// TestEventCappedThermalPoliciesCross: coolest-first ranks slots by die
// temperature and cap-aware by DC draw, so behind a cap-deferred head
// their picks can move with the physics. The kernel crosses the retries
// the wall-floor proof covers and offers each the views the walk
// predicts: both policies match the fixed-dt reference, and the backlog
// pins fall below one per three deferrals.
func TestEventCappedThermalPoliciesCross(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	jobs := randomTrace(t, rng, 1200, 3, 0.5)
	for _, pc := range []struct {
		name     string
		mkPolicy func() Policy
	}{
		{"coolest", func() Policy { return NewCoolestFirst() }},
		{"capaware", func() Policy {
			cfg := server.T3Config()
			p, err := NewCapAwareFromTables(syntheticTables(3), []power.ServerModel{cfg.Power, cfg.Power, cfg.Power}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
	} {
		t.Run(pc.name, func(t *testing.T) {
			build := func() *rack.Rack {
				return eventRack(t, eventRackCfg{servers: 3, workers: 1, chain: true})
			}
			reg := obs.NewRegistry()
			fixed, event, ftel, etel := runBoth(t, build, jobs, pc.mkPolicy, TraceConfig{Dt: 1, Horizon: 1200, WallCapW: 1600, Metrics: reg})
			assertEquivalent(t, pc.name, true, fixed, event, ftel, etel)
			if fixed.Deferrals*4 < fixed.RackSteps {
				t.Fatalf("only %d deferrals in %d steps; the cap does not bind", fixed.Deferrals, fixed.RackSteps)
			}
			// The registry saw both runs; the fixed run charges no backlog pins.
			pins := reg.Counter("kernel.pin.backlog").Value()
			if pins*3 >= int64(fixed.Deferrals) {
				t.Errorf("%d backlog pins for %d deferrals: the kernel retried provably deferred heads step by step", pins, fixed.Deferrals)
			}
			t.Logf("%d backlog pins for %d deferrals, %d→%d rack steps", pins, fixed.Deferrals, fixed.RackSteps, event.RackSteps)
		})
	}
}

// placeCall is one Place call as recordingPolicy saw it: the job, the
// pick, the rack clock, and per view the hottest die, DC draw, wall draw
// and inlet temperature it offered.
type placeCall struct {
	job, pick             int
	now                   float64
	temp, dc, wall, inlet []float64
}

// recordingPolicy wraps a policy and records every Place call. It forwards
// no optional interface, so the kernel treats it as a policy that reads
// telemetry.
type recordingPolicy struct {
	Policy
	r     *rack.Rack
	calls []placeCall
}

func (p *recordingPolicy) Place(j Job, views []ServerView) int {
	pick := p.Policy.Place(j, views)
	c := placeCall{job: j.ID, pick: pick, now: p.r.Now()}
	for _, v := range views {
		c.temp = append(c.temp, float64(v.MaxCPUTemp))
		c.dc = append(c.dc, float64(v.DCPower))
		c.wall = append(c.wall, float64(v.WallPower))
		c.inlet = append(c.inlet, float64(v.InletTemp))
	}
	p.calls = append(p.calls, c)
	return pick
}

// Bounds on how far the telemetry offered at a crossed step may sit from
// what the fixed-dt loop offers there: the drift the macro windows before
// the decision step carry, plus the walk's linearization error. The
// largest deviations over the traces below are 5.9e-4 °C, 1.6e-4 W DC and
// 1.7e-4 W at the wall. Offering the decision step's views instead moves
// them to 2.2 °C and 56 W, and reading the walk one step behind to
// 0.23 °C and 0.03 W.
const (
	crossedTempTolC  = 1e-3
	crossedPowerTolW = 5e-4
)

// TestEventCrossedRetriesSeePredictedViews records every Place call of
// the policies that rank slots by temperature or draw, on both kernels,
// over random capped traces — one with a PSU-droop window, one with a dark
// slot, whose cap binds while the slot is dark (the walk skips it, so the
// kernel must pin). The call sequences (job and pick) must be identical,
// and at every retry the event kernel crossed, the offered hottest die, DC
// and wall draw must sit within the walk's linearization error of
// fixed-dt's, and the inlet temperature must equal it.
func TestEventCrossedRetriesSeePredictedViews(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	droop := &fault.Schedule{Events: []fault.Event{{Kind: fault.PSUDroop, Server: 1, At: 300, Clear: 800, Severity: 0.15}}}
	const darkFrom, darkTo = 300, 900
	dark := &fault.Schedule{Events: []fault.Event{{Kind: fault.PSUFail, Server: 2, At: darkFrom, Clear: darkTo}}}
	const traces = 20
	for _, pc := range []struct {
		name string
		mk   func(n int) Policy
		fac  bool
	}{
		{"coolest", func(int) Policy { return NewCoolestFirst() }, false},
		{"capaware", func(n int) Policy { return capAwarePolicy(t, n) }, false},
		{"pueaware", func(n int) Policy { return pueAwarePolicy(t, n) }, true},
	} {
		t.Run(pc.name, func(t *testing.T) {
			var calls, crossed, deferrals int
			var maxTemp, maxDC, maxWall float64
			for i := 0; i < traces; i++ {
				n := 3 + i%2
				jobs := randomTrace(t, rng, 1200, n, 0.5)
				var faults *fault.Schedule
				switch i {
				case 0:
					faults = droop
				case 1:
					faults = dark
				}
				idleRack := eventRack(t, eventRackCfg{servers: n, workers: 1, chain: true, fac: pc.fac})
				headroom := float64(n) * (80 + 80*rng.Float64())
				if faults == dark {
					// Budget the rack as if slot 2 were dark all along.
					headroom = 50 - float64(idleRack.ServerWallPower(2))
				}
				capW := float64(idleRack.WallPower()) + headroom
				run := func(event bool) (*recordingPolicy, Result) {
					r := eventRack(t, eventRackCfg{servers: n, workers: 1, chain: true, fac: pc.fac})
					rec := &recordingPolicy{Policy: pc.mk(n), r: r}
					res, err := RunTraceCfg(r, jobs, rec, TraceConfig{Dt: 1, Horizon: 1200, WallCapW: capW, Faults: faults, EventStepping: event})
					if err != nil {
						t.Fatal(err)
					}
					return rec, res
				}
				fixed, fres := run(false)
				event, eres := run(true)
				if len(fixed.calls) != len(event.calls) {
					t.Fatalf("trace %d: %d Place calls on fixed-dt, %d on the event kernel", i, len(fixed.calls), len(event.calls))
				}
				for c, f := range fixed.calls {
					e := event.calls[c]
					if e.job != f.job || e.pick != f.pick {
						t.Fatalf("trace %d call %d: job %d → %d on fixed-dt, job %d → %d on the event kernel", i, c, f.job, f.pick, e.job, e.pick)
					}
					if e.now == f.now {
						continue // a decision step: its views carry the macro windows' drift
					}
					crossed++
					for v := range f.temp {
						maxTemp = math.Max(maxTemp, math.Abs(e.temp[v]-f.temp[v]))
						maxDC = math.Max(maxDC, math.Abs(e.dc[v]-f.dc[v]))
						maxWall = math.Max(maxWall, math.Abs(e.wall[v]-f.wall[v]))
						if e.inlet[v] != f.inlet[v] {
							t.Fatalf("trace %d call %d slot %d: inlet %v °C offered, fixed-dt offers %v", i, c, v, e.inlet[v], f.inlet[v])
						}
					}
				}
				if fres.Deferrals != eres.Deferrals {
					t.Fatalf("trace %d: %d deferrals on fixed-dt, %d on the event kernel", i, fres.Deferrals, eres.Deferrals)
				}
				if faults == dark {
					retries := 0
					for _, f := range fixed.calls {
						if f.now >= darkFrom && f.now < darkTo {
							retries++
						}
					}
					if retries < 100 {
						t.Fatalf("trace %d: only %d Place calls while slot 2 is dark; the dark case is vacuous", i, retries)
					}
				}
				calls += len(fixed.calls)
				deferrals += fres.Deferrals
			}
			t.Logf("%d Place calls, %d deferrals, %d crossed retries; largest deviation %.3g °C, %.3g W DC, %.3g W wall",
				calls, deferrals, crossed, maxTemp, maxDC, maxWall)
			if crossed*2 < deferrals {
				t.Errorf("only %d of %d deferred retries crossed: the property is nearly vacuous", crossed, deferrals)
			}
			if maxTemp > crossedTempTolC || maxDC > crossedPowerTolW || maxWall > crossedPowerTolW {
				t.Errorf("crossed retries offered telemetry %.3g °C, %.3g W DC, %.3g W wall off fixed-dt's (bounds %g °C, %g W)",
					maxTemp, maxDC, maxWall, crossedTempTolC, crossedPowerTolW)
			}
		})
	}
}

// TestEventNonIntegerDt exercises the grid-correction arithmetic: a dt
// that doesn't divide arrival times must still collapse to identical
// admitting steps.
func TestEventNonIntegerDt(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	jobs := randomTrace(t, rng, 900, 2, 0.2)
	build := func() *rack.Rack {
		// PollPeriod = dt: with a sparser poll than the grid the LUT's poll
		// phase is allowed to differ between the two modes (the documented
		// HorizonPromiser caveat); at PollPeriod ≤ dt the collapse is exact.
		return eventRack(t, eventRackCfg{servers: 2, workers: 1, pollPeriod: 0.7})
	}
	cfg := TraceConfig{Dt: 0.7, Horizon: 900}
	fixed, event, ftel, etel := runBoth(t, build, jobs, func() Policy { return NewRoundRobin() }, cfg)
	assertEquivalent(t, "dt=0.7", true, fixed, event, ftel, etel)
}

// TestGridStepsMatchLoopPredicates pins the event kernel's grid-step
// arithmetic to the decision loop's own float expressions — including the
// one-ulp traps around fl(fl(k·dt)+dt) vs fl((k+1)·dt) — for awkward dt
// values.
func TestGridStepsMatchLoopPredicates(t *testing.T) {
	for _, dt := range []float64{0.3, 0.6, 0.7, 0.9, 1.0 / 3.0, 1} {
		e := &traceRun{dt: dt, start: 300, steps: 1 << 30}
		for k := 0; k < 400; k++ {
			arrivalEdge := float64(k)*dt + dt
			for _, a := range []float64{
				arrivalEdge, math.Nextafter(arrivalEdge, 0), math.Nextafter(arrivalEdge, 1e18),
				float64(k) * dt, float64(k+1) * dt,
			} {
				got := e.arrivalStep(a)
				want := 0
				for !(a < float64(want)*dt+dt) { // the fixed loop's admission predicate
					want++
				}
				if got != want {
					t.Fatalf("dt=%g a=%v: arrivalStep=%d, loop admits at %d", dt, a, got, want)
				}
			}
			end := e.start + float64(k)*dt
			for _, v := range []float64{end, math.Nextafter(end, 0), math.Nextafter(end, 1e18)} {
				got := e.stepAtOrAfter(v)
				want := 0
				for e.start+float64(want)*dt < v { // the fixed loop's completion predicate
					want++
				}
				if got != want {
					t.Fatalf("dt=%g t=%v: stepAtOrAfter=%d, loop completes at %d", dt, v, got, want)
				}
			}
		}
	}
}

// TestEventDegenerateNoJobs: with zero jobs the kernel must cross the
// whole horizon in a handful of controller-horizon macro windows — one
// initial fan command, its slew, one hold-off expiry check, then quiet to
// the end.
func TestEventDegenerateNoJobs(t *testing.T) {
	build := func() *rack.Rack {
		return eventRack(t, eventRackCfg{servers: 3, workers: 1})
	}
	fixed, event, ftel, etel := runBoth(t, build, nil, func() Policy { return NewRoundRobin() }, TraceConfig{Dt: 1, Horizon: 3600})
	assertEquivalent(t, "nojobs", true, fixed, event, ftel, etel)
	if fixed.RackSteps != 3600 {
		t.Fatalf("fixed path took %d steps, want 3600", fixed.RackSteps)
	}
	if event.RackSteps > 80 {
		t.Fatalf("degenerate trace took %d rack advances, want a handful (controller wake-ups + fan slew only)", event.RackSteps)
	}
}

// nonPromisingController is a controller the kernel cannot see a horizon
// for: it must pin event stepping to one tick per grid step.
type nonPromisingController struct{ control.Controller }

func (nonPromisingController) Name() string { return "opaque" }

// TestEventPinnedWithoutHorizon: a single non-promising controller
// anywhere in the rack forces the reference cadence — RackSteps equals the
// fixed-dt step count and results match it exactly.
func TestEventPinnedWithoutHorizon(t *testing.T) {
	mk := func() *rack.Rack {
		return eventRack(t, eventRackCfg{servers: 2, workers: 1, ctrl: func(i int) control.Controller {
			lc, err := control.NewLUT(syntheticTable(), control.DefaultLUT())
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				return nonPromisingController{lc} // hides the QuietUntil method
			}
			return lc
		}})
	}
	rng := rand.New(rand.NewSource(5))
	jobs := randomTrace(t, rng, 600, 2, 0.3)
	re := mk()
	res, err := RunTraceCfg(re, jobs, NewRoundRobin(), TraceConfig{Dt: 1, Horizon: 600, EventStepping: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.RackSteps != 600 {
		t.Fatalf("non-promising controller should pin to 600 rack steps, got %d", res.RackSteps)
	}
}

// TestEventWorkerCountInvariant: the event kernel inherits the repo-wide
// determinism contract — byte-identical results for any rack worker bound
// (run under -race in CI).
func TestEventWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	jobs := randomTrace(t, rng, 1200, 4, 0.25)
	run := func(workers int) (Result, rack.Telemetry) {
		r := eventRack(t, eventRackCfg{servers: 4, workers: workers, chain: true})
		res, err := RunTraceCfg(r, jobs, NewCoolestFirst(), TraceConfig{Dt: 1, Horizon: 1200, EventStepping: true})
		if err != nil {
			t.Fatal(err)
		}
		return res, r.Telemetry()
	}
	res1, tel1 := run(1)
	resN, telN := run(4)
	if res1 != resN {
		t.Fatalf("scheduling results differ across workers:\n1: %+v\nN: %+v", res1, resN)
	}
	if tel1 != telN {
		t.Fatalf("telemetry differs across workers:\n1: %+v\nN: %+v", tel1, telN)
	}
}

// TestSettleEventMatchesFixed: the exported stabilization helper must land
// both paths on the same equilibrium.
func TestSettleEventMatchesFixed(t *testing.T) {
	rf := eventRack(t, eventRackCfg{servers: 2, workers: 1})
	if err := Settle(rf, 1, 600, false); err != nil {
		t.Fatal(err)
	}
	re := eventRack(t, eventRackCfg{servers: 2, workers: 1})
	if err := Settle(re, 1, 600, true); err != nil {
		t.Fatal(err)
	}
	if rf.Now() != re.Now() {
		t.Fatalf("clocks differ after settle: %g vs %g", rf.Now(), re.Now())
	}
	for i := 0; i < rf.NumServers(); i++ {
		if d := math.Abs(float64(rf.Server(i).MaxCPUTemp() - re.Server(i).MaxCPUTemp())); d > 0.05 {
			t.Fatalf("server %d settle temp off by %g", i, d)
		}
	}
}
