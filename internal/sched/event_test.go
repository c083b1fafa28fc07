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
// advances.
func assertEquivalent(t *testing.T, label string, fixed, event Result, ftel, etel rack.Telemetry) {
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
			assertEquivalent(t, tc.name, fixed, event, ftel, etel)
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

// TestEventCappedThermalPoliciesStayPinned: coolest-first ranks slots by
// die temperature and cap-aware by DC draw, so behind a cap-deferred head
// their picks can move with the physics; the kernel keeps retrying them
// every step, and the backlog pin dominates the advances.
func TestEventCappedThermalPoliciesStayPinned(t *testing.T) {
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
			assertEquivalent(t, pc.name, fixed, event, ftel, etel)
			if fixed.Deferrals*4 < fixed.RackSteps {
				t.Fatalf("only %d deferrals in %d steps; the cap does not bind", fixed.Deferrals, fixed.RackSteps)
			}
			// The registry saw both runs; the fixed run charges no backlog pins.
			if pins := reg.Counter("kernel.pin.backlog").Value(); pins < int64(fixed.Deferrals) {
				t.Errorf("%d backlog pins for %d deferrals: a temperature-ranked policy crossed a deferred head", pins, fixed.Deferrals)
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
	assertEquivalent(t, "dt=0.7", fixed, event, ftel, etel)
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
	assertEquivalent(t, "nojobs", fixed, event, ftel, etel)
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
