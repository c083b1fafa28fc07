package room

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/cooling"
	"repro/internal/fault"
	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/obs"
	"repro/internal/rack"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/units"
)

// syntheticTable is the hand-built monotone fan table the sched event
// tests use: LUT controllers (the horizon-promising kind) without paying
// for a grid of steady-state solves per case.
func syntheticTable() *lut.Table {
	return &lut.Table{Entries: []lut.Entry{
		{Util: 0, RPM: 1800, PredictedTemp: 45, FanLeakPower: 18},
		{Util: 30, RPM: 2400, PredictedTemp: 55, FanLeakPower: 24},
		{Util: 60, RPM: 3000, PredictedTemp: 62, FanLeakPower: 33},
		{Util: 100, RPM: 3600, PredictedTemp: 68, FanLeakPower: 46},
	}}
}

// testRackConfig builds one rack's config: ambient gradient, mixed DIMM
// counts, per-rack-distinct noise seeds, fresh controllers per call
// (controllers are stateful and must never be shared between racks). lutCtl
// selects horizon-promising LUT controllers; false is bang-bang.
func testRackConfig(t testing.TB, servers int, seedBase int64, lutCtl bool) rack.Config {
	t.Helper()
	specs := make([]rack.ServerSpec, servers)
	for i := range specs {
		cfg := server.T3Config()
		cfg.Ambient = units.Celsius(21 + 3*(i%4))
		cfg.NoiseSeed = seedBase + 97*int64(i)
		if i%2 == 1 {
			cfg.Mem.NumDIMMs = 24
		}
		var ctl control.Controller
		if lutCtl {
			lc, err := control.NewLUT(syntheticTable(), control.DefaultLUT())
			if err != nil {
				t.Fatal(err)
			}
			ctl = lc
		} else {
			bb, err := control.NewBangBang(control.DefaultBangBang())
			if err != nil {
				t.Fatal(err)
			}
			ctl = bb
		}
		specs[i] = rack.ServerSpec{Config: cfg, Controller: ctl}
	}
	return rack.Config{Servers: specs, Workers: 1}
}

// testRoom assembles a room of `racks` identical-spec racks (distinct noise
// seeds per rack) under the given coupling and shared facility.
func testRoom(t testing.TB, racks, servers, workers int, w *Matrix, fac *cooling.Facility, lutCtl bool) *Room {
	t.Helper()
	specs := make([]RackSpec, racks)
	for r := range specs {
		specs[r] = RackSpec{Config: testRackConfig(t, servers, 1+1000*int64(r), lutCtl)}
	}
	rm, err := New(Config{Racks: specs, Workers: workers, Recirc: w, Facility: fac})
	if err != nil {
		t.Fatal(err)
	}
	return rm
}

// driveLoads runs the room through a deterministic per-slot load schedule
// for `steps` seconds of 1 s stepping.
func driveLoads(rm *Room, steps int) {
	for s := 0; s < steps; s++ {
		for r := 0; r < rm.NumRacks(); r++ {
			rk := rm.Rack(r)
			for i := 0; i < rk.NumServers(); i++ {
				rk.SetLoad(i, units.Percent((s/30*17+23*(i+5*r))%101))
			}
		}
		rm.Step(1)
	}
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if b != 0 {
		d /= math.Abs(b)
	}
	return d
}

// randomJobs synthesizes a sorted Poisson trace at roughly the given
// offered load per server.
func randomJobs(t testing.TB, seed int64, horizon float64, servers int, offered float64) []sched.Job {
	t.Helper()
	specs, err := loadgen.PoissonTrace(loadgen.PoissonTraceConfig{
		Seed:         seed,
		Horizon:      horizon,
		Rate:         offered * float64(servers) * 100 / (120 * 30), // E[demand]=30%, 120 s jobs
		MeanDuration: 120,
		Demands:      []units.Percent{20, 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sched.JobsFromSpecs(specs)
}

// rrPolicy builds the blind two-level baseline: round-robin racks, round-
// robin slots.
func rrPolicy(t testing.TB, racks int) *Policy {
	t.Helper()
	slots := make([]sched.Policy, racks)
	for i := range slots {
		slots[i] = sched.NewRoundRobin()
	}
	pol, err := NewPolicy(NewRoundRobinRacks(), slots)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestRoomZeroMatrixBitIdentical is the W = 0 property: with no coupling
// and no shared facility, every rack inside the room must be bit-identical
// to the same rack stepped independently — for a nil matrix, an all-zero
// matrix, and any worker count.
func TestRoomZeroMatrixBitIdentical(t *testing.T) {
	const racks, servers, steps = 3, 4, 240
	for _, tc := range []struct {
		name    string
		w       *Matrix
		workers int
	}{
		{"nil-matrix", nil, 1},
		{"zero-matrix", NewMatrix(racks), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rm := testRoom(t, racks, servers, tc.workers, tc.w, nil, false)
			driveLoads(rm, steps)

			var wantWall float64
			for r := 0; r < racks; r++ {
				// The independent reference: an identical rack (same specs,
				// same seeds, fresh controllers) under the same schedule.
				ref, err := rack.New(testRackConfig(t, servers, 1+1000*int64(r), false))
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < steps; s++ {
					for i := 0; i < servers; i++ {
						ref.SetLoad(i, units.Percent((s/30*17+23*(i+5*r))%101))
					}
					ref.Step(1)
				}
				refTel, gotTel := ref.Telemetry(), rm.Rack(r).Telemetry()
				if !reflect.DeepEqual(refTel, gotTel) {
					t.Errorf("rack %d diverged from independent stepping:\nindependent: %+v\nin-room:     %+v", r, refTel, gotTel)
				}
				wantWall += refTel.WallEnergyKWh
				if off := rm.RecircOffsetC(r); off != 0 {
					t.Errorf("rack %d carries recirc offset %g in an uncoupled room", r, off)
				}
			}
			tel := rm.Telemetry()
			if tel.WallEnergyKWh != wantWall {
				t.Errorf("room wall energy %g != Σ independent racks %g", tel.WallEnergyKWh, wantWall)
			}
			if tel.CoolingEnergyKWh != 0 || tel.PUE != 1 {
				t.Errorf("no-facility room must have zero cooling and PUE 1, got %+v", tel)
			}
			if tel.MaxRecircOffsetC != 0 {
				t.Errorf("uncoupled room reports recirc offset %g", tel.MaxRecircOffsetC)
			}
		})
	}
}

// TestRoomHeatConservation is the energy-conservation property: the
// independently integrated room heat must equal the sum of the rack wall
// meters to float-reordering precision (1e-9 relative), for any valid
// coupling, and the facility meter must be exactly heat + cooling.
func TestRoomHeatConservation(t *testing.T) {
	fac := cooling.DefaultFacility(cooling.DefaultCRAC().ReferenceC)
	for _, tc := range []struct {
		name string
		w    *Matrix
	}{
		{"uncoupled", nil},
		{"neighbor", NeighborMatrix(4)},
		{"saturated-rows", &Matrix{W: [][]float64{
			{0.25, 0.25, 0.25, 0.25},
			{0.25, 0.25, 0.25, 0.25},
			{0.25, 0.25, 0.25, 0.25},
			{0.25, 0.25, 0.25, 0.25},
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rm := testRoom(t, 4, 3, 2, tc.w, &fac, false)
			driveLoads(rm, 300)
			tel := rm.Telemetry()
			if d := relDiff(tel.RoomHeatKWh, tel.WallEnergyKWh); d > 1e-9 {
				t.Errorf("room heat %g vs Σ rack wall %g: off by %g relative (want ≤ 1e-9)",
					tel.RoomHeatKWh, tel.WallEnergyKWh, d)
			}
			if d := relDiff(tel.FacilityEnergyKWh, tel.RoomHeatKWh+tel.CoolingEnergyKWh); d > 1e-12 {
				t.Errorf("facility energy %g != heat %g + cooling %g", tel.FacilityEnergyKWh, tel.RoomHeatKWh, tel.CoolingEnergyKWh)
			}
			if tel.CoolingEnergyKWh <= 0 || tel.PUE <= 1 {
				t.Errorf("shared CRAC bank should cost energy: %+v", tel)
			}
			if tel.PeakFacilityPowerW <= tel.PeakWallPowerW {
				t.Errorf("facility peak %g should exceed wall peak %g", tel.PeakFacilityPowerW, tel.PeakWallPowerW)
			}
		})
	}
}

// scaleMatrix returns m with every entry multiplied by f.
func scaleMatrix(m *Matrix, f float64) *Matrix {
	out := NewMatrix(m.Size())
	for i, row := range m.W {
		for j, w := range row {
			out.W[i][j] = f * w
		}
	}
	return out
}

// TestRoomRecircOffsetsMonotone: entrywise-larger couplings must never
// lower any rack's inlet offset — more recirculated exhaust means hotter
// cold aisles everywhere.
func TestRoomRecircOffsetsMonotone(t *testing.T) {
	base := NeighborMatrix(4)
	offsets := func(f float64) []float64 {
		var w *Matrix
		if f > 0 {
			w = scaleMatrix(base, f)
		}
		rm := testRoom(t, 4, 3, 2, w, nil, false)
		driveLoads(rm, 180)
		out := make([]float64, rm.NumRacks())
		for i := range out {
			out[i] = rm.RecircOffsetC(i)
		}
		return out
	}
	zero, half, full := offsets(0), offsets(0.5), offsets(1)
	for i := range full {
		if zero[i] != 0 {
			t.Errorf("rack %d: uncoupled offset %g != 0", i, zero[i])
		}
		if half[i] <= 0 || full[i] <= 0 {
			t.Errorf("rack %d: coupled offsets must be positive under load, got half=%g full=%g", i, half[i], full[i])
		}
		if full[i] < half[i] {
			t.Errorf("rack %d: offset fell from %g to %g when every entry doubled", i, half[i], full[i])
		}
	}
	// The end racks sit in one neighbor's exhaust, the middle racks in two:
	// the spatial gradient the recirc-aware chooser prices.
	if !(full[1] > full[0] && full[2] > full[3]) {
		t.Errorf("middle racks should run hotter offsets than end racks: %v", full)
	}
}

// roomRunOut bundles everything one trace run produces that determinism
// must cover: the scheduling result, the room and per-rack telemetry, and
// the metrics dump bytes.
type roomRunOut struct {
	res   Result
	tel   Telemetry
	racks []rack.Telemetry
	dump  string
}

func runOnce(t *testing.T, workers int, w *Matrix, fac *cooling.Facility, jobs []sched.Job, mkPol func() *Policy, tc TraceConfig, racks, servers int) roomRunOut {
	t.Helper()
	rm := testRoom(t, racks, servers, workers, w, fac, true)
	reg := obs.NewRegistry()
	tc.Metrics = reg
	res, err := RunTrace(rm, jobs, mkPol(), tc)
	if err != nil {
		t.Fatal(err)
	}
	res.Metrics = nil // registry pointers differ by construction
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := roomRunOut{res: res, tel: rm.Telemetry(), dump: buf.String()}
	for i := 0; i < rm.NumRacks(); i++ {
		out.racks = append(out.racks, rm.Rack(i).Telemetry())
	}
	return out
}

// TestRoomDeterminism is the two-level determinism contract: randomized
// rooms — racks × servers × choosers × fault schedules × both kernels —
// must produce byte-identical telemetry, results and metrics dumps for
// every worker count. Under -race this also proves the rack-i write
// isolation of the segment fan-out.
func TestRoomDeterminism(t *testing.T) {
	fac := cooling.DefaultFacility(cooling.DefaultCRAC().ReferenceC)
	rng := rand.New(rand.NewSource(77))
	for _, kernel := range []struct {
		name  string
		event bool
	}{{"fixed", false}, {"event", true}} {
		for c := 0; c < 3; c++ {
			racks := 2 + rng.Intn(3)
			servers := 2 + rng.Intn(2)
			seed := rng.Int63()
			withFaults := c == 1
			chooser := c % 3
			t.Run(kernel.name, func(t *testing.T) {
				jobs := randomJobs(t, seed, 400, racks*servers, 0.5)
				mkPol := func() *Policy {
					slots := make([]sched.Policy, racks)
					for i := range slots {
						slots[i] = sched.NewCoolestFirst()
					}
					var ch RackChooser
					switch chooser {
					case 0:
						ch = NewRoundRobinRacks()
					case 1:
						ch = NewLeastLoadedRack()
					default:
						ch = NewCoolestRack()
					}
					pol, err := NewPolicy(ch, slots)
					if err != nil {
						t.Fatal(err)
					}
					return pol
				}
				tc := TraceConfig{Dt: 1, Horizon: 400, EventStepping: kernel.event, SampleEvery: 60}
				if withFaults {
					tc.Faults = make([]*fault.Schedule, racks)
					tc.Faults[0] = &fault.Schedule{Events: []fault.Event{
						{Kind: fault.CRACOutage, At: 100, Clear: 200},
						{Kind: fault.FanStick, Server: 0, Fan: 0, At: 150, Clear: 300},
					}}
				}
				w := NeighborMatrix(racks)
				ref := runOnce(t, 1, w, &fac, jobs, mkPol, tc, racks, servers)
				for _, workers := range []int{4, racks} {
					got := runOnce(t, workers, w, &fac, jobs, mkPol, tc, racks, servers)
					if !reflect.DeepEqual(ref.res, got.res) {
						t.Errorf("workers=%d result differs:\nserial:   %+v\nparallel: %+v", workers, ref.res, got.res)
					}
					if !reflect.DeepEqual(ref.tel, got.tel) {
						t.Errorf("workers=%d room telemetry differs:\nserial:   %+v\nparallel: %+v", workers, ref.tel, got.tel)
					}
					if !reflect.DeepEqual(ref.racks, got.racks) {
						t.Errorf("workers=%d per-rack telemetry differs", workers)
					}
					if ref.dump != got.dump {
						t.Errorf("workers=%d metrics dump differs:\nserial:\n%s\nparallel:\n%s", workers, ref.dump, got.dump)
					}
				}
				if ref.res.Placed == 0 {
					t.Error("degenerate case: no job was ever placed")
				}
			})
		}
	}
}

// assertPinIdentity checks Advances − MacroWindows == Σ Pins for one
// rack's kernel stats.
func assertPinIdentity(t *testing.T, label string, st RackKernelStats) (pins int) {
	t.Helper()
	for _, p := range st.Pins {
		pins += p
	}
	if pins != st.Advances-st.MacroWindows {
		t.Errorf("%s: Σ pins = %d, want advances − macro = %d − %d = %d",
			label, pins, st.Advances, st.MacroWindows, st.Advances-st.MacroWindows)
	}
	return pins
}

// roomPinSum extracts (Σ room.pin.*, room.rack.steps.total,
// room.windows.macro, room.grid.steps) from a registry.
func roomPinSum(reg *obs.Registry) (pins, steps, macro, grid int64) {
	for _, name := range PinReasonNames() {
		pins += reg.Counter("room.pin." + name).Value()
	}
	return pins,
		reg.Counter("room.rack.steps.total").Value(),
		reg.Counter("room.windows.macro").Value(),
		reg.Counter("room.grid.steps").Value()
}

// TestRoomPinIdentity is the acceptance identity, room scope: every rack
// advance is either a macro window or exactly one pinned single step, per
// rack and room-wide, in both kernels, with and without faults — and the
// room.* counters agree with the per-rack stats.
func TestRoomPinIdentity(t *testing.T) {
	const racks, servers = 3, 3
	jobs := randomJobs(t, 99, 600, racks*servers, 0.4)
	cascade := []*fault.Schedule{
		{Events: []fault.Event{
			{Kind: fault.FanFail, Server: 0, Fan: 0, At: 120},
			{Kind: fault.CRACOutage, At: 200, Clear: 400},
		}},
		nil,
		{Events: []fault.Event{{Kind: fault.PSUFail, Server: 1, At: 300, Clear: 450}}},
	}
	for _, tc := range []struct {
		name   string
		event  bool
		faults []*fault.Schedule
		sample float64
	}{
		{name: "fixed", event: false},
		{name: "event", event: true},
		{name: "event-sampled", event: true, sample: 30},
		{name: "event-faults", event: true, faults: cascade, sample: 20},
		{name: "fixed-faults", event: false, faults: cascade},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fac := cooling.DefaultFacility(cooling.DefaultCRAC().ReferenceC)
			rm := testRoom(t, racks, servers, 2, NeighborMatrix(racks), &fac, true)
			reg := obs.NewRegistry()
			res, err := RunTrace(rm, jobs, rrPolicy(t, racks), TraceConfig{
				Dt: 1, Horizon: 600,
				EventStepping: tc.event,
				SampleEvery:   tc.sample,
				Faults:        tc.faults,
				Metrics:       reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			var totPins, totAdv, totMacro int
			for i, st := range res.Kernel {
				totPins += assertPinIdentity(t, rm.RackName(i), st)
				totAdv += st.Advances
				totMacro += st.MacroWindows
			}
			if totPins != totAdv-totMacro {
				t.Errorf("room-wide: Σ pins = %d, want %d", totPins, totAdv-totMacro)
			}
			pins, steps, macro, grid := roomPinSum(reg)
			if pins != steps-macro {
				t.Errorf("counters: Σ room.pin.* = %d, want steps − macro = %d − %d", pins, steps, macro)
			}
			if steps != int64(totAdv) || macro != int64(totMacro) {
				t.Errorf("counters (steps=%d macro=%d) disagree with Kernel stats (adv=%d macro=%d)", steps, macro, totAdv, totMacro)
			}
			if grid != int64(res.GridSteps) || res.GridSteps != 600 {
				t.Errorf("grid steps: counter %d, result %d, want 600", grid, res.GridSteps)
			}
			if !tc.event {
				if totMacro != 0 || totAdv != racks*600 {
					t.Errorf("fixed path: want %d single-step advances, got adv=%d macro=%d", racks*600, totAdv, totMacro)
				}
			} else if totMacro == 0 {
				t.Error("event path produced no macro windows — the kernel never un-pinned")
			}
		})
	}
}

// runBothKernels executes the identical trace on twin rooms through the
// fixed-dt and event-driven kernels.
func runBothKernels(t *testing.T, racks, servers int, w *Matrix, fac *cooling.Facility, jobs []sched.Job, tc TraceConfig) (fixed, event roomRunOut) {
	t.Helper()
	mkPol := func() *Policy { return rrPolicy(t, racks) }
	tcf := tc
	tcf.EventStepping = false
	fixed = runOnce(t, 2, w, fac, jobs, mkPol, tcf, racks, servers)
	tce := tc
	tce.EventStepping = true
	event = runOnce(t, 2, w, fac, jobs, mkPol, tce, racks, servers)
	return fixed, event
}

// assertKernelsEquivalent is the room tentpole property: identical
// scheduling outcomes and energies within 1e-6 relative between the two
// kernels.
func assertKernelsEquivalent(t *testing.T, label string, fixed, event roomRunOut) {
	t.Helper()
	fs, es := fixed.res, event.res
	fs.Segments, es.Segments = 0, 0
	fs.Kernel, es.Kernel = nil, nil
	if !reflect.DeepEqual(fs, es) {
		t.Errorf("%s: scheduling outcomes differ:\nfixed %+v\nevent %+v", label, fs, es)
	}
	for _, m := range []struct {
		name string
		f, e float64
		tol  float64
	}{
		{"TotalEnergyKWh", fixed.tel.TotalEnergyKWh, event.tel.TotalEnergyKWh, 1e-6},
		{"WallEnergyKWh", fixed.tel.WallEnergyKWh, event.tel.WallEnergyKWh, 1e-6},
		{"FanEnergyKWh", fixed.tel.FanEnergyKWh, event.tel.FanEnergyKWh, 1e-6},
		{"RoomHeatKWh", fixed.tel.RoomHeatKWh, event.tel.RoomHeatKWh, 1e-6},
		{"CoolingEnergyKWh", fixed.tel.CoolingEnergyKWh, event.tel.CoolingEnergyKWh, 1e-5},
		{"FacilityEnergyKWh", fixed.tel.FacilityEnergyKWh, event.tel.FacilityEnergyKWh, 1e-6},
	} {
		if d := relDiff(m.e, m.f); d > m.tol {
			t.Errorf("%s: %s off by %g relative (event %g vs fixed %g)", label, m.name, d, m.e, m.f)
		}
	}
	if fixed.tel.FanChanges != event.tel.FanChanges {
		t.Errorf("%s: fan changes differ: fixed %d event %d", label, fixed.tel.FanChanges, event.tel.FanChanges)
	}
	var fAdv, eAdv int
	for _, st := range fixed.res.Kernel {
		fAdv += st.Advances
	}
	for _, st := range event.res.Kernel {
		eAdv += st.Advances
	}
	if eAdv >= fAdv {
		t.Errorf("%s: event kernel took %d advances, fixed %d — no macro wins", label, eAdv, fAdv)
	}
}

// TestRoomEventMatchesFixed: the room event kernel must reproduce the
// fixed-dt reference — same placements, energies within 1e-6 relative —
// while taking strictly fewer rack advances, with and without the
// recirculation coupling and the shared facility. The coupled cases bound
// segments with SampleEvery so recirculation re-anchors stay on a fixed
// cadence in both kernels.
func TestRoomEventMatchesFixed(t *testing.T) {
	const racks, servers = 3, 3
	fac := cooling.DefaultFacility(cooling.DefaultCRAC().ReferenceC)
	for _, tc := range []struct {
		name    string
		w       *Matrix
		offered float64
		sample  float64
	}{
		{name: "uncoupled-light", w: nil, offered: 0.3},
		{name: "uncoupled-heavy", w: nil, offered: 1.5},
		{name: "coupled-light", w: NeighborMatrix(racks), offered: 0.3, sample: 10},
		{name: "coupled-heavy", w: NeighborMatrix(racks), offered: 1.2, sample: 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs := randomJobs(t, 31+int64(len(tc.name)), 600, racks*servers, tc.offered)
			fixed, event := runBothKernels(t, racks, servers, tc.w, &fac, jobs, TraceConfig{
				Dt: 1, Horizon: 600, SampleEvery: tc.sample,
			})
			assertKernelsEquivalent(t, tc.name, fixed, event)
		})
	}
}

// TestRoomSharedBankFaults covers the facility-scope fault plumbing on the
// shared CRAC bank: an outage darkens it (cooling exactly zero), a chiller
// derate inflates it, derates stacking to 1 across racks are refused, and
// clears restore the baseline exactly.
func TestRoomSharedBankFaults(t *testing.T) {
	fac := cooling.DefaultFacility(cooling.DefaultCRAC().ReferenceC)
	rm := testRoom(t, 2, 2, 1, nil, &fac, false)
	driveLoads(rm, 60)
	base := float64(rm.CoolingPower())
	if base <= 0 {
		t.Fatalf("expected positive cooling power under load, got %g", base)
	}

	outage := fault.Event{Kind: fault.CRACOutage, At: 0}
	if err := rm.ApplyFault(0, outage); err != nil {
		t.Fatal(err)
	}
	rm.Step(1)
	if got := float64(rm.CoolingPower()); got != 0 {
		t.Errorf("cooling power %g during CRAC outage, want exactly 0", got)
	}
	if rm.PUE() != 1 {
		t.Errorf("PUE %g during outage, want 1 (no cooling draw)", rm.PUE())
	}
	if err := rm.ClearFault(0, outage); err != nil {
		t.Fatal(err)
	}

	derate := fault.Event{Kind: fault.ChillerDegraded, At: 0, Severity: 0.3}
	if err := rm.ApplyFault(1, derate); err != nil {
		t.Fatal(err)
	}
	rm.Step(1)
	if got := float64(rm.CoolingPower()); got <= base {
		t.Errorf("derated cooling power %g should exceed baseline %g", got, base)
	}
	if err := rm.ClearFault(1, derate); err != nil {
		t.Fatal(err)
	}
	rm.Step(1)
	if got := float64(rm.CoolingPower()); relDiff(got, base) > 0.05 {
		t.Errorf("cooling power %g did not return near baseline %g after clears", got, base)
	}

	// Derates on different racks stack on the shared bank: an edge that
	// would take their sum to 1 errors and changes nothing.
	first := fault.Event{Kind: fault.ChillerDegraded, At: 0, Severity: 0.6}
	if err := rm.ApplyFault(0, first); err != nil {
		t.Fatal(err)
	}
	if err := rm.ApplyFault(1, fault.Event{Kind: fault.ChillerDegraded, At: 0, Severity: 0.5}); err == nil {
		t.Error("chiller derates summing to 1.1 across racks must be refused")
	}
	if err := rm.ClearFault(0, first); err != nil {
		t.Fatal(err)
	}
	rm.Step(1)
	if got := float64(rm.CoolingPower()); relDiff(got, base) > 0.05 {
		t.Errorf("cooling power %g did not return near baseline %g: the refused derate stuck", got, base)
	}

	if err := rm.ApplyFault(7, outage); err == nil {
		t.Error("fault on out-of-range rack must error")
	}
	if err := rm.ClearFault(-1, outage); err == nil {
		t.Error("clear on out-of-range rack must error")
	}
}

// TestRoomValidation covers the constructor and trace-runner error paths.
func TestRoomValidation(t *testing.T) {
	good := func() Config {
		return Config{Racks: []RackSpec{{Config: testRackConfig(t, 2, 1, false)}}}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("empty room must be rejected")
	}
	bad := good()
	bad.Recirc = NeighborMatrix(3)
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "racks") {
		t.Errorf("matrix/room dimension mismatch must be rejected, got %v", err)
	}
	bad = good()
	bad.Recirc = &Matrix{W: [][]float64{{2}}}
	if _, err := New(bad); err == nil {
		t.Error("invalid matrix must be rejected")
	}
	bad = good()
	bad.ExhaustRiseCPerKW = -1
	if _, err := New(bad); err == nil {
		t.Error("negative exhaust rise must be rejected")
	}
	bad = good()
	fac := cooling.DefaultFacility(18)
	bad.Racks[0].Config.Facility = &fac
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "owns the cooling loop") {
		t.Errorf("rack-owned facility must be rejected, got %v", err)
	}

	rm := testRoom(t, 2, 2, 1, nil, nil, false)
	jobs := []sched.Job{{ID: 0, Arrival: 0, Duration: 10, Demand: 20}}
	pol := rrPolicy(t, 2)
	if _, err := RunTrace(rm, jobs, pol, TraceConfig{Dt: 0, Horizon: 10}); err == nil {
		t.Error("dt=0 must be rejected")
	}
	if _, err := RunTrace(rm, jobs, nil, TraceConfig{Dt: 1, Horizon: 10}); err == nil {
		t.Error("nil policy must be rejected")
	}
	unsorted := []sched.Job{{Arrival: 5}, {Arrival: 1}}
	if _, err := RunTrace(rm, unsorted, pol, TraceConfig{Dt: 1, Horizon: 10}); err == nil {
		t.Error("unsorted jobs must be rejected")
	}
	if _, err := RunTrace(rm, jobs, rrPolicy(t, 3), TraceConfig{Dt: 1, Horizon: 10}); err == nil {
		t.Error("slot-policy count mismatch must be rejected")
	}
	if _, err := RunTrace(rm, jobs, pol, TraceConfig{Dt: 1, Horizon: 10,
		Faults: []*fault.Schedule{{}}}); err == nil {
		t.Error("fault-schedule count mismatch must be rejected")
	}
	if _, err := RunTrace(rm, jobs, pol, TraceConfig{Dt: 1, Horizon: 10,
		Faults: []*fault.Schedule{{Events: []fault.Event{{Kind: fault.FanStick, Server: 9, At: 1}}}, nil}}); err == nil {
		t.Error("invalid per-rack fault schedule must be rejected")
	}
}

// TestRoomSettleAndReset: both settle paths advance the room clock without
// scheduling anything, and ResetAccounting restarts the meters while the
// recirculation offsets persist as physical state.
func TestRoomSettleAndReset(t *testing.T) {
	for _, event := range []bool{false, true} {
		rm := testRoom(t, 2, 2, 1, NeighborMatrix(2), nil, true)
		driveLoads(rm, 30) // put some load-driven heat into the loop
		if err := Settle(rm, 1, 120, event); err != nil {
			t.Fatal(err)
		}
		if got := rm.Now(); got != 150 {
			t.Errorf("event=%v: clock %g after 30+120 s, want 150", event, got)
		}
		pre := rm.RecircOffsetC(0)
		rm.ResetAccounting()
		tel := rm.Telemetry()
		if tel.WallEnergyKWh != 0 || tel.RoomHeatKWh != 0 || tel.FacilityEnergyKWh != 0 {
			t.Errorf("event=%v: ResetAccounting left meters %+v", event, tel)
		}
		if got := rm.RecircOffsetC(0); got != pre {
			t.Errorf("event=%v: reset moved the physical recirc offset %g -> %g", event, pre, got)
		}
	}
}

// RackName returns rack i's name.
func (rm *Room) RackName(i int) string { return rm.names[i] }

// CoolingPower returns the shared bank's instantaneous cooling power at
// the most recent observation — exactly zero with no facility.
func (rm *Room) CoolingPower() units.Watts { return units.Watts(rm.lastCoolW) }

// PUE returns the instantaneous power usage effectiveness of the room.
func (rm *Room) PUE() float64 {
	if rm.lastWallW <= 0 || rm.lastCoolW == 0 {
		return 1
	}
	return (rm.lastWallW + rm.lastCoolW) / rm.lastWallW
}

// PinReasonNames returns the metric suffixes of the room pin-reason
// taxonomy in attribution-priority order; "room.pin." + name is the
// counter each appears under, and RackKernelStats.Pins is indexed the
// same way.
func PinReasonNames() []string {
	out := make([]string, pinReasons)
	copy(out, pinNames[:])
	return out
}
