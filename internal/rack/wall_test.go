package rack

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/units"
)

// chainRack builds an n-server rack with the given delivery chain and a
// fixed 70% load everywhere.
func chainRack(t *testing.T, n, workers int, psu *power.PSUModel, pdu *power.PDUModel) *Rack {
	t.Helper()
	specs := make([]ServerSpec, n)
	for i := range specs {
		cfg := server.T3Config()
		cfg.Ambient = units.Celsius(21 + 3*(i%4))
		cfg.NoiseSeed = int64(1 + 7*i)
		specs[i] = ServerSpec{Config: cfg}
	}
	r, err := New(Config{Servers: specs, Workers: workers, PSU: psu, PDU: pdu})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r.SetLoad(i, 70)
	}
	return r
}

// TestRackIdealChainWallMirrorsDC: with no PSU and no PDU the delivery
// chain is the identity, so the wall side must mirror the DC side exactly
// — instantaneous draw and peaks bitwise, conversion loss exactly zero.
func TestRackIdealChainWallMirrorsDC(t *testing.T) {
	r := chainRack(t, 3, 1, nil, nil)
	for s := 0; s < 120; s++ {
		r.Step(1)
	}
	if r.WallPower() != r.DCPower() {
		t.Fatalf("ideal chain: wall %v != dc %v", r.WallPower(), r.DCPower())
	}
	tel := r.Telemetry()
	if tel.LossEnergyKWh != 0 {
		t.Fatalf("ideal chain: loss %g, want exactly 0", tel.LossEnergyKWh)
	}
	if tel.PeakWallPowerW != tel.PeakPowerW {
		t.Fatalf("ideal chain: peak wall %g != peak dc %g", tel.PeakWallPowerW, tel.PeakPowerW)
	}
	// Rack-level wall integration and the per-server energy sum accumulate
	// in different orders, so compare within float tolerance only.
	if rel := math.Abs(tel.WallEnergyKWh-tel.TotalEnergyKWh) / tel.TotalEnergyKWh; rel > 1e-12 {
		t.Fatalf("ideal chain: wall energy %g vs total %g (rel %g)", tel.WallEnergyKWh, tel.TotalEnergyKWh, rel)
	}
	for i := 0; i < r.NumServers(); i++ {
		if r.ServerWallPower(i) != r.ServerDCPower(i) {
			t.Fatalf("server %d: ideal wall != dc", i)
		}
	}
}

// TestRackChainWallExceedsDC: a lossy chain must amplify every DC watt at
// the wall, with losses consistent between energy and power telemetry.
func TestRackChainWallExceedsDC(t *testing.T) {
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	r := chainRack(t, 3, 1, &psu, &pdu)
	for s := 0; s < 120; s++ {
		r.Step(1)
	}
	if r.WallPower() <= r.DCPower() {
		t.Fatalf("lossy chain: wall %v must exceed dc %v", r.WallPower(), r.DCPower())
	}
	tel := r.Telemetry()
	if tel.LossEnergyKWh <= 0 {
		t.Fatalf("lossy chain: loss %g must be positive", tel.LossEnergyKWh)
	}
	if tel.WallEnergyKWh <= tel.TotalEnergyKWh {
		t.Fatalf("wall energy %g must exceed DC energy %g", tel.WallEnergyKWh, tel.TotalEnergyKWh)
	}
	if tel.PeakWallPowerW <= tel.PeakPowerW {
		t.Fatalf("peak wall %g must exceed peak dc %g", tel.PeakWallPowerW, tel.PeakPowerW)
	}
	for i := 0; i < r.NumServers(); i++ {
		if r.ServerWallPower(i) <= r.ServerDCPower(i) {
			t.Fatalf("server %d: PSU input must exceed DC draw", i)
		}
	}
	// ResetAccounting starts a fresh wall-side measurement window.
	r.ResetAccounting()
	tel = r.Telemetry()
	if tel.WallEnergyKWh != 0 || tel.LossEnergyKWh != 0 {
		t.Fatalf("ResetAccounting left wall accounting %+v", tel)
	}
}

// TestRackWallPowerWith pins the what-if query WallPowerWithAll: zero
// extra reproduces the current draw bitwise, extra load raises it, and no
// state is mutated.
func TestRackWallPowerWith(t *testing.T) {
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	r := chainRack(t, 3, 1, &psu, &pdu)
	for s := 0; s < 60; s++ {
		r.Step(1)
	}
	before := r.WallPower()
	if got := r.WallPowerWithAll([]units.Watts{0, 0}); got != before {
		t.Fatalf("WallPowerWithAll(+0 on slot 1) = %v, want %v", got, before)
	}
	more := r.WallPowerWithAll([]units.Watts{0, 50})
	if more <= before {
		t.Fatalf("WallPowerWithAll(+50 on slot 1) = %v, want > %v", more, before)
	}
	if r.WallPower() != before {
		t.Fatal("WallPowerWithAll mutated the observed wall draw")
	}
	// The same extra on a different slot differs only through PSU state,
	// and for identical supplies at different operating points the deltas
	// still must both be positive.
	if r.WallPowerWithAll([]units.Watts{50}) <= before {
		t.Fatal("WallPowerWithAll(+50 on slot 0) must raise the wall draw")
	}
}

// TestRackPerSlotPSUOverride: a ServerSpec.PSU must take precedence over
// the rack-wide default for its slot only.
func TestRackPerSlotPSUOverride(t *testing.T) {
	lossy := power.PSUModel{Eta0: 0.80, Droop: 0.10, Knee: 150}
	good := power.PSUModel{Eta0: 0.96, Droop: 0.02, Knee: 50}
	cfg := server.T3Config()
	specs := []ServerSpec{
		{Config: cfg, PSU: &good},
		{Config: cfg},
	}
	r, err := New(Config{Servers: specs, Workers: 1, PSU: &lossy})
	if err != nil {
		t.Fatal(err)
	}
	r.SetLoad(0, 70)
	r.SetLoad(1, 70)
	for s := 0; s < 60; s++ {
		r.Step(1)
	}
	// Same physics on both servers; only the supply differs.
	if r.ServerWallPower(0) >= r.ServerWallPower(1) {
		t.Fatalf("override slot (eta 0.96, %v) must draw less than default slot (eta 0.80, %v)",
			r.ServerWallPower(0), r.ServerWallPower(1))
	}
}

// TestRackWallDeterministicAcrossWorkers extends the determinism contract
// to the wall side: the serial reference and any worker count must agree
// bitwise on the full telemetry, delivery chain included.
func TestRackWallDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) Telemetry {
		psu, pdu := power.DefaultPSU(), power.DefaultPDU()
		r := chainRack(t, 6, workers, &psu, &pdu)
		for s := 0; s < 180; s++ {
			for i := 0; i < r.NumServers(); i++ {
				r.SetLoad(i, units.Percent((s/20*13+19*i)%101))
			}
			r.Step(1)
		}
		return r.Telemetry()
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d wall telemetry differs:\nserial:   %+v\nparallel: %+v", w, ref, got)
		}
	}
	if ref.WallEnergyKWh <= ref.TotalEnergyKWh || ref.LossEnergyKWh <= 0 {
		t.Fatalf("implausible wall telemetry: %+v", ref)
	}
}

// slotWallRef evaluates slot i's supply directly — the PSU curve at DC
// draw dc, inflated by the slot's droop derate — as the unmemoized
// reference for the psuIn memo.
func slotWallRef(r *Rack, i int, dc float64) float64 {
	st := r.servers[i]
	w := dc
	if st.psu != nil {
		w = float64(st.psu.Wall(units.Watts(dc)))
	}
	if st.psuDerate > 0 {
		w /= 1 - st.psuDerate
	}
	return w
}

// wallWithRef is the unmemoized WallPowerWithAll: every slot's supply
// evaluated directly at its DC draw plus extra, then the PDU.
func wallWithRef(r *Rack, extra []units.Watts) float64 {
	var ac float64
	for j := 0; j < r.NumServers(); j++ {
		dc := float64(r.ServerDCPower(j))
		if j < len(extra) {
			dc += float64(extra[j])
		}
		ac += slotWallRef(r, j, dc)
	}
	return r.pduIn(ac)
}

// checkWallQueries compares ServerWallPower and WallPowerWithAll against
// unmemoized evaluations at the same DC draws.
func checkWallQueries(t *testing.T, when string, r *Rack) {
	t.Helper()
	n := r.NumServers()
	for i := 0; i < n; i++ {
		if got, want := float64(r.ServerWallPower(i)), slotWallRef(r, i, float64(r.ServerDCPower(i))); got != want {
			t.Fatalf("%s: ServerWallPower(%d) = %v, unmemoized %v", when, i, got, want)
		}
		for _, x := range []units.Watts{50, 0} {
			one := make([]units.Watts, n)
			one[i] = x
			if got, want := float64(r.WallPowerWithAll(one)), wallWithRef(r, one); got != want {
				t.Fatalf("%s: WallPowerWithAll(+%v on %d) = %v, unmemoized %v", when, x, i, got, want)
			}
		}
	}
	extra := make([]units.Watts, n)
	for i := 0; i < n; i += 2 {
		extra[i] = units.Watts(25 * (i + 1))
	}
	if got, want := float64(r.WallPowerWithAll(extra)), wallWithRef(r, extra); got != want {
		t.Fatalf("%s: WallPowerWithAll = %v, unmemoized %v", when, got, want)
	}
}

// TestWallQueriesMatchUnmemoizedCurve pins the per-slot PSU memo: every
// wall query equals a direct evaluation of the delivery chain,
// including right after a droop edge (same DC draw, new derate) and after
// a Restore into a fresh rack whose memo holds its construction draws.
func TestWallQueriesMatchUnmemoizedCurve(t *testing.T) {
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	r := chainRack(t, 4, 1, &psu, &pdu)
	for s := 0; s < 30; s++ {
		r.Step(1)
	}
	checkWallQueries(t, "steady", r)
	droop := fault.Event{Kind: fault.PSUDroop, Server: 1, At: 30, Clear: 60, Severity: 0.2}
	if err := r.ApplyFault(droop); err != nil {
		t.Fatal(err)
	}
	checkWallQueries(t, "droop applied", r)
	for s := 0; s < 10; s++ {
		r.Step(1)
	}
	checkWallQueries(t, "droop active", r)
	if err := r.ClearFault(droop); err != nil {
		t.Fatal(err)
	}
	checkWallQueries(t, "droop cleared", r)
	r.SetLoad(2, 20)
	r.Step(1)
	checkWallQueries(t, "after clear", r)

	if err := r.ApplyFault(droop); err != nil {
		t.Fatal(err)
	}
	r.Step(1)
	st, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := chainRack(t, 4, 1, &psu, &pdu)
	if err := fresh.Restore(st); err != nil {
		t.Fatal(err)
	}
	checkWallQueries(t, "restored", fresh)
	for i := 0; i < 4; i++ {
		if a, b := fresh.ServerWallPower(i), r.ServerWallPower(i); a != b {
			t.Fatalf("restored slot %d wall %v, original %v", i, a, b)
		}
	}
}
