package sched

import (
	"testing"

	"repro/internal/cooling"
	"repro/internal/lut"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/units"
)

// pueViews returns two feasible views with distinct PSU operating points.
func pueViews(psu power.PSUModel) []ServerView {
	return []ServerView{
		{Index: 0, Load: 20, Free: 80, DCPower: 420, WallPower: psu.Wall(420)},
		{Index: 1, Load: 20, Free: 80, DCPower: 680, WallPower: psu.Wall(680)},
	}
}

// TestPUEAwareMatchesCapAwareRankingAtFixedTables: the facility
// amplification is monotone and common to every candidate, so over the
// SAME tables pue-aware must reproduce cap-aware's placements exactly —
// what moves its decisions in practice is table recalibration, which
// NewPUEAware performs and this test's fixture deliberately does not.
func TestPUEAwareMatchesCapAwareRankingAtFixedTables(t *testing.T) {
	psu := power.DefaultPSU()
	model := server.T3Config().Power
	tables := []*lut.Table{flatTable(20, 30, 45), flatTable(20, 30, 45)}
	models := []power.ServerModel{model, model}
	psus := []*power.PSUModel{&psu, &psu}

	ca, err := NewCapAwareFromTables(tables, models, psus)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := NewPUEAwareFromTables(tables, models, psus, cooling.DefaultFacility(22))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []units.Percent{10, 30, 60} {
		v := pueViews(psu)
		if got, want := pa.Place(Job{Demand: d}, v), ca.Place(Job{Demand: d}, v); got != want {
			t.Fatalf("demand %v: pue-aware placed %d, cap-aware %d (same tables must agree)", d, got, want)
		}
	}
}

// TestPUEAwareMarginalIncludesCooling: the predicted marginal facility
// power must exceed the marginal wall power by exactly the facility's
// cooling response at the rack's operating point.
func TestPUEAwareMarginalIncludesCooling(t *testing.T) {
	psu := power.DefaultPSU()
	model := server.T3Config().Power
	tables := []*lut.Table{flatTable(20, 30, 45)}
	fac := cooling.DefaultFacility(22)
	pa, err := NewPUEAwareFromTables(tables, []power.ServerModel{model}, []*power.PSUModel{&psu}, fac)
	if err != nil {
		t.Fatal(err)
	}
	v := ServerView{Index: 0, Load: 20, Free: 80, DCPower: 420, WallPower: psu.Wall(420)}
	const rackWall = 3000.0
	mw, err := pa.inner.marginalWall(v, 30)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := pa.marginalFacility(v, 30, rackWall)
	if err != nil {
		t.Fatal(err)
	}
	wantCool := fac.CoolingPower(rackWall+float64(mw)) - fac.CoolingPower(rackWall)
	if float64(mf-mw) != wantCool {
		t.Fatalf("marginal facility %v − wall %v = %v, want cooling response %g", mf, mw, mf-mw, wantCool)
	}
	if mf <= mw {
		t.Fatalf("facility marginal %v must exceed wall marginal %v", mf, mw)
	}
}

// TestNewPUEAwareValidation covers the error paths.
func TestNewPUEAwareValidation(t *testing.T) {
	bad := cooling.DefaultFacility(20)
	bad.Chiller.COP0 = 0
	if _, err := NewPUEAwareFromTables(nil, nil, nil, bad); err == nil {
		t.Fatal("invalid facility must be rejected")
	}
	if _, err := NewPUEAwareFromTables(nil, nil, nil, cooling.DefaultFacility(20)); err == nil {
		t.Fatal("empty tables must be rejected")
	}
}
