package control

import (
	"testing"

	"repro/internal/lut"
	"repro/internal/server"
	"repro/internal/units"
)

func testTable(t *testing.T) *lut.Table {
	t.Helper()
	table, err := lut.Build(server.T3Config(), lut.DefaultBuild())
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func TestDefaultController(t *testing.T) {
	d := NewDefault()
	if d.Name() != "Default" {
		t.Fatal("name")
	}
	dec := d.Tick(Observation{Now: 0, CurrentRPM: 3600})
	if !dec.Changed || dec.Target != 3300 {
		t.Fatalf("first tick = %+v, want change to 3300", dec)
	}
	// After the initial command it never changes again.
	for now := 1.0; now < 100; now++ {
		dec = d.Tick(Observation{Now: now, CurrentRPM: 3300, Utilization: 100, MaxCPUTemp: 99})
		if dec.Changed {
			t.Fatalf("default changed at %g", now)
		}
	}
	// Already at 3300: no change even on the first tick.
	d.Reset()
	dec = d.Tick(Observation{Now: 0, CurrentRPM: 3300})
	if dec.Changed {
		t.Fatal("no-op first tick should not count as change")
	}
}

func TestBangBangValidation(t *testing.T) {
	good := DefaultBangBang()
	if _, err := NewBangBang(good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Period = 0
	if _, err := NewBangBang(bad); err == nil {
		t.Error("zero period should fail")
	}
	bad = good
	bad.TLow = 80 // violates ordering
	if _, err := NewBangBang(bad); err == nil {
		t.Error("unordered thresholds should fail")
	}
	bad = good
	bad.StepRPM = 0
	if _, err := NewBangBang(bad); err == nil {
		t.Error("zero step should fail")
	}
	bad = good
	bad.MaxRPM = bad.MinRPM
	if _, err := NewBangBang(bad); err == nil {
		t.Error("empty RPM range should fail")
	}
}

func TestBangBangFiveActions(t *testing.T) {
	b, err := NewBangBang(DefaultBangBang())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		temp    units.Celsius
		cur     units.RPM
		want    units.RPM
		changed bool
	}{
		{55, 3000, 1800, true},  // below 60 → minimum
		{62, 3000, 2400, true},  // 60-65 → -600
		{70, 3000, 3000, false}, // dead band
		{77, 3000, 3600, true},  // above 75 → +600
		{85, 3000, 4200, true},  // above 80 → maximum
	}
	for i, c := range cases {
		b.Reset()
		dec := b.Tick(Observation{Now: 0, MaxCPUTemp: c.temp, CurrentRPM: c.cur})
		if dec.Target != c.want || dec.Changed != c.changed {
			t.Errorf("case %d (T=%v): %+v, want target %v changed %v", i, c.temp, dec, c.want, c.changed)
		}
	}
}

func TestBangBangClamps(t *testing.T) {
	b, _ := NewBangBang(DefaultBangBang())
	// Step down from the floor stays at the floor.
	dec := b.Tick(Observation{Now: 0, MaxCPUTemp: 62, CurrentRPM: 1800})
	if dec.Target != 1800 || dec.Changed {
		t.Fatalf("floor clamp: %+v", dec)
	}
	b.Reset()
	// Step up from the ceiling stays at the ceiling.
	dec = b.Tick(Observation{Now: 0, MaxCPUTemp: 77, CurrentRPM: 4200})
	if dec.Target != 4200 || dec.Changed {
		t.Fatalf("ceiling clamp: %+v", dec)
	}
}

func TestBangBangPeriod(t *testing.T) {
	b, _ := NewBangBang(DefaultBangBang())
	dec := b.Tick(Observation{Now: 0, MaxCPUTemp: 77, CurrentRPM: 3000})
	if !dec.Changed {
		t.Fatal("first decision should act")
	}
	// Within the 10 s period: no decisions, no matter the temperature.
	for now := 1.0; now < 10; now++ {
		dec = b.Tick(Observation{Now: now, MaxCPUTemp: 85, CurrentRPM: 3600})
		if dec.Changed {
			t.Fatalf("acted within the period at %g", now)
		}
	}
	dec = b.Tick(Observation{Now: 10, MaxCPUTemp: 85, CurrentRPM: 3600})
	if !dec.Changed || dec.Target != 4200 {
		t.Fatalf("after period: %+v", dec)
	}
}

func TestLUTValidation(t *testing.T) {
	table := testTable(t)
	if _, err := NewLUT(nil, DefaultLUT()); err == nil {
		t.Error("nil table should fail")
	}
	if _, err := NewLUT(&lut.Table{}, DefaultLUT()); err == nil {
		t.Error("empty table should fail")
	}
	bad := DefaultLUT()
	bad.PollPeriod = 0
	if _, err := NewLUT(table, bad); err == nil {
		t.Error("zero poll period should fail")
	}
	bad = DefaultLUT()
	bad.HoldOff = -1
	if _, err := NewLUT(table, bad); err == nil {
		t.Error("negative hold-off should fail")
	}
	bad = DefaultLUT()
	bad.Hysteresis = -1
	if _, err := NewLUT(table, bad); err == nil {
		t.Error("negative hysteresis should fail")
	}
}

func TestLUTProactiveResponse(t *testing.T) {
	table := testTable(t)
	l, err := NewLUT(table, DefaultLUT())
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "LUT" || l.table != table {
		t.Fatal("accessors")
	}
	// Idle: choose the 0% entry (1800).
	dec := l.Tick(Observation{Now: 0, Utilization: 0, CurrentRPM: 3600})
	if !dec.Changed || dec.Target != 1800 {
		t.Fatalf("idle decision = %+v", dec)
	}
}

func TestLUTHoldOff(t *testing.T) {
	table := testTable(t)
	l, _ := NewLUT(table, DefaultLUT())
	dec := l.Tick(Observation{Now: 0, Utilization: 0, CurrentRPM: 3600})
	if !dec.Changed {
		t.Fatal("first change expected")
	}
	// A utilization spike 5 s later is seen but must NOT trigger a change
	// within the 60 s hold-off.
	for now := 1.0; now < 60; now++ {
		dec = l.Tick(Observation{Now: now, Utilization: 100, CurrentRPM: 1800})
		if dec.Changed {
			t.Fatalf("changed during hold-off at %g", now)
		}
	}
	// At 60 s the hold-off expires and the controller reacts to the spike.
	dec = l.Tick(Observation{Now: 60, Utilization: 100, CurrentRPM: 1800})
	if !dec.Changed || dec.Target != 2400 {
		t.Fatalf("post-hold-off decision = %+v, want 2400", dec)
	}
}

func TestLUTNoChangeNoHoldOff(t *testing.T) {
	// Decisions that do not change the speed must not arm the hold-off.
	table := testTable(t)
	l, _ := NewLUT(table, DefaultLUT())
	dec := l.Tick(Observation{Now: 0, Utilization: 0, CurrentRPM: 1800})
	if dec.Changed {
		t.Fatal("no-op tick counted as change")
	}
	dec = l.Tick(Observation{Now: 1, Utilization: 100, CurrentRPM: 1800})
	if !dec.Changed || dec.Target != 2400 {
		t.Fatalf("reaction after no-op = %+v", dec)
	}
}

func TestLUTPollPeriod(t *testing.T) {
	table := testTable(t)
	cfg := DefaultLUT()
	cfg.PollPeriod = 5
	l, _ := NewLUT(table, cfg)
	l.Tick(Observation{Now: 0, Utilization: 0, CurrentRPM: 1800})
	// Between polls nothing happens.
	dec := l.Tick(Observation{Now: 2, Utilization: 100, CurrentRPM: 1800})
	if dec.Changed {
		t.Fatal("acted between polls")
	}
	dec = l.Tick(Observation{Now: 5, Utilization: 100, CurrentRPM: 1800})
	if !dec.Changed {
		t.Fatal("did not act on poll boundary")
	}
}

func TestLUTHysteresis(t *testing.T) {
	table := testTable(t)
	cfg := DefaultLUT()
	cfg.HoldOff = 0
	cfg.Hysteresis = 15
	l, _ := NewLUT(table, cfg)
	dec := l.Tick(Observation{Now: 0, Utilization: 50, CurrentRPM: 3600})
	if !dec.Changed {
		t.Fatal("first change expected")
	}
	cur := dec.Target
	// 10 points of movement < 15 hysteresis: ignored.
	dec = l.Tick(Observation{Now: 1, Utilization: 60, CurrentRPM: cur})
	if dec.Changed {
		t.Fatal("changed within hysteresis band")
	}
	// 45 points of movement: acted on.
	dec = l.Tick(Observation{Now: 2, Utilization: 95, CurrentRPM: cur})
	if !dec.Changed {
		t.Fatal("did not react outside hysteresis band")
	}
}

func TestLUTReset(t *testing.T) {
	table := testTable(t)
	l, _ := NewLUT(table, DefaultLUT())
	l.Tick(Observation{Now: 0, Utilization: 0, CurrentRPM: 3600})
	l.Reset()
	// After reset the controller acts immediately again.
	dec := l.Tick(Observation{Now: 100, Utilization: 100, CurrentRPM: 1800})
	if !dec.Changed {
		t.Fatal("reset did not clear hold-off")
	}
}

// TestDefaultBangBangSectionVGolden pins the paper's Section V reactive
// policy verbatim: these numbers are the published experiment's contract —
// the quiet-band promise ([TLow, THigh] on a 10 s cadence) and every
// threshold-crossing test above are calibrated against them, so a drift
// here silently re-tunes the whole evaluation.
func TestDefaultBangBangSectionVGolden(t *testing.T) {
	got := DefaultBangBang()
	want := BangBangConfig{
		Period:    10,
		TLowFloor: 60,
		TLow:      65,
		THigh:     75,
		TPanic:    80,
		StepRPM:   600,
		MinRPM:    1800,
		MaxRPM:    4200,
	}
	if got != want {
		t.Fatalf("DefaultBangBang drifted from Section V:\ngot  %+v\nwant %+v", got, want)
	}
}
