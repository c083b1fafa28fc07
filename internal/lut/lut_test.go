package lut

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/units"
)

func buildDefault(t *testing.T) *Table {
	t.Helper()
	table, err := Build(server.T3Config(), DefaultBuild())
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(server.T3Config(), BuildConfig{}); err == nil {
		t.Fatal("empty build config should error")
	}
}

func TestBuildPaperShape(t *testing.T) {
	table := buildDefault(t)
	if len(table.Entries) != 9 {
		t.Fatalf("entries = %d", len(table.Entries))
	}
	// The paper's headline: at 100% utilization the optimum is 2400 RPM
	// with a steady temperature below ~70 °C.
	top := table.Entries[len(table.Entries)-1]
	if top.Util != 100 {
		t.Fatalf("last entry util = %v", top.Util)
	}
	if top.RPM != 2400 {
		t.Fatalf("optimal RPM at 100%% = %v, want 2400 (Fig. 2a)", top.RPM)
	}
	// Low utilization optimum is the lowest fan speed.
	if table.Entries[0].RPM != 1800 {
		t.Fatalf("optimal RPM at 0%% = %v, want 1800", table.Entries[0].RPM)
	}
	// "for all the optimum points, average temperature is never higher
	// than 70°C" — allow a small margin for calibration differences.
	if m := table.MaxPredictedTemp(); m > 72 {
		t.Fatalf("max predicted steady temp = %v, paper says ≤70°C", m)
	}
}

func TestBuildMonotoneRPM(t *testing.T) {
	// Optimal fan speed must not decrease as utilization rises.
	table := buildDefault(t)
	for i := 1; i < len(table.Entries); i++ {
		if table.Entries[i].RPM < table.Entries[i-1].RPM {
			t.Fatalf("RPM drops from %v to %v between U=%v and U=%v",
				table.Entries[i-1].RPM, table.Entries[i].RPM,
				table.Entries[i-1].Util, table.Entries[i].Util)
		}
	}
}

func TestTempCapBinds(t *testing.T) {
	cfg := server.T3Config()
	// Without the cap, a pure energy minimum may sit at a hotter point;
	// with a tight 60 °C cap every entry must respect it.
	b := DefaultBuild()
	b.MaxTemp = 60
	table, err := Build(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range table.Entries {
		if e.PredictedTemp > 60 {
			t.Fatalf("entry U=%v temp %v violates 60°C cap", e.Util, e.PredictedTemp)
		}
	}
	// The tight cap forces faster fans at high load than the default cap.
	loose := buildDefault(t)
	tightTop, _ := table.Lookup(100)
	looseTop, _ := loose.Lookup(100)
	if tightTop <= looseTop {
		t.Fatalf("tight cap RPM %v should exceed loose cap %v", tightTop, looseTop)
	}
}

func TestUncappedBuild(t *testing.T) {
	b := DefaultBuild()
	b.MaxTemp = 0 // disabled
	table, err := Build(server.T3Config(), b)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Entries) != 9 {
		t.Fatalf("entries = %d", len(table.Entries))
	}
	// Energy-only optimum at 100% is still 2400 (the convexity of Fig 2a).
	r, _ := table.Lookup(100)
	if r != 2400 {
		t.Fatalf("uncapped optimum at 100%% = %v", r)
	}
}

func TestLookupRoundsUp(t *testing.T) {
	table := buildDefault(t)
	// 65% is between the 60 and 75 grid points: lookup must use 75's entry.
	want, err := table.Lookup(75)
	if err != nil {
		t.Fatal(err)
	}
	got, err := table.Lookup(65)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Lookup(65) = %v, want the 75%% entry %v", got, want)
	}
	// Exact grid points return their own entry.
	e, err := table.EntryFor(50)
	if err != nil {
		t.Fatal(err)
	}
	if e.Util != 50 {
		t.Fatalf("EntryFor(50).Util = %v", e.Util)
	}
	// Clamping out-of-range inputs.
	hi, _ := table.Lookup(150)
	top, _ := table.Lookup(100)
	if hi != top {
		t.Fatalf("Lookup(150) = %v", hi)
	}
	lo, _ := table.Lookup(-5)
	bottom, _ := table.Lookup(0)
	if lo != bottom {
		t.Fatalf("Lookup(-5) = %v", lo)
	}
}

func TestEmptyTableLookup(t *testing.T) {
	empty := &Table{}
	if _, err := empty.Lookup(50); err == nil {
		t.Error("empty lookup should error")
	}
	if _, err := empty.EntryFor(50); err == nil {
		t.Error("empty EntryFor should error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	table := buildDefault(t)
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != len(table.Entries) {
		t.Fatalf("round trip lost entries: %d vs %d", len(back.Entries), len(table.Entries))
	}
	for i := range back.Entries {
		if back.Entries[i] != table.Entries[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, back.Entries[i], table.Entries[i])
		}
	}
}

func TestReadJSONValidation(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage should error")
	}
	if _, err := ReadJSON(strings.NewReader(`{"entries":[]}`)); err == nil {
		t.Error("empty entries should error")
	}
	bad := `{"entries":[{"util_pct":50,"rpm":1800},{"util_pct":10,"rpm":1800}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Error("unsorted entries should error")
	}
}

func TestStringRendering(t *testing.T) {
	table := buildDefault(t)
	s := table.String()
	if !strings.Contains(s, "2400") || !strings.Contains(s, "util%") {
		t.Fatalf("table string missing content:\n%s", s)
	}
}

func TestFittedModelProducesSameTable(t *testing.T) {
	// The controller uses a *fitted* model; with a fit as good as the
	// paper's, the LUT must be identical to the ground-truth one.
	cfg := server.T3Config()
	truth, err := Build(cfg, DefaultBuild())
	if err != nil {
		t.Fatal(err)
	}
	fitted := cfg
	// Perturb the model slightly, as a 2 W RMSE fit would.
	fitted.Power.Active.K1 = 0.4460
	fitted.Power.Leakage.C = 10.3
	fitted.Power.Leakage.K2 = 0.315
	fitted.Power.Leakage.K3 = 0.0477
	approx, err := Build(fitted, DefaultBuild())
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth.Entries {
		if truth.Entries[i].RPM != approx.Entries[i].RPM {
			t.Fatalf("fitted-model LUT diverges at U=%v: %v vs %v",
				truth.Entries[i].Util, approx.Entries[i].RPM, truth.Entries[i].RPM)
		}
	}
}

// MaxPredictedTemp returns the hottest steady temperature any entry accepts.
func (t *Table) MaxPredictedTemp() units.Celsius {
	m := units.Celsius(0)
	for _, e := range t.Entries {
		if e.PredictedTemp > m {
			m = e.PredictedTemp
		}
	}
	return m
}
