package mem

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/units"
)

func newBank(t *testing.T) *Bank {
	t.Helper()
	b, err := NewBank(DefaultConfig(), 24)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBankValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.NumDIMMs = 0
	if _, err := NewBank(bad, 24); err == nil {
		t.Error("zero DIMMs should error")
	}
	bad = DefaultConfig()
	bad.TimeConstant = 0
	if _, err := NewBank(bad, 24); err == nil {
		t.Error("zero time constant should error")
	}
	bad = DefaultConfig()
	bad.AirflowPerRPM = 0
	if _, err := NewBank(bad, 24); err == nil {
		t.Error("zero airflow should error")
	}
}

func TestBankStartsAtAmbient(t *testing.T) {
	b := newBank(t)
	if b.NumDIMMs() != 32 {
		t.Fatalf("DIMMs = %d", b.NumDIMMs())
	}
	for i := 0; i < 32; i++ {
		temp, err := b.Temp(i)
		if err != nil {
			t.Fatal(err)
		}
		if temp != 24 {
			t.Fatalf("DIMM %d starts at %v", i, temp)
		}
	}
	if _, err := b.Temp(-1); err == nil {
		t.Error("negative index should error")
	}
	if _, err := b.Temp(32); err == nil {
		t.Error("out-of-range index should error")
	}
}

func TestPowerModel(t *testing.T) {
	b := newBank(t)
	if got := float64(b.Power(0)); got != 40 {
		t.Fatalf("idle power = %g", got)
	}
	if got := float64(b.Power(100)); math.Abs(got-126) > 1e-9 {
		t.Fatalf("full power = %g, want 126", got)
	}
}

func TestInletPreheat(t *testing.T) {
	b := newBank(t)
	// More load → more preheat; more airflow → less preheat.
	low := float64(b.InletPreheat(0, 3300))
	high := float64(b.InletPreheat(100, 3300))
	if high <= low {
		t.Fatalf("preheat should rise with load: %g vs %g", low, high)
	}
	slowFan := float64(b.InletPreheat(100, 1800))
	fastFan := float64(b.InletPreheat(100, 4200))
	if slowFan <= fastFan {
		t.Fatalf("preheat should fall with airflow: %g vs %g", slowFan, fastFan)
	}
	// Calibrated magnitude: ~1.3°C at 100% and 3300 RPM.
	if got := float64(b.InletPreheat(100, 3300)); got < 0.8 || got > 2.0 {
		t.Fatalf("preheat(100%%, 3300) = %g, want ~1.3", got)
	}
	// Zero airflow is capped, not infinite.
	if got := float64(b.InletPreheat(100, 0)); got > 15 {
		t.Fatalf("zero-airflow preheat = %g", got)
	}
}

func TestStepConvergesToSettle(t *testing.T) {
	b := newBank(t)
	want := newBank(t)
	want.Settle(24, 80, 2400)
	for i := 0; i < 100; i++ {
		b.Step(10, 24, 80, 2400)
	}
	for i := 0; i < 32; i++ {
		got, _ := b.Temp(i)
		expect, _ := want.Temp(i)
		if math.Abs(float64(got-expect)) > 0.05 {
			t.Fatalf("DIMM %d: %v vs settled %v", i, got, expect)
		}
	}
}

func TestDownstreamDIMMsHotter(t *testing.T) {
	b := newBank(t)
	b.Settle(24, 100, 2400)
	first, _ := b.Temp(0)
	last, _ := b.Temp(31)
	if last <= first {
		t.Fatalf("downstream DIMM %v should be hotter than upstream %v", last, first)
	}
	if b.MaxTemp() != last {
		t.Fatalf("MaxTemp %v != last DIMM %v", b.MaxTemp(), last)
	}
}

func TestDIMMTempsReasonable(t *testing.T) {
	b := newBank(t)
	b.Settle(24, 100, 3300)
	for i, temp := range b.Temps() {
		if temp < 24 || temp > 70 {
			t.Fatalf("DIMM %d settled at %v — outside plausible range", i, temp)
		}
	}
}

func TestStepLagBehaviour(t *testing.T) {
	b := newBank(t)
	// One time constant: ~63% of the way to equilibrium.
	eq := newBank(t)
	eq.Settle(24, 100, 1800)
	target, _ := eq.Temp(0)
	b.Step(60, 24, 100, 1800) // τ = 60 s
	got, _ := b.Temp(0)
	frac := float64(got-24) / float64(target-24)
	if math.Abs(frac-0.632) > 0.01 {
		t.Fatalf("one-τ fraction = %g, want ~0.632", frac)
	}
	// Non-positive dt is a no-op.
	before, _ := b.Temp(0)
	b.Step(0, 24, 100, 1800)
	b.Step(-3, 24, 100, 1800)
	after, _ := b.Temp(0)
	if before != after {
		t.Fatal("non-positive dt changed state")
	}
}

func TestTempsCopyIsolation(t *testing.T) {
	b := newBank(t)
	ts := b.Temps()
	ts[0] = 999
	got, _ := b.Temp(0)
	if got == 999 {
		t.Fatal("Temps() must return a copy")
	}
}

// TestRollupsMatchScan drives banks through random sequences of every
// writer of the DIMM temperatures — Step, StepN (n = 1 and n > 1), Settle
// and SetState, the last also with NaN and ±Inf entries — and checks the
// cached MaxTemp and TempSum against a brute-force scan, bit for bit: the
// max skips NaN, and NaN poisons the sum.
func TestRollupsMatchScan(t *testing.T) {
	scan := func(b *Bank) (maxT, sum float64) {
		maxT = math.Inf(-1)
		for _, v := range b.Temps() {
			if float64(v) > maxT {
				maxT = float64(v)
			}
			sum += float64(v)
		}
		return maxT, sum
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, n := range []int{1, 7, 32} {
		cfg := DefaultConfig()
		cfg.NumDIMMs = n
		b, err := NewBank(cfg, 22)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		for op := 0; op < 400; op++ {
			amb := units.Celsius(15 + 15*rng.Float64())
			u := units.Percent(100 * rng.Float64())
			r := units.RPM(800 + 4000*rng.Float64())
			var what string
			switch rng.Intn(5) {
			case 0:
				what = "Step"
				b.Step(0.5+2*rng.Float64(), amb, u, r)
			case 1:
				what = "StepN(1)"
				b.StepN(1, 1, amb, u, r)
			case 2:
				what = "StepN"
				b.StepN(1, 2+rng.Intn(500), amb, u, r)
			case 3:
				what = "Settle"
				b.Settle(amb, u, r)
			default:
				what = "SetState"
				st := b.State()
				for i := range st.Temps {
					st.Temps[i] = 20 + 60*rng.Float64()
				}
				if rng.Intn(2) == 0 {
					for k := rng.Intn(3); k >= 0; k-- {
						st.Temps[rng.Intn(n)] = specials[rng.Intn(len(specials))]
					}
				}
				if err := b.SetState(st); err != nil {
					t.Fatal(err)
				}
			}
			wantMax, wantSum := scan(b)
			if got := float64(b.MaxTemp()); !same(got, wantMax) {
				t.Fatalf("n=%d op %d (%s): MaxTemp %v, scan %v", n, op, what, got, wantMax)
			}
			if got := b.TempSum(); !same(got, wantSum) {
				t.Fatalf("n=%d op %d (%s): TempSum %v, scan %v", n, op, what, got, wantSum)
			}
		}
	}
}

// Temps returns a copy of all DIMM temperatures.
func (b *Bank) Temps() []units.Celsius {
	out := make([]units.Celsius, len(b.temps))
	for i, v := range b.temps {
		out[i] = units.Celsius(v)
	}
	return out
}
