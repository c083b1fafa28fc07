package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKWhRoundTrip(t *testing.T) {
	f := func(kwh float64) bool {
		if math.IsNaN(kwh) || math.IsInf(kwh, 0) || math.Abs(kwh) > 1e12 {
			return true
		}
		back := Joules(kwh * 3.6e6).KWh()
		return math.Abs(back-kwh) <= 1e-9*math.Max(1, math.Abs(kwh))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKWhKnownValue(t *testing.T) {
	// 1 kWh == 3.6 MJ.
	if got := Joules(3.6e6).KWh(); got != 1.0 {
		t.Fatalf("3.6e6 J = %v kWh, want 1", got)
	}
}

func TestEnergy(t *testing.T) {
	if got := Energy(100, 60); got != 6000 {
		t.Fatalf("100W over 60s = %v, want 6000 J", got)
	}
	if got := Energy(0, 1e6); got != 0 {
		t.Fatalf("0W = %v J, want 0", got)
	}
}

func TestPercentClamp(t *testing.T) {
	cases := []struct {
		in, want Percent
	}{
		{-5, 0}, {0, 0}, {50, 50}, {100, 100}, {150, 100},
	}
	for _, c := range cases {
		if got := c.in.Clamp(); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPercentClampProperty(t *testing.T) {
	f := func(p float64) bool {
		c := Percent(p).Clamp()
		return c >= 0 && c <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFractionRoundTrip(t *testing.T) {
	for _, p := range []Percent{0, 10, 25, 33.3, 50, 99, 100} {
		got := FromFraction(p.Fraction())
		if math.Abs(float64(got-p)) > 1e-9 {
			t.Errorf("FromFraction(Fraction(%v)) = %v", p, got)
		}
	}
}

func TestFractionNaNSafe(t *testing.T) {
	// NaN does not satisfy p < 0 or p > 100, so Clamp passes it through;
	// Fraction then propagates NaN. Document that callers must not feed NaN.
	if f := Percent(50).Fraction(); f != 0.5 {
		t.Fatalf("Fraction(50) = %v, want 0.5", f)
	}
}

func TestClampRPM(t *testing.T) {
	if got := ClampRPM(1000, 1800, 4200); got != 1800 {
		t.Errorf("ClampRPM low = %v", got)
	}
	if got := ClampRPM(9000, 1800, 4200); got != 4200 {
		t.Errorf("ClampRPM high = %v", got)
	}
	if got := ClampRPM(3000, 1800, 4200); got != 3000 {
		t.Errorf("ClampRPM mid = %v", got)
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Celsius(70.125).String(), "70.12°C"},
		{Watts(12.5).String(), "12.50W"},
		{RPM(2400).String(), "2400RPM"},
		{Percent(99.9).String(), "99.9%"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}
