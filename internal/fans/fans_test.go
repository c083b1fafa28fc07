package fans

import (
	"math"
	"testing"
)

func newBank(t *testing.T) *Bank {
	t.Helper()
	b, err := NewBank(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBankValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Pairs = 0
	if _, err := NewBank(bad); err == nil {
		t.Error("zero pairs should error")
	}
	bad = DefaultConfig()
	bad.MinRPM = 0
	if _, err := NewBank(bad); err == nil {
		t.Error("zero MinRPM should error")
	}
	bad = DefaultConfig()
	bad.MaxRPM = bad.MinRPM
	if _, err := NewBank(bad); err == nil {
		t.Error("empty RPM range should error")
	}
}

func TestBankShape(t *testing.T) {
	b := newBank(t)
	if b.NumFans() != 6 {
		t.Fatalf("fan count = %d, want 6 (3 pairs)", b.NumFans())
	}
	lo, hi := b.Range()
	if lo != 1800 || hi != 4200 {
		t.Fatalf("range = [%v, %v]", lo, hi)
	}
}

func TestSetAllClampsAndSlews(t *testing.T) {
	b := newBank(t)
	b.SetAll(99999)
	if b.Target() != 4200 {
		t.Fatalf("target = %v, want clamp to 4200", b.Target())
	}
	b.SetAll(0)
	if b.Target() != 1800 {
		t.Fatalf("target = %v, want clamp to 1800", b.Target())
	}
	// Starting at 3600 going to 1800: at 600 RPM/s it takes 3 s.
	b.Step(1)
	if got := b.MeanRPM(); math.Abs(float64(got)-3000) > 1e-9 {
		t.Fatalf("after 1s: %v, want 3000", got)
	}
	b.Step(1)
	b.Step(1)
	if got := b.MeanRPM(); got != 1800 {
		t.Fatalf("after 3s: %v, want 1800", got)
	}
	// Overshoot must not occur.
	b.Step(10)
	if got := b.MeanRPM(); got != 1800 {
		t.Fatalf("overshoot: %v", got)
	}
}

func TestStepIgnoresNonPositiveDt(t *testing.T) {
	b := newBank(t)
	b.SetAll(1800)
	before := b.MeanRPM()
	b.Step(0)
	b.Step(-1)
	if b.MeanRPM() != before {
		t.Fatal("non-positive dt moved fans")
	}
}

func TestPowerIsCubicInSpeed(t *testing.T) {
	b := newBank(t)
	b.SetAll(1800)
	b.Step(60)
	p1 := float64(b.Power())
	b.SetAll(3600)
	b.Step(60)
	p2 := float64(b.Power())
	if math.Abs(p2/p1-8) > 1e-6 {
		t.Fatalf("bank power ratio %g, want 8 (cubic)", p2/p1)
	}
	// Calibrated magnitude: whole bank at 3300 RPM ≈ 12.6 W.
	b.SetAll(3300)
	b.Step(60)
	if p := float64(b.Power()); math.Abs(p-12.58) > 0.3 {
		t.Fatalf("Pbank(3300) = %g", p)
	}
}

func TestStuckFanIgnoresCommands(t *testing.T) {
	b := newBank(t)
	if err := b.StickFan(0); err != nil {
		t.Fatal(err)
	}
	b.SetAll(1800)
	b.Step(10)
	// Fan 0 stuck at 3600; the other five at 1800.
	if r := b.fans[0].actual; r != 3600 {
		t.Fatalf("stuck fan moved: %v", r)
	}
	want := (3600.0 + 5*1800.0) / 6
	if got := float64(b.MeanRPM()); math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean with stuck fan = %g, want %g", got, want)
	}
	// Target reports a healthy fan's command.
	if b.Target() != 1800 {
		t.Fatalf("Target = %v, want healthy fan's 1800", b.Target())
	}
	if err := b.UnstickFan(0); err != nil {
		t.Fatal(err)
	}
	b.SetAll(1800)
	b.Step(10)
	if b.MeanRPM() != 1800 {
		t.Fatal("unstuck fan did not recover")
	}
	if err := b.StickFan(-1); err == nil {
		t.Error("bad index should error")
	}
	if err := b.UnstickFan(99); err == nil {
		t.Error("bad index should error")
	}
}

func TestFailedFanStopsAndDrawsNothing(t *testing.T) {
	b := newBank(t)
	b.SetAll(3000)
	b.Step(10)
	healthy := float64(b.Power())
	if err := b.FailFan(0); err != nil {
		t.Fatal(err)
	}
	// A failed fan moves no air and draws no power, immediately.
	if r := b.fans[0].actual; r != 0 {
		t.Fatalf("failed fan still spinning at %v", r)
	}
	want := 5 * 3000.0 / 6
	if got := float64(b.MeanRPM()); math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean with failed fan = %g, want %g", got, want)
	}
	if got := float64(b.Power()); got >= healthy {
		t.Fatalf("power %g did not drop below healthy %g", got, healthy)
	}
	// Commands are ignored while failed.
	b.SetAll(4200)
	b.Step(10)
	if r := b.fans[0].actual; r != 0 {
		t.Fatalf("failed fan obeyed a command: %v", r)
	}
	// UnstickFan lets it slew back to its last pre-fault command (commands
	// while failed were dropped, target included).
	if err := b.UnstickFan(0); err != nil {
		t.Fatal(err)
	}
	b.Step(10)
	if r := b.fans[0].actual; r != 3000 {
		t.Fatalf("recovered fan at %v, want pre-fault 3000", r)
	}
	if err := b.FailFan(6); err == nil {
		t.Error("bad index should error")
	}
}

func TestSpindownAndRecovery(t *testing.T) {
	b := newBank(t)
	b.SetAll(3600)
	b.Step(10)
	b.Spindown()
	if b.MeanRPM() != 0 || b.Power() != 0 {
		t.Fatalf("after spindown mean=%v power=%v, want both 0", b.MeanRPM(), b.Power())
	}
	if b.Settled() {
		t.Fatal("spun-down bank must not report settled")
	}
	// The targets were never cleared: stepping slews every fan back.
	b.Step(10)
	if b.MeanRPM() != 3600 {
		t.Fatalf("recovery mean = %v, want 3600", b.MeanRPM())
	}
	if !b.Settled() {
		t.Fatal("recovered bank should settle")
	}
}
