package server

import (
	"testing"

	"repro/internal/units"
)

// tripServer drives a server into thermal trip: hot aisle, full load,
// minimum fan speed.
func tripServer(t *testing.T) *Server {
	t.Helper()
	cfg := T3Config()
	cfg.Ambient = 45
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLoad(100)
	s.Fans().SetAll(1800)
	for i := 0; i < 2400 && !s.Tripped(); i++ {
		s.Step(5)
	}
	if !s.Tripped() {
		t.Fatalf("expected thermal trip; temp reached %v", s.MaxCPUTemp())
	}
	return s
}

// TestTripLatchesUntilReset is the regression test for the latching
// semantics documented in doc.go: once tripped, the flag stays set through
// arbitrarily long cool-down — dropping the load and running the fans flat
// out until the dies are far below the critical threshold must NOT clear
// it. Only the explicit operator reset does.
func TestTripLatchesUntilReset(t *testing.T) {
	s := tripServer(t)
	s.SetLoad(0)
	for i := 0; i < 1200; i++ {
		s.Step(5)
		if !s.Tripped() {
			t.Fatalf("trip self-cleared after %d cool-down steps at %v", i+1, s.MaxCPUTemp())
		}
	}
	if s.MaxCPUTemp() >= s.Config().CriticalTemp {
		t.Fatalf("cool-down failed (%v): latch test is vacuous", s.MaxCPUTemp())
	}
	s.ResetTrip()
	if s.Tripped() {
		t.Fatal("ResetTrip did not clear the latch")
	}
	// A reset server below threshold must stay untripped when stepped.
	s.Step(5)
	if s.Tripped() {
		t.Fatal("reset server re-tripped below the critical threshold")
	}
}

func TestForceTripMatchesThermalTrip(t *testing.T) {
	s := newServer(t)
	s.ForceTrip()
	if !s.Tripped() {
		t.Fatal("ForceTrip did not latch")
	}
	_, hi := s.Fans().Range()
	if s.Fans().Target() != hi {
		t.Fatalf("forced trip should command max cooling %v, got %v", hi, s.Fans().Target())
	}
	s.ResetTrip()
	if s.Tripped() {
		t.Fatal("ResetTrip did not clear a forced trip")
	}
}

func TestSetPoweredDarkServer(t *testing.T) {
	s := newServer(t)
	s.SetLoad(80)
	for i := 0; i < 600; i++ {
		s.Step(1)
	}
	hotTemp := float64(s.MaxCPUTemp())
	s.SetPowered(false)
	if s.Powered() {
		t.Fatal("Powered() after SetPowered(false)")
	}
	// Dark immediately: no draw, no heat, fans stopped, inlet at ambient.
	// (Breakdown is the true draw; the Measured* channels carry sensor
	// noise even at zero.)
	if p := s.Breakdown().Total(); p != 0 {
		t.Fatalf("dark server draws %v", p)
	}
	if s.Fans().MeanRPM() != 0 {
		t.Fatalf("dark server fans at %v", s.Fans().MeanRPM())
	}
	if s.InletTemp() != s.Config().Ambient {
		t.Fatalf("dark inlet %v, want ambient %v", s.InletTemp(), s.Config().Ambient)
	}
	// The dies relax toward ambient with no heat input. With the fans
	// stopped the sink-to-air resistance is at its stagnant maximum, so the
	// time constant is hours: assert substantial monotone cooling over a
	// five-hour window, not arrival at ambient.
	for i := 0; i < 3600; i++ {
		s.Step(5)
	}
	cold := float64(s.MaxCPUTemp())
	amb := float64(s.Config().Ambient)
	if cold >= hotTemp-5 {
		t.Fatalf("dark dies barely cooled: %.1f -> %.1f", hotTemp, cold)
	}
	for i := 0; i < 3600; i++ {
		s.Step(5)
	}
	colder := float64(s.MaxCPUTemp())
	if colder >= cold || colder < amb-0.1 {
		t.Fatalf("dark cool-down not monotone toward ambient %.1f: %.1f -> %.1f", amb, cold, colder)
	}
	if s.Tripped() {
		t.Fatal("a dark server must not trip")
	}
	// Energy must not accumulate while dark.
	e0 := s.Energy()
	s.Step(60)
	if s.Energy() != e0 {
		t.Fatalf("dark server accumulated energy: %v -> %v", e0, s.Energy())
	}
	// Restore: the machine rejoins from its cooled state and warms back up.
	s.SetPowered(true)
	s.SetLoad(80)
	for i := 0; i < 600; i++ {
		s.Step(1)
	}
	if got := float64(s.MaxCPUTemp()); got < colder+3 {
		t.Fatalf("restored server did not heat back up: %.1f", got)
	}
	if s.Breakdown().Total() <= 0 {
		t.Fatal("restored server draws nothing")
	}
}

func TestSetAmbientOffset(t *testing.T) {
	s := newServer(t)
	base := s.Config().Ambient
	s.SetAmbientOffset(8)
	if got := s.AmbientOffset(); got != 8 {
		t.Fatalf("offset = %v, want 8", got)
	}
	if s.Config().Ambient != base+8 {
		t.Fatalf("ambient = %v, want %v", s.Config().Ambient, base+8)
	}
	// Offsets replace, not stack: a second call is absolute.
	s.SetAmbientOffset(3)
	if s.Config().Ambient != base+3 {
		t.Fatalf("ambient = %v, want %v after re-offset", s.Config().Ambient, base+3)
	}
	s.SetAmbientOffset(0)
	if s.Config().Ambient != base {
		t.Fatalf("ambient = %v, want restored %v", s.Config().Ambient, base)
	}
	// The shift must actually move the thermal steady state.
	s.SetLoad(50)
	for i := 0; i < 900; i++ {
		s.Step(1)
	}
	ref := float64(s.MaxCPUTemp())
	s.SetAmbientOffset(units.Celsius(8))
	for i := 0; i < 900; i++ {
		s.Step(1)
	}
	if got := float64(s.MaxCPUTemp()); got < ref+4 {
		t.Fatalf("hotter aisle raised dies only %.1f -> %.1f", ref, got)
	}
}
