package server

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestAttachTelemetryChannelList(t *testing.T) {
	s := newServer(t)
	h, err := telemetry.NewHarness(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachTelemetry(h); err != nil {
		t.Fatal(err)
	}
	names := h.Names()
	// Paper channel list: 4 CPU temps + 32 DIMM temps + 32×2 core V/I +
	// system power + our 2 fan channels.
	want := 4 + 32 + 64 + 1 + 2
	if len(names) != want {
		t.Fatalf("channels = %d, want %d", len(names), want)
	}
	counts := map[string]int{}
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, "cpu"):
			counts["cpu"]++
		case strings.HasPrefix(n, "dimm"):
			counts["dimm"]++
		case strings.HasPrefix(n, "core"):
			counts["core"]++
		}
	}
	if counts["cpu"] != 4 || counts["dimm"] != 32 || counts["core"] != 64 {
		t.Fatalf("channel counts = %v", counts)
	}
	// Re-attaching must fail on duplicate registration.
	if err := s.AttachTelemetry(h); err == nil {
		t.Fatal("duplicate attach should error")
	}
}

func TestAttachTelemetryPolling(t *testing.T) {
	s := newServer(t)
	h, _ := telemetry.NewHarness(10, 0)
	if err := s.AttachTelemetry(h); err != nil {
		t.Fatal(err)
	}
	s.SetLoad(100)
	for i := 0; i < 60; i++ {
		s.Step(5)
		h.Advance(s.Now())
	}
	// 300 s at a 10 s period → 31 polls (incl. t=0).
	series, err := h.Series("cpu0.temp0")
	if err != nil {
		t.Fatal(err)
	}
	temps := series.Samples()
	if len(temps) != 31 {
		t.Fatalf("polls = %d, want 31", len(temps))
	}
	// Temperatures rise under load.
	if first, last := temps[0].Value, temps[len(temps)-1].Value; last <= first+5 {
		t.Fatalf("temp did not rise: %g → %g", first, last)
	}
	// System power is in the calibrated envelope.
	p, err := h.Series("system.power")
	if err != nil {
		t.Fatal(err)
	}
	powers := p.Samples()
	if last := powers[len(powers)-1]; last.Value < 450 || last.Value > 620 {
		t.Fatalf("system power = %+v", last)
	}
	// CSV export carries all channels.
	var sb strings.Builder
	if err := h.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(sb.String(), "\n", 2)[0]
	if !strings.Contains(header, "dimm31.temp") || !strings.Contains(header, "core31.amps") {
		t.Fatalf("csv header incomplete: %.200s", header)
	}
}
