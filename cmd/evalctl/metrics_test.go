package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rack"
	"repro/internal/room"
	"repro/internal/sched"
	"repro/internal/server"
)

// TestPrintMetricsIdentityLine exercises the breakdown printer on a
// hand-built registry: every pin reason in the taxonomy appears (zero
// counts included) in the fixed PinReasonNames order, and the identity
// line reports Σ pins, total advances and macro windows verbatim.
func TestPrintMetricsIdentityLine(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("kernel.steps.total").Add(10)
	reg.Counter("kernel.windows.macro").Add(7)
	reg.Counter("kernel.grid.steps").Add(100)
	reg.Counter("kernel.pin.arrival").Add(2)
	reg.Counter("kernel.pin.backlog").Add(1)

	var sb strings.Builder
	printMetrics(&sb, reg)
	out := sb.String()
	if !strings.Contains(out, "pin identity: Σ pins 3 = rack advances 10 − macro windows 7 (grid steps crossed: 100)") {
		t.Errorf("identity line missing or wrong:\n%s", out)
	}
	// The full taxonomy prints in fixed order, zero counts included, so
	// two runs diff line-by-line.
	prev := -1
	for _, name := range sched.PinReasonNames() {
		idx := strings.Index(out, "  "+name+" ")
		if idx < 0 {
			t.Errorf("pin reason %q missing from breakdown:\n%s", name, out)
			continue
		}
		if idx < prev {
			t.Errorf("pin reason %q out of order:\n%s", name, out)
		}
		prev = idx
	}
	if !strings.Contains(out, "kernel.steps.total 10") {
		t.Errorf("sorted dump missing:\n%s", out)
	}
}

// TestPrintMetricsRoomScope prints the registry of a real room run: the
// breakdown is the room scope's — its pin counts, its identity line over
// room.rack.steps.total and room.windows.macro — and the printer registers
// no kernel.* counter, which a room run cannot move. It once printed eleven
// zero kernel.* pins and "Σ pins 0 = rack advances 0 − macro windows 0".
func TestPrintMetricsRoomScope(t *testing.T) {
	specs := make([]room.RackSpec, 2)
	for r := range specs {
		servers := make([]rack.ServerSpec, 2)
		for i := range servers {
			cfg := server.T3Config()
			cfg.NoiseSeed = int64(1 + 10*r + i)
			servers[i] = rack.ServerSpec{Config: cfg}
		}
		specs[r] = room.RackSpec{Config: rack.Config{Servers: servers, Workers: 1}}
	}
	rm, err := room.New(room.Config{Racks: specs, Workers: 2, Recirc: room.NeighborMatrix(2)})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := room.NewPolicy(room.NewRoundRobinRacks(), []sched.Policy{sched.NewRoundRobin(), sched.NewRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []sched.Job{{ID: 1, Arrival: 10, Duration: 30, Demand: 50}, {ID: 2, Arrival: 20, Duration: 60, Demand: 40}}
	reg := obs.NewRegistry()
	if _, err := room.RunTrace(rm, jobs, pol, room.TraceConfig{Dt: 1, Horizon: 120, EventStepping: true, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	printMetrics(&sb, reg)
	out := sb.String()
	steps := reg.Counter("room.rack.steps.total").Value()
	macro := reg.Counter("room.windows.macro").Value()
	grid := reg.Counter("room.grid.steps").Value()
	var pins int64
	for _, name := range sched.PinReasonNames() {
		pins += reg.Counter("room.pin." + name).Value()
	}
	if steps == 0 || grid != 120 || pins != steps-macro {
		t.Fatalf("room run registered steps %d, macro %d, grid %d, pins %d", steps, macro, grid, pins)
	}
	want := fmt.Sprintf("pin identity: Σ pins %d = rack advances %d − macro windows %d (grid steps crossed: %d)", pins, steps, macro, grid)
	if !strings.Contains(out, "Pin-reason breakdown (room.pin.*") || !strings.Contains(out, want) {
		t.Errorf("room breakdown missing or wrong, want %q:\n%s", want, out)
	}
	if strings.Contains(out, "kernel.") {
		t.Errorf("room run's output names kernel.* counters:\n%s", out)
	}
}

// TestServeDebug spins the -debugaddr server on an ephemeral port and
// checks both halves of the surface: /metrics serves the registry in
// Prometheus text format, and the pprof index answers.
func TestServeDebug(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("kernel.steps.total").Add(42)

	hostport, err := serveDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + hostport + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(b)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if !strings.Contains(body, "# TYPE kernel_steps_total counter") ||
		!strings.Contains(body, "kernel_steps_total 42") {
		t.Errorf("/metrics body not Prometheus text format:\n%s", body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d", code)
	}
}
