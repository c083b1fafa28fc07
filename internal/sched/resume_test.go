package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/control"
	"repro/internal/cooling"
	"repro/internal/fault"
	"repro/internal/lut"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/server"
	"repro/internal/snap"
	"repro/internal/units"
)

// resumeRackTable builds the one LUT every resume-suite rack shares.
func resumeRackTable(t *testing.T) *lut.Table {
	t.Helper()
	table, err := lut.Build(server.T3Config(), lut.DefaultBuild())
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// resumeRack builds an n-server controllered rack; facility attaches the
// full delivery chain and cooling loop so the facility-scope meters and
// fault state ride through the snapshot too.
func resumeRack(t *testing.T, table *lut.Table, n, workers int, facility bool) *rack.Rack {
	t.Helper()
	specs := make([]rack.ServerSpec, n)
	for i := range specs {
		lc, err := control.NewLUT(table, control.DefaultLUT())
		if err != nil {
			t.Fatal(err)
		}
		c := server.T3Config()
		c.NoiseSeed = int64(i + 1)
		specs[i] = rack.ServerSpec{Config: c, Controller: lc}
	}
	rc := rack.Config{Servers: specs, Workers: workers, ReliabilitySampleEvery: 15}
	if facility {
		psu, pdu := power.DefaultPSU(), power.DefaultPDU()
		fac := cooling.DefaultFacility(18)
		rc.PSU, rc.PDU, rc.Facility = &psu, &pdu, &fac
	}
	r, err := rack.New(rc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// stripMetrics zeroes the registry pointer so Results compare by value.
func stripMetrics(r Result) Result { r.Metrics = nil; return r }

func dumpRegistry(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

var errInterrupt = errors.New("test interrupt")

// interruptAt runs the trace until the first periodic checkpoint at or
// past truncAt seconds, captures it, aborts, and round-trips the
// checkpoint through the snap container — so the suite proves the on-disk
// image, not just the in-memory struct, resumes byte-identically.
func interruptAt(t *testing.T, r *rack.Rack, jobs []Job, p Policy, tc TraceConfig, truncAt float64) Checkpoint {
	t.Helper()
	var captured *Checkpoint
	tc.CheckpointEvery = truncAt
	tc.CheckpointSink = func(ck Checkpoint) error {
		captured = &ck
		return errInterrupt
	}
	_, err := RunTraceCfg(r, jobs, p, tc)
	if !errors.Is(err, errInterrupt) {
		t.Fatalf("interrupted run returned %v, want the sink's error", err)
	}
	if captured == nil {
		t.Fatal("sink error without a captured checkpoint")
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf, *captured); err != nil {
		t.Fatalf("checkpoint does not snap-encode: %v", err)
	}
	var ck Checkpoint
	if err := snap.Decode(bytes.NewReader(buf.Bytes()), &ck); err != nil {
		t.Fatalf("checkpoint does not snap-decode: %v", err)
	}
	return ck
}

// TestResumeEquivalence is the tentpole property: interrupt-at-T-then-
// resume is byte-identical to the uninterrupted run — Result, full rack
// telemetry and the metrics dump — across truncation point × kernel ×
// policy × worker count × fault schedule, with the checkpoint carried
// through the snap container. The uninterrupted reference runs serial
// (workers=1) while the interrupted+resumed run fans out (workers=4), so
// one comparison also pins worker-count invariance. Run under -race.
func TestResumeEquivalence(t *testing.T) {
	table := resumeRackTable(t)
	const n, horizon = 4, 500.0
	jobs := faultTraceJobs(t, 400)
	rng := rand.New(rand.NewSource(1234))

	cascade := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FanStick, Server: 0, Fan: 0, At: 90, Clear: 300},
		{Kind: fault.PSUFail, Server: 1, At: 140, Clear: 320},
		{Kind: fault.CRACOutage, At: 200, Clear: 380, Severity: 4},
		{Kind: fault.ChillerDegraded, At: 210, Clear: 390, Severity: 0.2},
	}}

	policies := map[string]func() Policy{
		"round-robin":   func() Policy { return NewRoundRobin() }, // stateful cursor
		"coolest-first": func() Policy { return NewCoolestFirst() },
	}

	for name, mkP := range policies {
		for _, event := range []bool{false, true} {
			for _, sch := range []*fault.Schedule{nil, cascade, randomSchedule(rng, n, horizon)} {
				facility := sch == cascade // the facility trace is the cascade one
				truncAt := 60 + rng.Float64()*horizon*0.7
				label := fmt.Sprintf("%s event=%v faults=%v trunc=%.1f", name, event, sch != nil, truncAt)
				tc := TraceConfig{
					Dt: 1, Horizon: horizon, EventStepping: event,
					SampleEvery: 15, Faults: sch,
				}

				// Uninterrupted reference, serial.
				rA := resumeRack(t, table, n, 1, facility)
				regA := obs.NewRegistry()
				tcA := tc
				tcA.Metrics = regA
				resA, err := RunTraceCfg(rA, jobs, mkP(), tcA)
				if err != nil {
					t.Fatalf("%s: reference run: %v", label, err)
				}

				// Interrupted at truncAt, parallel.
				rB := resumeRack(t, table, n, 4, facility)
				tcB := tc
				tcB.Metrics = obs.NewRegistry()
				ck := interruptAt(t, rB, jobs, mkP(), tcB, truncAt)
				if ck.K <= 0 || ck.K >= ck.Steps {
					t.Fatalf("%s: degenerate truncation step %d/%d", label, ck.K, ck.Steps)
				}

				// Resumed on a fresh rack and fresh registry, parallel.
				rC := resumeRack(t, table, n, 4, facility)
				regC := obs.NewRegistry()
				tcC := tc
				tcC.Metrics = regC
				resC, err := ResumeTraceCfg(rC, jobs, mkP(), tcC, ck)
				if err != nil {
					t.Fatalf("%s: resume: %v", label, err)
				}

				if !reflect.DeepEqual(stripMetrics(resA), stripMetrics(resC)) {
					t.Fatalf("%s: resumed Result differs\nfull:    %+v\nresumed: %+v",
						label, stripMetrics(resA), stripMetrics(resC))
				}
				telA, telC := rA.Telemetry(), rC.Telemetry()
				if !reflect.DeepEqual(telA, telC) {
					t.Fatalf("%s: resumed telemetry differs\nfull:    %+v\nresumed: %+v", label, telA, telC)
				}
				dumpA, dumpC := dumpRegistry(t, regA), dumpRegistry(t, regC)
				if dumpA != dumpC {
					t.Fatalf("%s: metrics dumps differ\n--- full ---\n%s\n--- resumed ---\n%s", label, dumpA, dumpC)
				}
			}
		}
	}
}

// TestResumeInsideFaultWindow: the faulted servers macro-step through
// fault windows and a dark slot's relaxation collapses, so a checkpoint
// taken inside the CRAC outage — with a slot dark and a droop active —
// must resume byte-identical to the uninterrupted run on both kernels:
// Result, rack telemetry and the metrics dump, with the reference serial
// and the interrupted and resumed runs fanned out (run under -race).
func TestResumeInsideFaultWindow(t *testing.T) {
	table := resumeRackTable(t)
	const n, horizon, truncAt = 3, 600.0, 330.0
	jobs := faultTraceJobs(t, 400)
	for _, event := range []bool{false, true} {
		label := fmt.Sprintf("event=%v", event)
		tc := TraceConfig{Dt: 1, Horizon: horizon, EventStepping: event, SampleEvery: 15, Faults: faultWindows()}

		rA := resumeRack(t, table, n, 1, true)
		regA := obs.NewRegistry()
		tcA := tc
		tcA.Metrics = regA
		resA, err := RunTraceCfg(rA, jobs, NewLeastUtilized(), tcA)
		if err != nil {
			t.Fatalf("%s: reference run: %v", label, err)
		}

		rB := resumeRack(t, table, n, 2, true)
		tcB := tc
		tcB.Metrics = obs.NewRegistry()
		ck := interruptAt(t, rB, jobs, NewLeastUtilized(), tcB, truncAt)
		if ck.Rack.CracOut != 1 || ck.Rack.Slots[2].Server.Powered || ck.Rack.Slots[1].PSUDerate == 0 {
			t.Fatalf("%s: checkpoint at step %d is not inside the CRAC window with slot 2 dark and slot 1 drooping", label, ck.K)
		}

		rC := resumeRack(t, table, n, 2, true)
		regC := obs.NewRegistry()
		tcC := tc
		tcC.Metrics = regC
		resC, err := ResumeTraceCfg(rC, jobs, NewLeastUtilized(), tcC, ck)
		if err != nil {
			t.Fatalf("%s: resume: %v", label, err)
		}
		if !reflect.DeepEqual(stripMetrics(resA), stripMetrics(resC)) {
			t.Fatalf("%s: resumed Result differs\nfull:    %+v\nresumed: %+v", label, stripMetrics(resA), stripMetrics(resC))
		}
		if telA, telC := rA.Telemetry(), rC.Telemetry(); !reflect.DeepEqual(telA, telC) {
			t.Fatalf("%s: resumed telemetry differs\nfull:    %+v\nresumed: %+v", label, telA, telC)
		}
		if dumpA, dumpC := dumpRegistry(t, regA), dumpRegistry(t, regC); dumpA != dumpC {
			t.Fatalf("%s: metrics dumps differ\n--- full ---\n%s\n--- resumed ---\n%s", label, dumpA, dumpC)
		}
	}
}

// TestResumeInsideDeferralStreak: a capped run on the event kernel
// crosses cap-deferred heads in macro windows, replaying the skipped
// retries — with the decision step's views for leakage-aware, with the
// views the wall-floor walk predicts for coolest-first and cap-aware.
// Interrupted at a decision step inside a deferral streak — the head
// deferred at the previous checkpoint and still queued — and resumed, it
// must be byte-identical to the uninterrupted run, with the reference
// serial and the interrupted and resumed runs fanned out (run under
// -race).
func TestResumeInsideDeferralStreak(t *testing.T) {
	table := resumeRackTable(t)
	const n, horizon = 4, 600.0
	jobs := faultTraceJobs(t, 500)
	tables := []*lut.Table{table, table, table, table}
	models, psus := t3Chain(n)
	policies := []struct {
		name string
		mk   func() (Policy, error)
	}{
		{"leakage-aware", func() (Policy, error) { return NewLeakageAwareFromTables(tables) }},
		{"coolest-first", func() (Policy, error) { return NewCoolestFirst(), nil }},
		{"cap-aware", func() (Policy, error) { return NewCapAwareFromTables(tables, models, psus) }},
	}
	mkRack := func(t *testing.T, workers int) *rack.Rack { return resumeRack(t, table, n, workers, true) }
	idle := float64(mkRack(t, 1).WallPower())
	for _, pc := range policies {
		mkP := func() Policy {
			p, err := pc.mk()
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		for _, capMarginal := range []bool{false, true} {
			tc := TraceConfig{Dt: 1, Horizon: horizon, EventStepping: true, WallCapW: idle + 250}
			if capMarginal {
				tc.CapMarginal = tables
				tc.WallCapW = idle + 180
			}
			label := fmt.Sprintf("%s capMarginal=%v", pc.name, capMarginal)
			resumeInsideDeferralStreak(t, label, mkRack, jobs, mkP, tc)
		}
	}
}

// resumeInsideDeferralStreak runs one TestResumeInsideDeferralStreak case
// on racks built by mkRack with the given worker count.
func resumeInsideDeferralStreak(t *testing.T, label string, mkRack func(t *testing.T, workers int) *rack.Rack, jobs []Job, mkP func() Policy, tc TraceConfig) {
	t.Helper()
	rA := mkRack(t, 1)
	regA := obs.NewRegistry()
	tcA := tc
	tcA.Metrics = regA
	resA, err := RunTraceCfg(rA, jobs, mkP(), tcA)
	if err != nil {
		t.Fatalf("%s: reference run: %v", label, err)
	}
	if pins := regA.Counter("kernel.pin.backlog").Value(); resA.Deferrals < 100 || pins*2 > int64(resA.Deferrals) {
		t.Fatalf("%s: %d deferrals, %d backlog pins: the run does not cross deferral streaks", label, resA.Deferrals, pins)
	}

	// Interrupt at the first checkpoint past 150 s whose head was
	// deferred since the previous one and is still queued.
	rB := mkRack(t, 4)
	tcB := tc
	tcB.Metrics = obs.NewRegistry()
	var captured *Checkpoint
	lastDeferrals := -1
	tcB.CheckpointEvery = 7
	tcB.CheckpointSink = func(ck Checkpoint) error {
		streak := lastDeferrals >= 0 && ck.Counts.Deferrals > lastDeferrals && len(ck.Pending) > 0
		lastDeferrals = ck.Counts.Deferrals
		if float64(ck.K) < 150 || !streak {
			return nil
		}
		captured = &ck
		return errInterrupt
	}
	if _, err := RunTraceCfg(rB, jobs, mkP(), tcB); !errors.Is(err, errInterrupt) || captured == nil {
		t.Fatalf("%s: no checkpoint inside a deferral streak (run returned %v)", label, err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf, *captured); err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := snap.Decode(bytes.NewReader(buf.Bytes()), &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Counts.Deferrals >= resA.Deferrals {
		t.Fatalf("%s: interrupted at step %d after every deferral", label, ck.K)
	}
	t.Logf("%s: %d placed, %d deferrals over %d advances, interrupted at step %d with %d queued",
		label, resA.Placed, resA.Deferrals, resA.RackSteps, ck.K, len(ck.Pending))

	rC := mkRack(t, 4)
	regC := obs.NewRegistry()
	tcC := tc
	tcC.Metrics = regC
	resC, err := ResumeTraceCfg(rC, jobs, mkP(), tcC, ck)
	if err != nil {
		t.Fatalf("%s: resume: %v", label, err)
	}
	if !reflect.DeepEqual(stripMetrics(resA), stripMetrics(resC)) {
		t.Fatalf("%s: resumed Result differs\nfull:    %+v\nresumed: %+v", label, stripMetrics(resA), stripMetrics(resC))
	}
	if telA, telC := rA.Telemetry(), rC.Telemetry(); !reflect.DeepEqual(telA, telC) {
		t.Fatalf("%s: resumed telemetry differs\nfull:    %+v\nresumed: %+v", label, telA, telC)
	}
	if dumpA, dumpC := dumpRegistry(t, regA), dumpRegistry(t, regC); dumpA != dumpC {
		t.Fatalf("%s: metrics dumps differ\n--- full ---\n%s\n--- resumed ---\n%s", label, dumpA, dumpC)
	}
}

// TestCancelReturnsPartialResultAndResumes: cancelling mid-run (the sink
// pulls the trigger, the boundary check notices) returns the partial
// Result alongside a *Cancelled whose checkpoint resumes to the identical
// final state.
func TestCancelReturnsPartialResultAndResumes(t *testing.T) {
	table := resumeRackTable(t)
	const n, horizon = 3, 400.0
	jobs := faultTraceJobs(t, 300)
	for _, event := range []bool{false, true} {
		tc := TraceConfig{Dt: 1, Horizon: horizon, EventStepping: event, SampleEvery: 15}

		rA := resumeRack(t, table, n, 1, false)
		resA, err := RunTraceCfg(rA, jobs, NewRoundRobin(), tc)
		if err != nil {
			t.Fatalf("event=%v: reference: %v", event, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		rB := resumeRack(t, table, n, 1, false)
		tcB := tc
		tcB.Ctx = ctx
		tcB.CheckpointEvery = 150
		tcB.CheckpointSink = func(Checkpoint) error { cancel(); return nil }
		partial, err := RunTraceCfg(rB, jobs, NewRoundRobin(), tcB)
		var c *Cancelled
		if !errors.As(err, &c) {
			t.Fatalf("event=%v: got %v, want *Cancelled", event, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("event=%v: Cancelled must unwrap to context.Canceled", event)
		}
		if partial.Submitted != len(jobs) || partial.RackSteps <= 0 || partial.RackSteps >= resA.RackSteps {
			t.Fatalf("event=%v: partial result not partial: %+v", event, partial)
		}
		if c.Checkpoint.K <= 0 || c.Checkpoint.K >= c.Checkpoint.Steps {
			t.Fatalf("event=%v: cancel checkpoint at degenerate step %d", event, c.Checkpoint.K)
		}

		rC := resumeRack(t, table, n, 1, false)
		resC, err := ResumeTraceCfg(rC, jobs, NewRoundRobin(), tc, c.Checkpoint)
		if err != nil {
			t.Fatalf("event=%v: resume from cancel: %v", event, err)
		}
		if !reflect.DeepEqual(stripMetrics(resA), stripMetrics(resC)) {
			t.Fatalf("event=%v: resume-from-cancel differs\nfull:    %+v\nresumed: %+v",
				event, stripMetrics(resA), stripMetrics(resC))
		}
		if !reflect.DeepEqual(rA.Telemetry(), rC.Telemetry()) {
			t.Fatalf("event=%v: resume-from-cancel telemetry differs", event)
		}
	}
}

// TestCancelBeforeStart: an already-cancelled context stops the run at
// step 0 with a checkpoint that replays the whole trace.
func TestCancelBeforeStart(t *testing.T) {
	table := resumeRackTable(t)
	jobs := faultTraceJobs(t, 200)
	tc := TraceConfig{Dt: 1, Horizon: 300}

	rA := resumeRack(t, table, 2, 1, false)
	resA, err := RunTraceCfg(rA, jobs, NewRoundRobin(), tc)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rB := resumeRack(t, table, 2, 1, false)
	tcB := tc
	tcB.Ctx = ctx
	partial, err := RunTraceCfg(rB, jobs, NewRoundRobin(), tcB)
	var c *Cancelled
	if !errors.As(err, &c) {
		t.Fatalf("got %v, want *Cancelled", err)
	}
	if partial.RackSteps != 0 || c.Checkpoint.K != 0 {
		t.Fatalf("pre-cancelled run advanced: steps=%d K=%d", partial.RackSteps, c.Checkpoint.K)
	}
	rC := resumeRack(t, table, 2, 1, false)
	resC, err := ResumeTraceCfg(rC, jobs, NewRoundRobin(), tc, c.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripMetrics(resA), stripMetrics(resC)) {
		t.Fatalf("resume-from-step-0 differs from the plain run")
	}
}

// TestCheckpointConfigValidation: the satellite rule — non-positive (or
// non-finite) CheckpointEvery is rejected, as is a cadence with no sink
// and a sink with no cadence.
func TestCheckpointConfigValidation(t *testing.T) {
	table := resumeRackTable(t)
	r := resumeRack(t, table, 2, 1, false)
	sink := func(Checkpoint) error { return nil }
	for _, bad := range []TraceConfig{
		{Dt: 1, Horizon: 10, CheckpointEvery: 0, CheckpointSink: sink},
		{Dt: 1, Horizon: 10, CheckpointEvery: -5, CheckpointSink: sink},
		{Dt: 1, Horizon: 10, CheckpointEvery: math.NaN(), CheckpointSink: sink},
		{Dt: 1, Horizon: 10, CheckpointEvery: math.Inf(1), CheckpointSink: sink},
		{Dt: 1, Horizon: 10, CheckpointEvery: 5}, // cadence, no sink
	} {
		if _, err := RunTraceCfg(r, nil, NewRoundRobin(), bad); err == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}
}

// TestResumeRejectsMismatchedConfig: the checkpoint's cross-checks catch
// a resume under the wrong dt/kernel/policy/trace.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	table := resumeRackTable(t)
	jobs := faultTraceJobs(t, 200)
	tc := TraceConfig{Dt: 1, Horizon: 300, SampleEvery: 15}
	r := resumeRack(t, table, 2, 1, false)
	ck := interruptAt(t, r, jobs, NewRoundRobin(), tc, 100)

	cases := []struct {
		name string
		mut  func(*TraceConfig, *[]Job, *Policy)
	}{
		{"dt", func(tc *TraceConfig, _ *[]Job, _ *Policy) { tc.Dt = 2 }},
		{"horizon", func(tc *TraceConfig, _ *[]Job, _ *Policy) { tc.Horizon = 600 }},
		{"kernel", func(tc *TraceConfig, _ *[]Job, _ *Policy) { tc.EventStepping = true }},
		{"sample", func(tc *TraceConfig, _ *[]Job, _ *Policy) { tc.SampleEvery = 30 }},
		{"policy", func(_ *TraceConfig, _ *[]Job, p *Policy) { *p = NewCoolestFirst() }},
		{"jobs", func(_ *TraceConfig, j *[]Job, _ *Policy) { *j = (*j)[:len(*j)-1] }},
	}
	for _, cse := range cases {
		tc2, jobs2 := tc, jobs
		var p Policy = NewRoundRobin()
		cse.mut(&tc2, &jobs2, &p)
		r2 := resumeRack(t, table, 2, 1, false)
		if _, err := ResumeTraceCfg(r2, jobs2, p, tc2, ck); err == nil {
			t.Errorf("%s mismatch accepted on resume", cse.name)
		}
	}

	// Wrong rack shape.
	r3 := resumeRack(t, table, 3, 1, false)
	if _, err := ResumeTraceCfg(r3, jobs, NewRoundRobin(), tc, ck); err == nil {
		t.Error("rack-shape mismatch accepted on resume")
	}
}

// TestDivergenceGuard: non-finite physics aborts the run with *Diverged
// and a diagnostic snapshot instead of smearing NaNs to the horizon.
func TestDivergenceGuard(t *testing.T) {
	table := resumeRackTable(t)
	for _, event := range []bool{false, true} {
		r := resumeRack(t, table, 2, 1, false)
		r.AddAmbientOffset(units.Celsius(math.NaN()))
		_, err := RunTraceCfg(r, nil, NewRoundRobin(), TraceConfig{
			Dt: 1, Horizon: 300, EventStepping: event,
		})
		var d *Diverged
		if !errors.As(err, &d) {
			t.Fatalf("event=%v: got %v, want *Diverged", event, err)
		}
		if d.Step <= 0 || d.Step > 300 {
			t.Fatalf("event=%v: divergence at implausible step %d", event, d.Step)
		}
	}
}

// TestCheckpointOverheadDisabled: with no Ctx and no sink, the run-control
// path must not charge the hot loop — the boundary hook is skipped
// entirely and results stay bit-identical to a run built before the
// feature existed (the golden tables enforce the latter; here we pin the
// flag plumbing).
func TestCheckpointOverheadDisabled(t *testing.T) {
	table := resumeRackTable(t)
	jobs := faultTraceJobs(t, 200)
	r1 := resumeRack(t, table, 2, 1, false)
	res1, err := RunTraceCfg(r1, jobs, NewRoundRobin(), TraceConfig{Dt: 1, Horizon: 300})
	if err != nil {
		t.Fatal(err)
	}
	// A cadence sink that never fires within the horizon: same result.
	r2 := resumeRack(t, table, 2, 1, false)
	res2, err := RunTraceCfg(r2, jobs, NewRoundRobin(), TraceConfig{
		Dt: 1, Horizon: 300, CheckpointEvery: 1e9,
		CheckpointSink: func(Checkpoint) error { t.Fatal("sink fired"); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("checkpoint plumbing perturbed the run:\n%+v\n%+v", res1, res2)
	}
	if !reflect.DeepEqual(r1.Telemetry(), r2.Telemetry()) {
		t.Fatal("checkpoint plumbing perturbed telemetry")
	}
}
