package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/server"
)

// resumeEval is a small single-policy eval: checkpoint/resume captures
// exactly one run, so the comparison must be restricted to one policy.
func resumeEval() Scenario {
	ev := DefaultRackEval()
	ev.Servers = 4
	ev.Horizon = 600
	ev.Stabilize = 60
	ev.Policy = "round-robin"
	return ev
}

// TestRackEvalCheckpointResume: interrupting a single-policy rack run
// via the checkpoint sink and resuming from the captured checkpoint
// reproduces the uninterrupted row exactly — through the experiments
// layer, stabilization window included (its effect rides inside the
// checkpointed rack state, so the resumed run must skip it).
func TestRackEvalCheckpointResume(t *testing.T) {
	base := server.T3Config()
	ev := resumeEval()

	full, err := RunScenario(base, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 1 {
		t.Fatalf("single-policy eval produced %d rows", len(full))
	}

	errStop := errors.New("stop for test")
	var ck *sched.Checkpoint
	evB := ev
	evB.CheckpointEvery = 200
	evB.CheckpointSink = func(c sched.Checkpoint) error { ck = &c; return errStop }
	if _, err := RunScenario(base, evB); !errors.Is(err, errStop) {
		t.Fatalf("interrupted comparison returned %v, want the sink's error", err)
	}
	if ck == nil {
		t.Fatal("sink error without a captured checkpoint")
	}

	evC := ev
	evC.Resume = ck
	resumed, err := RunScenario(base, evC)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatalf("resumed row differs\nfull:    %+v\nresumed: %+v", full[0], resumed[0])
	}
}

// TestRackEvalCancellation: a cancelled eval context surfaces
// *sched.Cancelled through the comparison error, carrying a resumable
// checkpoint that completes to the uninterrupted row.
func TestRackEvalCancellation(t *testing.T) {
	base := server.T3Config()
	ev := resumeEval()

	full, err := RunScenario(base, ev)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	evB := ev
	evB.Ctx = ctx
	evB.CheckpointEvery = 200
	evB.CheckpointSink = func(sched.Checkpoint) error { cancel(); return nil }
	_, err = RunScenario(base, evB)
	var c *sched.Cancelled
	if !errors.As(err, &c) {
		t.Fatalf("got %v, want *sched.Cancelled", err)
	}

	evC := ev
	evC.Resume = &c.Checkpoint
	resumed, err := RunScenario(base, evC)
	if err != nil {
		t.Fatalf("resume from cancel: %v", err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatalf("resume-from-cancel row differs\nfull:    %+v\nresumed: %+v", full[0], resumed[0])
	}
}

// TestCheckpointNeedsSinglePolicy: checkpoint/resume on the full
// five-policy comparison is rejected — there is no single "the run" to
// snapshot.
func TestCheckpointNeedsSinglePolicy(t *testing.T) {
	base := server.T3Config()
	ev := resumeEval()
	ev.Policy = ""
	ev.CheckpointEvery = 200
	ev.CheckpointSink = func(sched.Checkpoint) error { return nil }
	if _, err := RunScenario(base, ev); err == nil {
		t.Fatal("multi-policy checkpointing accepted")
	}
	ev2 := resumeEval()
	ev2.Policy = ""
	ev2.Resume = &sched.Checkpoint{}
	if _, err := RunScenario(base, ev2); err == nil {
		t.Fatal("multi-policy resume accepted")
	}
}
