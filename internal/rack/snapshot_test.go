package rack

import (
	"reflect"
	"strings"
	"testing"
)

// TestRestoreRejectsSamplingMismatch: reliability sampling must match the
// snapshot in both directions. A sampled history restored into a rack
// that does not sample would be dropped without a word, and a rack that
// samples cannot resume without its history.
func TestRestoreRejectsSamplingMismatch(t *testing.T) {
	sampled, plain := faultRack(t, 1, 5), faultRack(t, 1, 0)
	for s := 0; s < 30; s++ {
		sampled.Step(1)
		plain.Step(1)
	}
	withHist, err := sampled.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(withHist.RelSamples) != sampled.NumServers() || len(withHist.RelSamples[0]) == 0 {
		t.Fatalf("sampled snapshot carries %d traces; the case is vacuous", len(withHist.RelSamples))
	}
	without, err := plain.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		into *Rack
		st   State
		want string
	}{
		{"history into a rack that does not sample", faultRack(t, 1, 0), withHist, "does not sample reliability"},
		{"no history into a rack that samples", faultRack(t, 1, 5), without, "rack samples 4 slots"},
	} {
		err := c.into.Restore(c.st)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Restore returned %v, want an error containing %q", c.name, err, c.want)
		}
	}
	for _, c := range []struct {
		into *Rack
		st   State
	}{{faultRack(t, 1, 5), withHist}, {faultRack(t, 1, 0), without}} {
		if err := c.into.Restore(c.st); err != nil {
			t.Errorf("matching sampling: %v", err)
		}
	}
}

// TestSnapshotHistoryNeverChanges: Snapshot shares the append-only
// reliability traces with the rack instead of copying them. Nothing the
// rack does afterwards may write into a checkpoint's traces — stepping on,
// ResetAccounting, restoring the checkpoint into two racks and stepping
// both, or restoring it again over a trace a later checkpoint shares —
// and a reader appending to a checkpoint's trace gets an array of its own.
func TestSnapshotHistoryNeverChanges(t *testing.T) {
	r := faultRack(t, 1, 1)
	for i := 0; i < r.NumServers(); i++ {
		r.SetLoad(i, 60)
	}
	for s := 0; s < 50; s++ {
		r.Step(1)
	}
	ck, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := deepCopy(ck.RelSamples)
	if n := len(want[0]); n != 50 || cap(r.relSamples[0]) == n {
		t.Fatalf("trace of %d samples, capacity %d: an append could not reach a shared array and the case is vacuous",
			n, cap(r.relSamples[0]))
	}
	check := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(ck.RelSamples, want) {
			t.Fatalf("checkpoint history changed after %s", when)
		}
	}
	step := func(rk *Rack, n int) {
		for s := 0; s < n; s++ {
			rk.Step(1)
		}
	}
	extended := append(ck.RelSamples[0], -1)
	step(r, 10)
	check("stepping on")
	if extended[len(extended)-1] != -1 {
		t.Fatal("the rack's next sample landed in an array a checkpoint reader appended to")
	}
	r.ResetAccounting()
	step(r, 10)
	check("ResetAccounting")

	a, b := faultRack(t, 1, 1), faultRack(t, 2, 1)
	for _, rk := range []*Rack{a, b} {
		if err := rk.Restore(ck); err != nil {
			t.Fatal(err)
		}
	}
	step(a, 7)
	step(b, 3)
	check("restoring into two racks and stepping both")
	if got := a.relSamples[0]; len(got) != 57 || !reflect.DeepEqual(got[:50], want[0]) {
		t.Fatalf("restored trace has %d samples, want the checkpoint's 50 and 7 more", len(got))
	}

	later, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantLater := deepCopy(later.RelSamples)
	if err := a.Restore(ck); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NumServers(); i++ {
		a.SetLoad(i, 100) // samples unlike the ones the later checkpoint holds
	}
	step(a, 5)
	check("restoring it again")
	if !reflect.DeepEqual(later.RelSamples, wantLater) {
		t.Fatal("a later checkpoint's history changed when an earlier one was restored over it")
	}
}

func deepCopy(xss [][]float64) [][]float64 {
	out := make([][]float64, len(xss))
	for i, xs := range xss {
		out[i] = append([]float64(nil), xs...)
	}
	return out
}
