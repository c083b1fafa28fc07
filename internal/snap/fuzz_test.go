package snap

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/sched"
)

// FuzzDecode drives the real untrusted-input surface: arbitrary bytes
// through Decode into the checkpoint DTO evalctl resumes from. The decoder
// must return an error or a value — never panic, whatever the bytes — and
// the encoding is canonical, so any input it accepts re-encodes to itself.
func FuzzDecode(f *testing.F) {
	// A well-formed checkpoint whose length prefixes, pointer tags and
	// bool bytes give the mutator structure to corrupt.
	ck := sched.Checkpoint{
		K: 3, Steps: 10, Dt: 1, Horizon: 10, PolicyName: "round-robin",
		Pending: []sched.Job{{ID: 1, Arrival: 2, Duration: 3, Demand: 40}},
		Running: []sched.ActiveJob{{End: 5, Slot: 0, Demand: 20, Job: sched.Job{ID: 0}}},
		Loads:   []float64{20, 0},
		Policy:  &sched.PolicyState{Name: "round-robin", Ints: []int{1}},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, ck); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("REPROSNP\x00\x00\x00\x01"))
	f.Add([]byte("REPROSNP\x00\x00\x00\x63garbage"))
	f.Add([]byte("NOTASNAPxxxxxxxx"))
	golden, err := os.ReadFile(goldenPath(Version))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Fuzz(func(t *testing.T, data []byte) {
		var out sched.Checkpoint
		if Decode(bytes.NewReader(data), &out) != nil {
			return
		}
		var again bytes.Buffer
		if err := Encode(&again, out); err != nil {
			t.Fatalf("decoded checkpoint does not re-encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(data), again.Len())
		}
	})
}
