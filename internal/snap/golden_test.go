package snap

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/cooling"
	"repro/internal/fault"
	"repro/internal/loadgen"
	"repro/internal/lut"
	"repro/internal/power"
	"repro/internal/rack"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/units"
)

var update = flag.Bool("update", false, "rewrite testdata/checkpoint-v<Version>.snap from a fresh faulted rack run")

// goldenPath is the golden checkpoint of format version v.
func goldenPath(v uint32) string {
	return filepath.Join("testdata", fmt.Sprintf("checkpoint-v%d.snap", v))
}

const regenerate = "go test ./internal/snap -run TestGoldenCheckpoint -update"

// TestGoldenCheckpoint pins the on-disk format: the committed golden
// checkpoint of this Version must decode and re-encode byte for byte.
func TestGoldenCheckpoint(t *testing.T) {
	path := goldenPath(Version)
	if *update {
		ck := liveCheckpoint(t)
		var buf bytes.Buffer
		if err := Encode(&buf, ck); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v\nCreate it with: %s", err, regenerate)
	}
	var ck sched.Checkpoint
	if err := Decode(bytes.NewReader(data), &ck); err != nil {
		t.Fatalf("golden checkpoint %s does not decode: %v\n"+
			"If the checkpoint DTO graph changed on purpose, bump snap.Version "+
			"(the old golden file then pins the version error) and write the new one with: %s",
			path, err, regenerate)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, ck); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, data) {
		i := 0
		for i < len(got) && i < len(data) && got[i] == data[i] {
			i++
		}
		t.Fatalf("re-encoding %s differs from the file at byte %d (%d vs %d bytes): "+
			"the encoder changed without a snap.Version bump", path, i, len(got), len(data))
	}
	// The fixture must keep carrying the state that makes it one.
	switch {
	case ck.K <= 0 || ck.K >= ck.Steps:
		t.Errorf("checkpoint at step %d of %d is not mid-trace", ck.K, ck.Steps)
	case ck.Policy == nil || len(ck.Policy.Ints) == 0:
		t.Error("checkpoint carries no policy state")
	case ck.Rack.FaultsApplied == 0:
		t.Error("checkpoint carries no applied fault")
	case !hasInfQuietUntil(ck):
		t.Error("no slot carries a +Inf LUT quiet-until")
	}
}

// TestOlderSnapshotsFailWithVersionError: every golden checkpoint of an
// older format, and the v1 gob checkpoint of the fuzz corpus, must fail
// with the version error rather than misdecode.
func TestOlderSnapshotsFailWithVersionError(t *testing.T) {
	old := map[string]uint32{}
	files, err := filepath.Glob(filepath.Join("testdata", "checkpoint-v*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "checkpoint-v"), ".snap"), 10, 32)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if uint32(v) != Version {
			old[f] = uint32(v)
		}
	}
	seed, err := readCorpusBytes(filepath.Join("testdata", "fuzz", "FuzzDecode", "valid-checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	for name, ver := range old {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		checkVersionError(t, name, data, ver)
	}
	checkVersionError(t, "v1 corpus valid-checkpoint", seed, 1)
}

func checkVersionError(t *testing.T, name string, data []byte, ver uint32) {
	t.Helper()
	var ck sched.Checkpoint
	err := Decode(bytes.NewReader(data), &ck)
	want := fmt.Sprintf("snap: snapshot version %d, this build reads %d", ver, Version)
	if err == nil || err.Error() != want {
		t.Errorf("%s: got %v, want %q", name, err, want)
	}
}

// readCorpusBytes reads the single []byte value of a fuzz corpus file.
func readCorpusBytes(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		return nil, fmt.Errorf("%s: not a one-value []byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	return []byte(s), err
}

// TestEncodeSteadyStateAllocs: encoding a real checkpoint into a reused
// buffer allocates nothing once the buffers have grown.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	var ck sched.Checkpoint
	if err := DecodeFile(goldenPath(Version), &ck); err != nil {
		t.Fatal(err)
	}
	var v any = ck // boxed once: the conversion is the caller's allocation
	var buf bytes.Buffer
	if err := Encode(&buf, v); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := Encode(&buf, v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Encode allocates %.1f times per call in steady state, want 0", allocs)
	}
}

func hasInfQuietUntil(ck sched.Checkpoint) bool {
	for _, s := range ck.Rack.Slots {
		if s.Ctrl != nil && s.Ctrl.Kind == "LUT" && len(s.Ctrl.Floats) == 4 && math.IsInf(s.Ctrl.Floats[3], 1) {
			return true
		}
	}
	return false
}

var errCaptured = errors.New("golden checkpoint captured")

// liveCheckpoint runs a small faulted rack — three LUT-controlled servers
// with the full delivery chain, facility cooling and reliability sampling,
// under round-robin — and returns the first periodic checkpoint past the
// trace's midpoint that carries policy state, an applied fault and a +Inf
// LUT quiet-until.
func liveCheckpoint(t *testing.T) sched.Checkpoint {
	t.Helper()
	table, err := lut.Build(server.T3Config(), lut.DefaultBuild())
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]rack.ServerSpec, 3)
	for i := range specs {
		lc, err := control.NewLUT(table, control.DefaultLUT())
		if err != nil {
			t.Fatal(err)
		}
		c := server.T3Config()
		c.NoiseSeed = int64(i + 1)
		specs[i] = rack.ServerSpec{Config: c, Controller: lc}
	}
	psu, pdu := power.DefaultPSU(), power.DefaultPDU()
	fac := cooling.DefaultFacility(18)
	r, err := rack.New(rack.Config{
		Servers: specs, Workers: 1, ReliabilitySampleEvery: 15,
		PSU: &psu, PDU: &pdu, Facility: &fac,
	})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 600.0
	trace, err := loadgen.PoissonTrace(loadgen.PoissonTraceConfig{
		Seed: 7, Horizon: horizon, Rate: 0.05, MeanDuration: 120,
		Demands: []units.Percent{20, 40, 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	faults := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.FanStick, Server: 0, Fan: 0, At: 90, Clear: 500},
		{Kind: fault.PSUFail, Server: 1, At: 140, Clear: 520},
		{Kind: fault.CRACOutage, At: 200, Clear: 540, Severity: 4},
	}}
	var ck *sched.Checkpoint
	_, err = sched.RunTraceCfg(r, sched.JobsFromSpecs(trace), sched.NewRoundRobin(), sched.TraceConfig{
		Dt: 1, Horizon: horizon, EventStepping: true, Faults: faults, SampleEvery: 10,
		CheckpointEvery: 10,
		CheckpointSink: func(c sched.Checkpoint) error {
			if float64(c.K) >= horizon/2 && c.Policy != nil && c.Rack.FaultsApplied > 0 && hasInfQuietUntil(c) {
				ck = &c
				return errCaptured
			}
			return nil
		},
	})
	if !errors.Is(err, errCaptured) {
		t.Fatalf("no checkpoint with the golden properties was taken (run returned %v)", err)
	}
	return *ck
}
