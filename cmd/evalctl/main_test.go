package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestCheckSize: 0 keeps an experiment's default and a positive finite
// value overrides it; a negative or non-finite size is an error naming
// the flag instead of a silent run of the default.
func TestCheckSize(t *testing.T) {
	for _, ok := range []float64{0, 0.3, 1800} {
		if err := checkSize("horizon", ok); err != nil {
			t.Errorf("-horizon %g rejected: %v", ok, err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		if err := checkSize("horizon", bad); err == nil || !strings.Contains(err.Error(), "-horizon") {
			t.Errorf("-horizon %g: got %v, want an error naming -horizon", bad, err)
		}
	}
}

// TestPickMode: a flag the chosen mode does not honour is an error naming
// the flag and the modes it serves, two mode switches are an error, and
// every honoured combination selects its mode.
func TestPickMode(t *testing.T) {
	for _, tc := range []struct {
		set  string // flags set away from their defaults, in flag.Visit order
		mode string
		err  string // substring of the error; "" = no error
	}{
		{"", "", ""},
		{"seed test", "", ""},
		{"csv fig3 seed", "fig3", ""},
		{"cap ideal rack", "rack", ""},
		{"checkpoint ckevery policy rack", "rack", ""},
		{"backfill cap facility ideal policy setpoints", "facility", ""},
		{"backfill drop faults ideal policy", "faults", ""},
		{"econ metrics nofacility norecirc policy racks room", "room", ""},
		{"recirc room", "room", ""},
		{"cap room", "", "-cap does not apply to -room (it serves -rack, -facility, -faults)"},
		{"backfill room", "", "-backfill does not apply to -room"},
		{"ideal room", "", "-ideal does not apply to -room"},
		{"rack racks", "", "-racks does not apply to -rack (it serves -room)"},
		{"facility recirc", "", "-recirc does not apply to -facility"},
		{"faults norecirc", "", "-norecirc does not apply to -faults"},
		{"nofacility rack", "", "-nofacility does not apply to -rack"},
		{"econ facility", "", "-econ does not apply to -facility"},
		{"drop rack", "", "-drop does not apply to -rack (it serves -faults)"},
		{"faults setpoints", "", "-setpoints does not apply to -faults (it serves -facility)"},
		{"checkpoint facility policy", "", "-checkpoint does not apply to -facility"},
		{"metrics", "", "-metrics does not apply to Table I"},
		{"policy", "", "-policy does not apply to Table I"},
		{"csv", "", "-csv does not apply to Table I (it serves -fig3)"},
		{"fig3 test", "", "-test does not apply to -fig3 (it serves Table I)"},
		{"facility rack", "", "-rack and -facility select different modes"},
		{"ckevery policy rack", "", "-ckevery sets the cadence of -checkpoint"},
		{"norecirc recirc room", "", "-recirc and -norecirc"},
	} {
		mode, err := pickMode(strings.Fields(tc.set))
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: %v", tc.set, err)
		case tc.err == "" && mode != tc.mode:
			t.Errorf("%q: mode %q, want %q", tc.set, mode, tc.mode)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: got %v, want an error containing %q", tc.set, err, tc.err)
		}
	}
}

// TestServedBy: each flag's help names exactly the modes that honour it.
func TestServedBy(t *testing.T) {
	for flag, want := range map[string]string{
		"seed":      "Table I, -rack, -facility, -faults, -room, -fig3",
		"debugaddr": "Table I, -rack, -facility, -faults, -room, -fig3",
		"policy":    "-rack, -facility, -faults, -room",
		"cap":       "-rack, -facility, -faults",
		"backfill":  "-rack, -facility, -faults",
		"resume":    "-rack",
		"setpoints": "-facility",
		"drop":      "-faults",
		"econ":      "-room",
		"csv":       "-fig3",
		"test":      "Table I",
		"rack":      "",
	} {
		if got := servedBy(flag); got != want {
			t.Errorf("servedBy(%q) = %q, want %q", flag, got, want)
		}
	}
}

// TestMain runs main instead of the tests when EVALCTL_ARGS is set, so
// TestUnhonouredFlagExits can drive the command in a child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EVALCTL_ARGS"); ok {
		os.Args = append([]string{"evalctl"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnhonouredFlagExits: a flag the mode does not honour stops the
// command with status 1 and a message naming it — as do an unknown
// -policy, whose message lists the preset's policy names, and an
// economizer without a facility.
func TestUnhonouredFlagExits(t *testing.T) {
	for args, want := range map[string]string{
		"-room -cap 2000":  "-cap",
		"-room -backfill":  "-backfill",
		"-rack -econ":      "-econ",
		"-faults -racks 2": "-racks",
		"-facility -policy no-such -servers 2 -horizon 60": "pue-aware",
		"-room -econ -nofacility":                          "economizer",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "EVALCTL_ARGS="+args)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("evalctl %s: %v, want exit status 1", args, err)
		}
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("evalctl %s: stderr %q does not name %q", args, stderr.String(), want)
		}
	}
}
