package main

import (
	"strings"
	"testing"
)

func archFixture(label string, ns float64, metrics map[string]float64, extra ...string) *Archive {
	one := func(v float64) Stat { return Stat{Min: v, Mean: v, Max: v, N: 1} }
	ms := map[string]Stat{}
	for k, v := range metrics {
		ms[k] = one(v)
	}
	a := &Archive{Label: label, Benchmarks: []Record{
		{Name: "BenchmarkRackTrace", NsPerOp: one(ns), Iters: 3, Metrics: ms},
	}}
	for _, n := range extra {
		a.Benchmarks = append(a.Benchmarks, Record{Name: n, NsPerOp: one(100)})
	}
	return a
}

// TestDiffArchives pins the -diff report: aligned rows carry both means
// and the relative delta, metrics diff per benchmark, and one-sided
// benchmarks are called out instead of silently dropped.
func TestDiffArchives(t *testing.T) {
	old := archFixture("pr5", 2.0e6, map[string]float64{"rack_steps": 658, "Wh": 630.8}, "BenchmarkGone")
	new := archFixture("pr7", 1.5e6, map[string]float64{"rack_steps": 658, "pins": 42}, "BenchmarkFresh")

	var sb strings.Builder
	diffArchives(&sb, old, new)
	out := sb.String()

	for _, want := range []string{
		"BenchmarkRackTrace",
		"2ms", "1.5ms", "-25.0%",
		"rack_steps", "+0.0%",
		"Wh", "gone",
		"pins", "new",
		"only in pr5: BenchmarkGone",
		"only in pr7: BenchmarkFresh",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "BenchmarkGone ") && strings.Contains(out, "BenchmarkGone  ") {
		t.Errorf("one-sided benchmark got an aligned row:\n%s", out)
	}
}

// TestFormatHelpers pins the scale selection and the zero-baseline edge.
func TestFormatHelpers(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{5, "5ns"}, {1500, "1.5µs"}, {2.5e6, "2.5ms"},
	}
	for _, c := range cases {
		if got := formatNs(c.v); got != c.want {
			t.Errorf("formatNs(%g) = %q, want %q", c.v, got, c.want)
		}
	}
	if got := formatDelta(0, 5); got != "n/a" {
		t.Errorf("formatDelta(0,5) = %q", got)
	}
	if got := formatDelta(0, 0); got != "0%" {
		t.Errorf("formatDelta(0,0) = %q", got)
	}
	if got := formatDelta(200, 100); got != "-50.0%" {
		t.Errorf("formatDelta = %q", got)
	}
}

// TestParseKeepsEachPackage: an input concatenating two packages' bench
// output records each benchmark under its own package, so same-named
// benchmarks of two packages stay two records instead of averaging into
// one, and a diff aligns them by package.
func TestParseKeepsEachPackage(t *testing.T) {
	in := "pkg: repro\nBenchmarkA-2 \t 10\t 150 ns/op\npkg: repro/internal/thermal\nBenchmarkA-2 \t 10\t 999 ns/op\nBenchmarkB-2 \t 10\t 50 ns/op\n"
	a, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Name: "BenchmarkA", Package: "repro", NsPerOp: Stat{150, 150, 150, 1}, Iters: 10},
		{Name: "BenchmarkA", Package: "repro/internal/thermal", NsPerOp: Stat{999, 999, 999, 1}, Iters: 10},
		{Name: "BenchmarkB", Package: "repro/internal/thermal", NsPerOp: Stat{50, 50, 50, 1}, Iters: 10},
	}
	if len(a.Benchmarks) != len(want) {
		t.Fatalf("parsed %+v, want %+v", a.Benchmarks, want)
	}
	for i, r := range a.Benchmarks {
		if r.Name != want[i].Name || r.Package != want[i].Package || r.NsPerOp != want[i].NsPerOp {
			t.Errorf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
	var sb strings.Builder
	diffArchives(&sb, a, a)
	for _, row := range []string{"BenchmarkA (repro) ", "BenchmarkA (repro/internal/thermal) "} {
		if !strings.Contains(sb.String(), row) {
			t.Errorf("diff has no row %q:\n%s", row, sb.String())
		}
	}
}
