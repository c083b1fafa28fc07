package telemetry

import (
	"fmt"
	"strings"
	"testing"
)

// The accessors below read a series' retained ring for the tests; the
// harness itself exports only Samples and WriteCSV.

// Len returns the number of retained samples.
func (s *Series) Len() int { return len(s.samples) }

// At returns the i-th oldest retained sample.
func (s *Series) At(i int) (Sample, error) {
	if i < 0 || i >= len(s.samples) {
		return Sample{}, fmt.Errorf("telemetry: index %d out of range [0,%d)", i, len(s.samples))
	}
	return s.samples[(s.start+i)%len(s.samples)], nil
}

// Values returns just the values, chronologically.
func (s *Series) Values() []float64 {
	out := make([]float64, 0, len(s.samples))
	for _, smp := range s.Samples() {
		out = append(out, smp.Value)
	}
	return out
}

// Times returns just the timestamps, chronologically.
func (s *Series) Times() []float64 {
	out := make([]float64, 0, len(s.samples))
	for _, smp := range s.Samples() {
		out = append(out, smp.Time)
	}
	return out
}

// Last returns the most recent sample.
func (s *Series) Last() (Sample, bool) {
	if len(s.samples) == 0 {
		return Sample{}, false
	}
	idx := s.start - 1
	if idx < 0 {
		idx += len(s.samples)
	}
	if s.cap == 0 || len(s.samples) < s.cap {
		idx = len(s.samples) - 1
	}
	return s.samples[idx], true
}

// PollNow forces an immediate poll at the given timestamp without changing
// the schedule.
func (h *Harness) PollNow(t float64) {
	for _, name := range h.order {
		h.series[name].add(t, h.sensors[name]())
	}
}

func TestNewHarnessValidation(t *testing.T) {
	if _, err := NewHarness(0, 0); err == nil {
		t.Error("zero period should error")
	}
	if _, err := NewHarness(-1, 0); err == nil {
		t.Error("negative period should error")
	}
	if _, err := NewHarness(10, -1); err == nil {
		t.Error("negative capacity should error")
	}
}

func TestRegisterAndPoll(t *testing.T) {
	h, err := NewHarness(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	val := 1.0
	if err := h.Register("cpu0.temp", func() float64 { return val }); err != nil {
		t.Fatal(err)
	}
	if err := h.Register("cpu0.temp", func() float64 { return 0 }); err == nil {
		t.Error("duplicate registration should error")
	}
	if err := h.Register("nil", nil); err == nil {
		t.Error("nil sensor should error")
	}

	// Advancing to 25 s with a 10 s period polls at t=0, 10, 20.
	if polls := h.Advance(25); polls != 3 {
		t.Fatalf("polls = %d, want 3", polls)
	}
	s, err := h.Series("cpu0.temp")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("series len = %d", s.Len())
	}
	ts := s.Times()
	if ts[0] != 0 || ts[1] != 10 || ts[2] != 20 {
		t.Fatalf("times = %v", ts)
	}
	// Next poll due at 30: advancing to 29 does nothing.
	if polls := h.Advance(29); polls != 0 {
		t.Fatalf("early advance polled %d times", polls)
	}
	val = 2
	if polls := h.Advance(30); polls != 1 {
		t.Fatalf("polls = %d", polls)
	}
	last, ok := s.Last()
	if !ok || last.Time != 30 || last.Value != 2 {
		t.Fatalf("last = %+v", last)
	}
}

func TestSeriesValuesAndAt(t *testing.T) {
	h, _ := NewHarness(1, 0)
	n := 0.0
	_ = h.Register("x", func() float64 { n++; return n })
	h.Advance(4)
	s, _ := h.Series("x")
	vals := s.Values()
	want := []float64{1, 2, 3, 4, 5}
	if len(vals) != len(want) {
		t.Fatalf("values = %v", vals)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("values = %v", vals)
		}
	}
	smp, err := s.At(2)
	if err != nil || smp.Value != 3 {
		t.Fatalf("At(2) = %+v, %v", smp, err)
	}
	if _, err := s.At(99); err == nil {
		t.Error("out-of-range At should error")
	}
	if _, err := s.At(-1); err == nil {
		t.Error("negative At should error")
	}
}

func TestRingBufferCap(t *testing.T) {
	h, _ := NewHarness(1, 3)
	n := 0.0
	_ = h.Register("x", func() float64 { n++; return n })
	h.Advance(9) // 10 polls at t=0..9
	s, _ := h.Series("x")
	if s.Len() != 3 {
		t.Fatalf("capped len = %d", s.Len())
	}
	vals := s.Values()
	// Last three polls: values 8, 9, 10.
	if vals[0] != 8 || vals[1] != 9 || vals[2] != 10 {
		t.Fatalf("ring values = %v", vals)
	}
	last, ok := s.Last()
	if !ok || last.Value != 10 {
		t.Fatalf("ring last = %+v", last)
	}
}

func TestEmptySeriesLast(t *testing.T) {
	h, _ := NewHarness(1, 0)
	_ = h.Register("x", func() float64 { return 0 })
	s, _ := h.Series("x")
	if _, ok := s.Last(); ok {
		t.Fatal("empty series should have no last sample")
	}
}

func TestUnknownSeries(t *testing.T) {
	h, _ := NewHarness(1, 0)
	if _, err := h.Series("nope"); err == nil {
		t.Fatal("unknown sensor should error")
	}
}

func TestNames(t *testing.T) {
	h, _ := NewHarness(1, 0)
	_ = h.Register("b", func() float64 { return 0 })
	_ = h.Register("a", func() float64 { return 0 })
	names := h.Names()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Fatalf("names = %v (want registration order)", names)
	}
}

func TestWriteCSV(t *testing.T) {
	h, _ := NewHarness(10, 0)
	_ = h.Register("temp", func() float64 { return 55.5 })
	_ = h.Register("power", func() float64 { return 500 })
	h.Advance(20)
	var sb strings.Builder
	if err := h.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "time_s,temp,power" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "55.5") || !strings.Contains(lines[1], "500") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestWriteCSVSparse(t *testing.T) {
	h, _ := NewHarness(10, 0)
	_ = h.Register("a", func() float64 { return 1 })
	h.PollNow(5)
	_ = h.Register("b", func() float64 { return 2 })
	h.PollNow(15)
	var sb strings.Builder
	if err := h.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	// t=5 has only a; t=15 has both.
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.HasSuffix(lines[1], ",1,") {
		t.Fatalf("sparse row = %q", lines[1])
	}
}
