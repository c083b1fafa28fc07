package telemetry

import (
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

// TestWriteCSVEmpty covers the two empty-export edges: a harness with no
// sensors at all, and sensors registered but never polled. Both must emit
// a well-formed header and nothing else.
func TestWriteCSVEmpty(t *testing.T) {
	h, _ := NewHarness(10, 0)
	var sb strings.Builder
	if err := h.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "time_s\n" {
		t.Errorf("no-sensor export = %q", sb.String())
	}

	_ = h.Register("a", func() float64 { return 1 })
	sb.Reset()
	if err := h.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "time_s,a\n" {
		t.Errorf("unpolled export = %q", sb.String())
	}
}

// TestWriteCSVSingleSample pins the one-row export: header plus exactly
// one data row carrying the poll instant and value.
func TestWriteCSVSingleSample(t *testing.T) {
	h, _ := NewHarness(10, 0)
	_ = h.Register("a", func() float64 { return 2.5 })
	h.PollNow(7)
	var sb strings.Builder
	if err := h.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[1] != "7.000,2.5" {
		t.Errorf("row = %q", lines[1])
	}
}

// TestCSVQuoting feeds a sensor name containing commas and double quotes
// through the wide export and round-trips the result with encoding/csv:
// every field must come back verbatim.
func TestCSVQuoting(t *testing.T) {
	h, _ := NewHarness(10, 0)
	name := `wall,total "AC"`
	_ = h.Register(name, func() float64 { return 9 })
	_ = h.Register("plain", func() float64 { return 1 })
	h.PollNow(0)

	var sb strings.Builder
	if err := h.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	wide, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("wide export is not valid CSV: %v\n%s", err, sb.String())
	}
	if wide[0][1] != name || wide[0][2] != "plain" {
		t.Errorf("wide header = %q", wide[0])
	}
	if wide[1][1] != "9" {
		t.Errorf("wide row = %q", wide[1])
	}
}

// TestRingWraparoundOrdering pins the chronological contract of a capped
// series after the ring wraps: Samples/Values/Times/At all present the
// retained window oldest-first, and the wide CSV rows come out in time
// order — at the exact-fill boundary, one past it, and deep into rewrap.
func TestRingWraparoundOrdering(t *testing.T) {
	for _, polls := range []int{3, 4, 11} {
		h, _ := NewHarness(1, 3)
		n := 0.0
		_ = h.Register("x", func() float64 { n++; return n })
		h.Advance(float64(polls - 1)) // polls at t=0..polls-1
		s, _ := h.Series("x")
		if s.Len() != 3 {
			t.Fatalf("polls=%d: len = %d", polls, s.Len())
		}
		samples := s.Samples()
		for i, smp := range samples {
			wantT := float64(polls - 3 + i)
			if smp.Time != wantT || smp.Value != wantT+1 {
				t.Errorf("polls=%d: samples[%d] = %+v, want t=%g v=%g",
					polls, i, smp, wantT, wantT+1)
			}
			at, err := s.At(i)
			if err != nil || at != smp {
				t.Errorf("polls=%d: At(%d) = %+v, %v; Samples()[%d] = %+v",
					polls, i, at, err, i, smp)
			}
		}
		last, ok := s.Last()
		if !ok || last != samples[2] {
			t.Errorf("polls=%d: Last() = %+v, want %+v", polls, last, samples[2])
		}

		var sb strings.Builder
		if err := h.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
		if len(lines) != 4 {
			t.Fatalf("polls=%d: csv lines = %v", polls, lines)
		}
		for i, line := range lines[1:] {
			if !strings.HasSuffix(line, ","+strconv.Itoa(polls-2+i)) {
				t.Errorf("polls=%d: csv row %d out of order: %q", polls, i, line)
			}
		}
	}
}
