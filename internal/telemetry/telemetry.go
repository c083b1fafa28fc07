// Package telemetry reimplements the role of the Continuous System
// Telemetry Harness (CSTH) from the paper: a registry of named sensors
// polled on a fixed period (10 s in the paper), with ring-buffer history
// and CSV export for offline analysis.
//
// Sensors are pull-based: each is a function returning the current reading.
// The harness is driven by the simulation clock, not wall time, so
// experiments run as fast as the CPU allows.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sensor produces one reading when polled.
type Sensor func() float64

// Sample is one polled value.
type Sample struct {
	Time  float64 // simulation seconds
	Value float64
}

// Series is the retained history of one sensor.
type Series struct {
	samples []Sample
	cap     int // ring capacity; 0 = unbounded
	start   int // ring head when capped
}

func newSeries(capacity int) *Series {
	return &Series{cap: capacity}
}

func (s *Series) add(t, v float64) {
	if s.cap > 0 && len(s.samples) == s.cap {
		s.samples[s.start] = Sample{t, v}
		s.start = (s.start + 1) % s.cap
		return
	}
	s.samples = append(s.samples, Sample{t, v})
}

// Samples returns a chronological copy of the retained history.
func (s *Series) Samples() []Sample {
	out := make([]Sample, 0, len(s.samples))
	for i := 0; i < len(s.samples); i++ {
		out = append(out, s.samples[(s.start+i)%len(s.samples)])
	}
	return out
}

// Harness is the CSTH stand-in.
type Harness struct {
	period  float64 // polling period, seconds
	sensors map[string]Sensor
	series  map[string]*Series
	order   []string
	nextDue float64
	cap     int
}

// NewHarness creates a harness polling every period seconds (the paper's
// CSTH polls every 10 s). capacity bounds per-sensor history (0 =
// unbounded).
func NewHarness(period float64, capacity int) (*Harness, error) {
	if period <= 0 {
		return nil, fmt.Errorf("telemetry: polling period must be positive, got %g", period)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("telemetry: negative capacity %d", capacity)
	}
	return &Harness{
		period:  period,
		sensors: make(map[string]Sensor),
		series:  make(map[string]*Series),
		cap:     capacity,
	}, nil
}

// Register adds a named sensor. Re-registering a name is an error.
func (h *Harness) Register(name string, s Sensor) error {
	if s == nil {
		return fmt.Errorf("telemetry: nil sensor %q", name)
	}
	if _, dup := h.sensors[name]; dup {
		return fmt.Errorf("telemetry: duplicate sensor %q", name)
	}
	h.sensors[name] = s
	h.series[name] = newSeries(h.cap)
	h.order = append(h.order, name)
	return nil
}

// Names returns the registered sensor names in registration order.
func (h *Harness) Names() []string { return append([]string(nil), h.order...) }

// Advance moves simulation time forward to now (seconds), polling every
// sensor at each elapsed period boundary. It returns the number of polls
// performed.
func (h *Harness) Advance(now float64) int {
	polls := 0
	for h.nextDue <= now {
		for _, name := range h.order {
			h.series[name].add(h.nextDue, h.sensors[name]())
		}
		h.nextDue += h.period
		polls++
	}
	return polls
}

// Series returns the history for one sensor.
func (h *Harness) Series(name string) (*Series, error) {
	s, ok := h.series[name]
	if !ok {
		return nil, fmt.Errorf("telemetry: unknown sensor %q", name)
	}
	return s, nil
}

// csvField quotes s per RFC 4180 when it contains a comma, a double
// quote, or a line break; everything else passes through verbatim, so
// the repo's dotted sensor names and unit symbols are unchanged.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\r\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// WriteCSV emits all series as a wide CSV: time plus one column per sensor.
// Sensors are sampled on the same schedule, so rows align; where a series
// lacks a timestamp (a sensor registered after polling began), the union
// of timestamps is used and the missing cells are empty.
func (h *Harness) WriteCSV(w io.Writer) error {
	names := append([]string(nil), h.order...)
	// Collect the union of timestamps.
	timeSet := map[float64]bool{}
	for _, n := range names {
		for _, smp := range h.series[n].Samples() {
			timeSet[smp.Time] = true
		}
	}
	times := make([]float64, 0, len(timeSet))
	for t := range timeSet {
		times = append(times, t)
	}
	sort.Float64s(times)

	var sb strings.Builder
	sb.WriteString("time_s")
	for _, n := range names {
		sb.WriteString(",")
		sb.WriteString(csvField(n))
	}
	sb.WriteString("\n")
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}

	// Index samples per series.
	idx := make(map[string]map[float64]float64, len(names))
	for _, n := range names {
		m := map[float64]float64{}
		for _, smp := range h.series[n].Samples() {
			m[smp.Time] = smp.Value
		}
		idx[n] = m
	}
	for _, t := range times {
		sb.Reset()
		sb.WriteString(strconv.FormatFloat(t, 'f', 3, 64))
		for _, n := range names {
			sb.WriteString(",")
			if v, ok := idx[n][t]; ok {
				sb.WriteString(strconv.FormatFloat(v, 'g', 8, 64))
			}
		}
		sb.WriteString("\n")
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}
