package obs

import (
	"fmt"
	"math"
	"sort"
)

// CounterState, GaugeState and HistState are the serializable images of the
// three metric kinds. ExportState emits them as name-sorted slices — never
// maps — because a map's iteration order would make otherwise-identical
// checkpoints byte-unequal (and the snap codec refuses maps).
type CounterState struct {
	Name  string
	Value int64
}

// GaugeState is the serializable image of one gauge.
type GaugeState struct {
	Name  string
	Value float64
}

// HistState is the serializable image of one histogram: raw per-bucket
// counts (not the cumulative view), so an import reconstructs the exact
// internal cells.
type HistState struct {
	Name   string
	Bounds []float64
	Counts []uint64 // len(Bounds)+1; last is the +Inf bucket
	N      uint64
	Sum    float64
}

// State is a complete, deterministic image of a Registry for checkpointing.
type State struct {
	Counters []CounterState
	Gauges   []GaugeState
	Hists    []HistState
}

// ExportState captures every metric, sorted by name. Like Snapshot it may
// run concurrently with metric updates, but a deterministic image requires
// the usual serial-section discipline (call it between steps).
func (r *Registry) ExportState() State {
	if r == nil {
		return State{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var st State
	for name, c := range r.counters {
		st.Counters = append(st.Counters, CounterState{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		st.Gauges = append(st.Gauges, GaugeState{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		hs := HistState{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]uint64, len(h.counts)),
			N:      h.n.Load(),
			Sum:    math.Float64frombits(h.sum.Load()),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		st.Hists = append(st.Hists, hs)
	}
	sort.Slice(st.Counters, func(i, j int) bool { return st.Counters[i].Name < st.Counters[j].Name })
	sort.Slice(st.Gauges, func(i, j int) bool { return st.Gauges[i].Name < st.Gauges[j].Name })
	sort.Slice(st.Hists, func(i, j int) bool { return st.Hists[i].Name < st.Hists[j].Name })
	return st
}

// ImportState loads a captured State, creating metrics as needed and
// overwriting their values. It validates the image instead of panicking —
// checkpoint files are external input — and is a no-op on a nil registry.
func (r *Registry) ImportState(st State) error {
	if r == nil {
		return nil
	}
	names := make(map[string]bool)
	dup := func(name string) error {
		if name == "" {
			return fmt.Errorf("obs: state has an unnamed metric")
		}
		if names[name] {
			return fmt.Errorf("obs: state registers %q twice", name)
		}
		names[name] = true
		return nil
	}
	for _, hs := range st.Hists {
		if err := dup(hs.Name); err != nil {
			return err
		}
		if len(hs.Counts) != len(hs.Bounds)+1 {
			return fmt.Errorf("obs: histogram %q has %d buckets for %d bounds", hs.Name, len(hs.Counts), len(hs.Bounds))
		}
		for i := 1; i < len(hs.Bounds); i++ {
			if !(hs.Bounds[i] > hs.Bounds[i-1]) {
				return fmt.Errorf("obs: histogram %q bounds not strictly ascending", hs.Name)
			}
		}
	}
	for _, cs := range st.Counters {
		if err := dup(cs.Name); err != nil {
			return err
		}
	}
	for _, gs := range st.Gauges {
		if err := dup(gs.Name); err != nil {
			return err
		}
	}
	// Pre-check the live registry so a conflicting image returns an error
	// instead of tripping the registration panics (checkpoint files are
	// external input).
	r.mu.Lock()
	for _, cs := range st.Counters {
		if _, ok := r.gauges[cs.Name]; ok {
			r.mu.Unlock()
			return fmt.Errorf("obs: %q already registered as a gauge", cs.Name)
		}
		if _, ok := r.hists[cs.Name]; ok {
			r.mu.Unlock()
			return fmt.Errorf("obs: %q already registered as a histogram", cs.Name)
		}
	}
	for _, gs := range st.Gauges {
		if _, ok := r.counters[gs.Name]; ok {
			r.mu.Unlock()
			return fmt.Errorf("obs: %q already registered as a counter", gs.Name)
		}
		if _, ok := r.hists[gs.Name]; ok {
			r.mu.Unlock()
			return fmt.Errorf("obs: %q already registered as a histogram", gs.Name)
		}
	}
	for _, hs := range st.Hists {
		if _, ok := r.counters[hs.Name]; ok {
			r.mu.Unlock()
			return fmt.Errorf("obs: %q already registered as a counter", hs.Name)
		}
		if _, ok := r.gauges[hs.Name]; ok {
			r.mu.Unlock()
			return fmt.Errorf("obs: %q already registered as a gauge", hs.Name)
		}
		if h, ok := r.hists[hs.Name]; ok {
			if len(h.bounds) != len(hs.Bounds) {
				r.mu.Unlock()
				return fmt.Errorf("obs: histogram %q re-registered with different bounds", hs.Name)
			}
			for i := range hs.Bounds {
				if h.bounds[i] != hs.Bounds[i] {
					r.mu.Unlock()
					return fmt.Errorf("obs: histogram %q re-registered with different bounds", hs.Name)
				}
			}
		}
	}
	r.mu.Unlock()
	for _, cs := range st.Counters {
		c := r.Counter(cs.Name)
		c.v.Store(cs.Value)
	}
	for _, gs := range st.Gauges {
		r.Gauge(gs.Name).Set(gs.Value)
	}
	for _, hs := range st.Hists {
		h := r.Histogram(hs.Name, hs.Bounds)
		for i := range h.counts {
			h.counts[i].Store(hs.Counts[i])
		}
		h.n.Store(hs.N)
		h.sum.Store(math.Float64bits(hs.Sum))
	}
	return nil
}
